// sort/workspace.hpp
//
// Persistent scratch memory for the particle-sort pipeline. VPIC re-sorts
// every sort_interval steps with an (almost always) unchanged particle
// count, so the sort's key/permutation/histogram buffers are allocated
// on first use, grown geometrically on the rare capacity increase, and
// reused — steady-state sorting performs zero heap allocations (the
// property tests/test_sort_pipeline.cpp asserts via pk::view_alloc_count).
//
// One workspace serves every species of a simulation: it lives in the
// simulation's core::SortScratch (core/particle.hpp), whose species sort
// one after another, so each buffer is sized for the largest species that
// reads it. Each buffer is reserved on its own, by the sort paths that
// read it, so the workspace holds only what the sort order needs
// (docs/SORTING.md, "Workspace"): the Standard sort reads each voxel from
// its record and holds no per-particle buffer at all; the Random order
// holds `perm`; the strided orders hold `keys` and `keys_alt`; only the
// radix fallback holds all four.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "pk/pk.hpp"

namespace vpic::sort {

using pk::index_t;

struct SortWorkspace {
  pk::View<std::uint32_t, 1> keys;      // cell keys of the live particles
  pk::View<std::uint32_t, 1> keys_alt;  // rewritten keys / radix ping-pong
  pk::View<index_t, 1> perm;            // permutation for a gather
  pk::View<index_t, 1> perm_alt;        // radix ping-pong partner of perm
  pk::View<std::uint32_t, 1> counts;    // per-chunk key occurrence counts
  std::vector<index_t> histogram;       // per-thread scatter offsets

  /// Number of times any buffer here was (re)allocated. Steady state must
  /// leave this constant — the zero-allocation property the tests assert.
  std::int64_t grow_count = 0;

  /// Ensure one buffer holds at least `n` entries and return its storage.
  /// Contents are NOT preserved across growth nor zeroed for the caller;
  /// every kernel writes what it reads.
  std::uint32_t* reserve_keys(index_t n) {
    return reserve(keys, "sort_ws_keys", n);
  }
  std::uint32_t* reserve_keys_alt(index_t n) {
    return reserve(keys_alt, "sort_ws_keys_alt", n);
  }
  index_t* reserve_perm(index_t n) { return reserve(perm, "sort_ws_perm", n); }
  index_t* reserve_perm_alt(index_t n) {
    return reserve(perm_alt, "sort_ws_perm_alt", n);
  }
  /// The key-occurrence buffer, `cells` entries.
  std::uint32_t* reserve_counts(index_t cells) {
    return reserve(counts, "sort_ws_counts", cells);
  }

  /// Ensure the scatter-offset buffer holds `cells` entries.
  index_t* reserve_histogram(std::size_t cells) {
    if (histogram.size() < cells) {
      histogram.resize(std::max(cells, histogram.size() * 2));
      ++grow_count;
    }
    return histogram.data();
  }

 private:
  template <class T>
  T* reserve(pk::View<T, 1>& buf, const char* label, index_t need) {
    if (buf.size() < need) {
      const index_t cur = buf.size();
      buf = pk::View<T, 1>(label, std::max(cur + cur / 2, need));
      ++grow_count;
    }
    return buf.data();
  }
};

}  // namespace vpic::sort
