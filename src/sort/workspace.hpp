// sort/workspace.hpp
//
// Persistent scratch memory for the particle-sort pipeline. VPIC re-sorts
// every sort_interval steps with an (almost always) unchanged particle
// count, so the sort's key/permutation/histogram buffers are allocated
// once, grown geometrically on the rare capacity increase, and reused —
// steady-state sorting performs zero heap allocations (the property
// tests/test_sort_pipeline.cpp asserts via pk::view_alloc_count()).
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
  pk::View<index_t, 1> perm;            // permutation (radix argsort path)
  pk::View<index_t, 1> perm_alt;        // radix ping-pong partner of perm
  pk::View<std::uint32_t, 1> counts;    // per-chunk key occurrence counts
  std::vector<index_t> histogram;       // per-thread scatter offsets

  /// Number of times any buffer here was (re)allocated. Steady state must
  /// leave this constant — the zero-allocation property the tests assert.
  std::int64_t grow_count = 0;

  /// Ensure the per-particle buffers hold at least n entries.
  void reserve_pairs(index_t n) {
    if (keys.size() >= n) return;
    const index_t cap = grown(keys.size(), n);
    keys = pk::View<std::uint32_t, 1>("sort_ws_keys", cap);
    keys_alt = pk::View<std::uint32_t, 1>("sort_ws_keys_alt", cap);
    perm = pk::View<index_t, 1>("sort_ws_perm", cap);
    perm_alt = pk::View<index_t, 1>("sort_ws_perm_alt", cap);
    ++grow_count;
  }

  /// Ensure the key-occurrence buffer holds `cells` entries.
  /// Contents are NOT zeroed; the key-rewrite kernels reset what they use.
  std::uint32_t* reserve_counts(index_t cells) {
    if (counts.size() < cells) {
      counts = pk::View<std::uint32_t, 1>("sort_ws_counts",
                                          grown(counts.size(), cells));
      ++grow_count;
    }
    return counts.data();
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
  static index_t grown(index_t cur, index_t need) noexcept {
    const index_t cap = cur + cur / 2;
    return cap < need ? need : cap;
  }
};

}  // namespace vpic::sort
