// core/sort_particles.hpp
//
// Bridges the PIC engine to the hardware-targeted sorting library
// (Section 3.2): reorders a species' particle array by cell key in the
// order a given SortOrder prescribes. VPIC re-sorts every N steps; the
// Simulation driver calls this on its sort interval, so the pipeline is
// built to be allocation-free in steady state:
//
//  * keys / permutation / histogram buffers live in the species'
//    persistent SortWorkspace (grown geometrically, reused thereafter);
//  * cell keys are bounded by grid.nv(), so the sort is a single-pass
//    counting sort (histogram + scan + stable scatter) rather than a
//    multi-pass radix sort whenever the measured dispatch model
//    (sort/dispatch_model.hpp: active_sort_model()) says the histogram
//    traffic is cheap relative to np. For AoS the
//    scatter moves the 32-byte particle records directly with no
//    intermediate permutation array; SoA/AoSoA scatter a permutation and
//    gather through the layout accessor (a record is not one contiguous
//    32-byte span there);
//  * the reorder gathers into the species' scratch particle buffer which
//    is then swapped with `p` (ping-pong), eliminating the copy-back pass.
//
// The radix argsort fallback (wide rewritten-key bounds) also runs out of
// the workspace. See docs/SORTING.md for the cost model.
#pragma once

#include "core/particle.hpp"
#include "prof/prof.hpp"
#include "sort/counting.hpp"
#include "sort/order_checks.hpp"
#include "sort/radix.hpp"
#include "sort/sorters.hpp"

namespace vpic::core {

/// Reorder live particles according to `order`. `tile_sz` feeds the
/// tiled-strided sort (paper: #CPU threads on CPUs, 3x core count on
/// GPUs); ignored for other orders. `key_bound`, when positive, is an
/// exclusive upper bound on the cell keys (pass grid.nv()) and lets the
/// standard order skip its min/max reduce.
inline void sort_particles(Species& sp, sort::SortOrder order,
                           std::uint32_t tile_sz = 0,
                           std::uint64_t seed = 9001,
                           index_t key_bound = 0) {
  const index_t n = sp.np;
  // Sortedness tracking for the run-aware push (docs/PUSH.md): Standard
  // order is exactly the cell-sorted order the fast path exploits; any
  // other order invalidates the hint.
  sp.mark_sorted(order == sort::SortOrder::Standard);
  if (n <= 1) return;
  prof::ScopedRegion region("sort_particles");
  sort::SortWorkspace& ws = sp.sort_ws;
  ws.reserve_pairs(n);
  const int nthreads = pk::DefaultExecSpace::concurrency();

  ParticleStore& scratch = sp.sort_scratch();

  // Layout-generic permutation gather: dst[i] = src[perm[i]]. AoS moves
  // whole records through the raw pointers; SoA/AoSoA go through the
  // accessor pair (still one pass, 8 lane moves per particle).
  auto gather_perm = [&](const char* kernel, const index_t* perm) {
    dispatch_layout(sp.p, [&](auto sa) {
      dispatch_layout(scratch, [&](auto da) {
        pk::parallel_for(kernel, n,
                         [=](index_t i) { da.store(i, sa.load(perm[i])); });
      });
    });
  };

  if (order == sort::SortOrder::Random) {
    // Permutation-only Fisher-Yates (same swap sequence the pair shuffle
    // in sort::random_shuffle performs), then a single gather.
    index_t* const perm = ws.perm.data();
    pk::parallel_for("sort/perm_init", n, [=](index_t i) { perm[i] = i; });
    std::uint64_t state = seed ? seed : 0x9e3779b97f4a7c15ull;
    auto next = [&state]() {
      state ^= state >> 12;
      state ^= state << 25;
      state ^= state >> 27;
      return state * 0x2545f4914f6cdd1dull;
    };
    for (index_t i = n - 1; i > 0; --i) {
      const index_t j =
          static_cast<index_t>(next() % static_cast<std::uint64_t>(i + 1));
      std::swap(perm[i], perm[j]);
    }
    gather_perm("sort/shuffle_gather", perm);
    std::swap(sp.p, sp.p_scratch);
    return;
  }

  sp.cell_keys(ws.keys);
  std::uint32_t* keys = ws.keys.data();
  std::uint32_t* keys_alt = ws.keys_alt.data();

  // Order-specific final keys plus an exclusive bound on them.
  std::uint64_t bound = 0;
  switch (order) {
    case sort::SortOrder::Standard: {
      if (key_bound > 0) {
        bound = static_cast<std::uint64_t>(key_bound);
      } else {
        std::uint32_t mn, mx;
        sort::detail::key_minmax_ptr(keys, n, mn, mx);
        bound = static_cast<std::uint64_t>(mx) + 1;
      }
      break;
    }
    case sort::SortOrder::Strided:
    case sort::SortOrder::TiledStrided: {
      std::uint32_t mn, mx;
      sort::detail::key_minmax_ptr(keys, n, mn, mx);
      const index_t span =
          static_cast<index_t>(mx) - static_cast<index_t>(mn) + 1;
      std::uint32_t* counts = ws.reserve_counts(static_cast<index_t>(
          sort::detail::counting_hist_cells(nthreads, span)));
      bound = order == sort::SortOrder::Strided
                  ? sort::detail::strided_rewrite(keys, n, mn, mx, nthreads,
                                                  counts, keys_alt)
                  : sort::detail::tiled_rewrite(keys, n, mn, mx, tile_sz,
                                                nthreads, counts, keys_alt);
      std::swap(keys, keys_alt);
      break;
    }
    case sort::SortOrder::Random:
      break;  // handled above
  }

  // Counting-vs-radix dispatch: the hard applicability limits stay
  // structural inside counting_sort_applicable; the cost crossover is the
  // measured sort::active_sort_model().
  const bool use_counting = sort::counting_sort_applicable(n, bound, nthreads);
  prof::counter_add(use_counting ? "sort.dispatch.counting"
                                 : "sort.dispatch.radix");

  if (use_counting) {
    const index_t b = static_cast<index_t>(bound);
    index_t* offsets =
        ws.reserve_histogram(sort::detail::counting_hist_cells(nthreads, b));
    sort::detail::counting_offsets(keys, n, b, offsets, nthreads);
    if (sp.p.layout() == ParticleLayout::AoS &&
        scratch.layout() == ParticleLayout::AoS) {
      // One-pass counting sort scattering the particle records directly:
      // no permutation array, no copy-back.
      sort::detail::counting_scatter(keys, sp.p.data(), n, b, offsets,
                                     nthreads, scratch.data());
    } else {
      // Non-contiguous record layouts: scatter the permutation, then one
      // accessor gather.
      index_t* const perm = ws.perm.data();
      sort::detail::counting_scatter_index(keys, n, b, offsets, nthreads,
                                           perm);
      gather_perm("sort/counting_gather", perm);
    }
  } else {
    // General fallback: radix argsort out of the workspace buffers, then
    // one gather of the particle records.
    index_t* const perm = ws.perm.data();
    pk::parallel_for("sort/perm_init", n, [=](index_t i) { perm[i] = i; });
    const int passes =
        sort::detail::passes_for(bound > 0 ? bound - 1 : std::uint64_t{0});
    index_t* offsets =
        ws.reserve_histogram(static_cast<std::size_t>(nthreads) * 256);
    sort::detail::radix_passes(keys, perm, keys_alt, ws.perm_alt.data(), n,
                               passes, offsets, nthreads);
    gather_perm("sort/radix_gather", perm);
  }
  std::swap(sp.p, sp.p_scratch);
}

}  // namespace vpic::core
