// core/sort_particles.hpp
//
// Bridges the PIC engine to the hardware-targeted sorting library
// (Section 3.2): reorders a species' particle array by cell key in the
// order a given SortOrder prescribes. VPIC re-sorts every N steps; the
// Simulation driver calls this on its sort interval, so the pipeline is
// built to be allocation-free in steady state:
//
//  * cell keys are bounded by grid.nv(), so the sort is a single-pass
//    counting sort (histogram + scan + stable scatter) rather than a
//    multi-pass radix sort whenever the particle sort's measured budget
//    (sort/dispatch_model.hpp: particle_sort_model()) says the histogram
//    traffic is cheap relative to np;
//  * the Standard order with a known key bound reads each particle's
//    voxel from its record, so it fills no key array. The strided orders
//    fill `keys` and rewrite them into `keys_alt`;
//  * the counting sort scatters the 32-byte particle records directly,
//    with no permutation array;
//  * the reorder writes into the spare particle buffer of the species'
//    SortScratch (core/particle.hpp), which is then swapped with `p`
//    (ping-pong), eliminating the copy-back pass. A Simulation's species
//    share one scratch, so a two-species deck holds three particle
//    buffers and one workspace;
//  * each path reserves only the SortWorkspace buffers it reads, on first
//    use (grown geometrically, reused thereafter).
//
// The radix argsort fallback (wide rewritten-key bounds) also runs out of
// the workspace. See docs/SORTING.md for the cost model and the bytes per
// particle each path holds.
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
/// Standard order read each voxel in place, with no key array and no
/// min/max reduce.
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
  SortScratch& scr = sp.sort_scratch();
  sort::SortWorkspace& ws = scr.ws;
  ParticleStore& spare = scr.spare_for(sp.p);
  const int nthreads = pk::DefaultExecSpace::concurrency();

  // Permutation gather of whole records: dst[i] = src[perm[i]].
  const Particle* const src = sp.p.data();
  Particle* const dst = spare.data();
  auto gather_perm = [=](const char* kernel, const index_t* perm) {
    pk::parallel_for(kernel, n, [=](index_t i) { dst[i] = src[perm[i]]; });
  };

  if (order == sort::SortOrder::Random) {
    // Permutation-only Fisher-Yates (same swap sequence the pair shuffle
    // in sort::random_shuffle performs), then a single gather.
    index_t* const perm = ws.reserve_perm(n);
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
    std::swap(sp.p, spare);
    return;
  }

  // Order-specific keys plus an exclusive bound on them. A Standard sort
  // with a known bound keeps `keys` null and reads each voxel in place;
  // otherwise the cell keys fill `keys` (for their min/max), and the
  // strided orders rewrite them into keys_alt.
  std::uint32_t* keys = nullptr;
  std::uint64_t bound = static_cast<std::uint64_t>(key_bound);
  if (order != sort::SortOrder::Standard || key_bound <= 0) {
    keys = ws.reserve_keys(n);
    sp.cell_keys(ws.keys);
    std::uint32_t mn, mx;
    sort::detail::key_minmax_ptr(keys, n, mn, mx);
    if (order == sort::SortOrder::Standard) {
      bound = static_cast<std::uint64_t>(mx) + 1;
    } else {
      const index_t span =
          static_cast<index_t>(mx) - static_cast<index_t>(mn) + 1;
      std::uint32_t* counts = ws.reserve_counts(static_cast<index_t>(
          sort::detail::counting_hist_cells(nthreads, span)));
      std::uint32_t* const rewritten = ws.reserve_keys_alt(n);
      bound = order == sort::SortOrder::Strided
                  ? sort::detail::strided_rewrite(keys, n, mn, mx, nthreads,
                                                  counts, rewritten)
                  : sort::detail::tiled_rewrite(keys, n, mn, mx, tile_sz,
                                                nthreads, counts, rewritten);
      keys = rewritten;
    }
  }

  // Counting-vs-radix dispatch: the hard applicability limits stay
  // structural inside counting_sort_applicable; the cost crossover is the
  // particle sort's measured budget, sort::particle_sort_model().
  const bool use_counting = sort::counting_sort_applicable(
      n, bound, nthreads, sort::particle_sort_model());
  prof::counter_add(use_counting ? "sort.dispatch.counting"
                                 : "sort.dispatch.radix");

  if (use_counting) {
    const index_t b = static_cast<index_t>(bound);
    index_t* offsets =
        ws.reserve_histogram(sort::detail::counting_hist_cells(nthreads, b));
    // One stable counting sort whatever the key source, scattering the
    // particle records directly (no permutation array, no copy-back).
    const auto reorder = [&](const auto& key) {
      sort::detail::counting_offsets(key, n, b, offsets, nthreads);
      sort::detail::counting_scatter(
          key, n, b, offsets, nthreads,
          [src, dst](index_t i, index_t pos) { dst[pos] = src[i]; });
    };
    if (keys)
      reorder([keys](index_t i) { return keys[i]; });
    else
      reorder([src](index_t i) { return src[i].i; });
  } else {
    // General fallback: radix argsort out of the workspace buffers, then
    // one gather of the particle records. The ping-pong partner of the
    // keys is whichever key buffer does not hold them.
    if (!keys) {
      keys = ws.reserve_keys(n);
      sp.cell_keys(ws.keys);
    }
    std::uint32_t* const keys_tmp =
        keys == ws.keys.data() ? ws.reserve_keys_alt(n) : ws.keys.data();
    index_t* const perm = ws.reserve_perm(n);
    index_t* const perm_tmp = ws.reserve_perm_alt(n);
    pk::parallel_for("sort/perm_init", n, [=](index_t i) { perm[i] = i; });
    const int passes =
        sort::detail::passes_for(bound > 0 ? bound - 1 : std::uint64_t{0});
    index_t* offsets =
        ws.reserve_histogram(static_cast<std::size_t>(nthreads) * 256);
    sort::detail::radix_passes(keys, perm, keys_tmp, perm_tmp, n, passes,
                               offsets, nthreads);
    gather_perm("sort/radix_gather", perm);
  }
  std::swap(sp.p, spare);
}

}  // namespace vpic::core
