// sort/counting.hpp
//
// Single-pass stable counting sort-by-key for bounded keys. PIC sorting
// keys are voxel indices, provably < grid.nv(), so the general 32-bit LSD
// radix sort (up to four histogram+scatter passes) is overkill: one
// per-thread histogram, one exclusive scan over (bucket, thread), and one
// stable scatter reorder everything in O(n + nthreads * key_bound). This
// is the bin/counting sort VPIC itself and the PIC mini-app literature use
// for cell-index sorting; sort_by_key (radix.hpp) dispatches here whenever
// the key bound is small relative to n.
//
// The detail:: entry points are the one counting sort in the tree: the
// particle sort, the tile partition (core/tiles.cpp) and collide's cell
// index all call them. They take the key as a callable `key(i)`, so a
// caller reads each key where it already lives (a particle record's
// voxel, a tile id computed from it) instead of filling a key array, and
// the element move as a callable `place(i, slot)`, so records, indices and
// layout accessors scatter through the same loop. They use only
// caller-provided storage, so a caller holding a persistent SortWorkspace
// sorts with zero heap allocations. The View-level counting_sort_by_key
// mirrors the radix API (in-place semantics, scratch allocated per call).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "pk/pk.hpp"
#include "sort/dispatch_model.hpp"
#include "sort/workspace.hpp"

namespace vpic::sort {

using pk::index_t;

/// Largest key bound the counting path will consider (keeps the histogram
/// index arithmetic comfortably inside index_t and bounds scratch memory).
inline constexpr std::uint64_t kMaxCountingBound = std::uint64_t{1} << 30;

/// Dispatch predicate: is a counting sort over [0, key_bound) expected to
/// beat the multi-pass radix fallback for n elements? Two costs scale with
/// the bound: the O((nthreads + 1) * key_bound) zero/scan work, and the
/// scatter's write-stream spread (one open cache line per bucket, vs 256
/// per radix pass). The hard limits (n > 0, bound fits the histogram) are
/// structural; the cost crossover itself is the measured
/// sort::active_sort_model() (dispatch_model.hpp). PIC cell keys (ppc >= 8,
/// so nv <= n/8) stay comfortably inside the counting regime.
inline bool counting_sort_applicable(index_t n, std::uint64_t key_bound,
                                     int nthreads) noexcept {
  if (n <= 0 || key_bound == 0 || key_bound > kMaxCountingBound) return false;
  return active_sort_model().counting_applicable(n, key_bound, nthreads);
}

namespace detail {

/// Offset-buffer size for (nthreads, bound): one histogram row per thread
/// plus one row of per-bucket totals used by the scan.
inline std::size_t counting_hist_cells(int nthreads, index_t bound) noexcept {
  return (static_cast<std::size_t>(nthreads) + 1) *
         static_cast<std::size_t>(bound);
}

/// Phases 1+2 of the counting sort: per-thread histograms over the keys
/// `key(i)` in [0, bound), then an exclusive scan in (bucket-major,
/// thread-minor) order. On return offsets[t * bound + b] is the first
/// output slot for thread t's occurrences of key b — lower buckets first
/// and, within a bucket, lower thread ids first, which is what makes the
/// scatter stable. Layout is thread-major so the O(n) histogram/scatter
/// sweeps touch thread-private cache lines; only the (parallel-over-
/// buckets) scan strides across rows.
///
/// `key` is any callable index_t -> key: a key array
/// (`[k](index_t i) { return k[i]; }`) or the key read where it lives,
/// such as a particle record's voxel.
template <class Key>
void counting_offsets(const Key& key, index_t n, index_t bound,
                      index_t* PK_RESTRICT offsets, int nthreads) {
  std::fill(offsets, offsets + counting_hist_cells(nthreads, bound),
            index_t{0});
#if PK_HAVE_OPENMP
  if (nthreads > 1) {
    index_t* const totals =
        offsets + static_cast<std::size_t>(nthreads) * bound;
#pragma omp parallel num_threads(nthreads)
    {
      const int tid = omp_get_thread_num();
      const index_t lo = n * tid / nthreads;
      const index_t hi = n * (tid + 1) / nthreads;
      index_t* hist = offsets + static_cast<std::size_t>(tid) * bound;
      for (index_t i = lo; i < hi; ++i) ++hist[static_cast<index_t>(key(i))];
#pragma omp barrier
      // Within-bucket exclusive offsets over threads, plus bucket totals.
#pragma omp for schedule(static)
      for (index_t b = 0; b < bound; ++b) {
        index_t running = 0;
        for (int t = 0; t < nthreads; ++t) {
          index_t& cell = offsets[static_cast<std::size_t>(t) * bound + b];
          const index_t count = cell;
          cell = running;
          running += count;
        }
        totals[b] = running;
      }
#pragma omp single
      {
        index_t running = 0;
        for (index_t b = 0; b < bound; ++b) {
          const index_t count = totals[b];
          totals[b] = running;
          running += count;
        }
      }
#pragma omp for schedule(static)
      for (index_t b = 0; b < bound; ++b) {
        const index_t base = totals[b];
        for (int t = 0; t < nthreads; ++t)
          offsets[static_cast<std::size_t>(t) * bound + b] += base;
      }
    }
    return;
  }
#endif
  (void)nthreads;
  for (index_t i = 0; i < n; ++i) ++offsets[static_cast<index_t>(key(i))];
  index_t running = 0;
  for (index_t b = 0; b < bound; ++b) {
    const index_t count = offsets[b];
    offsets[b] = running;
    running += count;
  }
}

/// Phase 3: stable scatter. For each input i (per-thread ascending over the
/// same ranges counting_offsets histogrammed), place(i, offsets[key(i)]++)
/// moves element i to its output slot. `offsets` is consumed.
template <class Key, class Place>
void counting_scatter(const Key& key, index_t n, index_t bound,
                      index_t* PK_RESTRICT offsets, int nthreads,
                      const Place& place) {
#if PK_HAVE_OPENMP
  if (nthreads > 1) {
#pragma omp parallel num_threads(nthreads)
    {
      const int tid = omp_get_thread_num();
      const index_t lo = n * tid / nthreads;
      const index_t hi = n * (tid + 1) / nthreads;
      index_t* hist = offsets + static_cast<std::size_t>(tid) * bound;
      for (index_t i = lo; i < hi; ++i)
        place(i, hist[static_cast<index_t>(key(i))]++);
    }
    return;
  }
#endif
  (void)nthreads;
  (void)bound;
  for (index_t i = 0; i < n; ++i)
    place(i, offsets[static_cast<index_t>(key(i))]++);
}

/// Reconstruct the sorted key array from the histogram alone: the sorted
/// keys are `count[b]` copies of b, ascending, so a sequential per-bucket
/// fill replaces the random scatter of the key array entirely (half the
/// scatter's random-write traffic). `bucket_ends` is the LAST thread's
/// offset row after counting_scatter consumed it — the scatter leaves each
/// cell at the end of that thread's slice, so the final thread's row holds
/// each bucket's one-past-the-end slot (bucket b starts where b-1 ends).
template <class K>
void counting_fill_keys(const index_t* PK_RESTRICT bucket_ends, index_t bound,
                        K* PK_RESTRICT keys_out) {
#if PK_HAVE_OPENMP
#pragma omp parallel for schedule(static) num_threads(pk::OpenMP::concurrency())
  for (index_t b = 0; b < bound; ++b) {
    const index_t lo = b > 0 ? bucket_ends[b - 1] : index_t{0};
    std::fill(keys_out + lo, keys_out + bucket_ends[b], static_cast<K>(b));
  }
#else
  for (index_t b = 0; b < bound; ++b) {
    const index_t lo = b > 0 ? bucket_ends[b - 1] : index_t{0};
    std::fill(keys_out + lo, keys_out + bucket_ends[b], static_cast<K>(b));
  }
#endif
}

/// Scatter of the implicit identity permutation: perm_out[rank] = original
/// index. Lets the argsort path skip both the identity fill and the value
/// array entirely.
template <class Key>
void counting_scatter_index(const Key& key, index_t n, index_t bound,
                            index_t* PK_RESTRICT offsets, int nthreads,
                            index_t* PK_RESTRICT perm_out) {
  counting_scatter(key, n, bound, offsets, nthreads,
                   [perm_out](index_t i, index_t pos) { perm_out[pos] = i; });
}

}  // namespace detail

/// One-pass stable counting sort of (keys, values), ascending by key.
/// Keys must lie in [0, key_bound). Exactly one histogram and one scatter
/// sweep over the data (vs one pair per 8-bit digit for radix). `ws`
/// (optional) supplies the histogram buffer so repeated calls reuse it;
/// the two scratch views are still allocated per call to preserve the
/// in-place API — callers that need the fully allocation-free path use
/// the detail:: entry points with persistent storage (see
/// core/sort_particles.hpp).
template <class K, class V>
void counting_sort_by_key(pk::View<K, 1>& keys, pk::View<V, 1>& values,
                          index_t key_bound, SortWorkspace* ws = nullptr) {
  static_assert(std::is_unsigned_v<K>, "counting keys must be unsigned");
  const index_t n = keys.size();
  if (n <= 1) return;
  const int nthreads = pk::DefaultExecSpace::concurrency();
  const std::size_t cells = detail::counting_hist_cells(nthreads, key_bound);
  std::vector<index_t> local;
  index_t* offsets;
  if (ws) {
    offsets = ws->reserve_histogram(cells);
  } else {
    local.resize(cells);
    offsets = local.data();
  }
  const K* const k = keys.data();
  const auto key = [k](index_t i) { return k[i]; };
  detail::counting_offsets(key, n, key_bound, offsets, nthreads);
  pk::View<V, 1> vals_out("counting_vals_out", n);
  const V* const src = values.data();
  V* const dst = vals_out.data();
  detail::counting_scatter(key, n, key_bound, offsets, nthreads,
                           [src, dst](index_t i, index_t pos) {
                             dst[pos] = src[i];
                           });
  // The sorted keys are implied by the histogram — rebuild them with a
  // sequential per-bucket fill (directly into `keys`, now that the scatter
  // has read them) instead of random-scattering a second array.
  detail::counting_fill_keys(
      offsets + static_cast<std::size_t>(nthreads - 1) * key_bound, key_bound,
      keys.data());
  std::memcpy(values.data(), vals_out.data(),
              static_cast<std::size_t>(n) * sizeof(V));
}

}  // namespace vpic::sort
