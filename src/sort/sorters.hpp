// sort/sorters.hpp
//
// The paper's hardware-targeted sorting algorithms (Section 3.2 / 4.3):
//
//  * standard_sort       — plain ascending sort by cell key: the CPU-optimal
//                          order (each thread owns one cell's particles).
//  * strided_sort        — Algorithm 1: rewrites keys so equal keys land
//                          W apart, producing repeating, strictly
//                          monotonically increasing subsequences: the
//                          GPU-coalesced order.
//  * tiled_strided_sort  — Algorithm 2: strided order within repeating
//                          tiles of TileSz distinct keys, so a tile's cell
//                          data stays cache-resident while accesses remain
//                          coalesced.
//  * random_shuffle      — worst-case baseline used by Fig. 7.
//
// All sorters operate on (keys, values) pairs exactly as the paper's
// pseudocode does; `make_*_keys` exposes the key-rewriting step alone so
// multi-field particle arrays can be permuted via argsort. The rewrite
// cores report an exclusive upper bound on the rewritten keys, which is
// what lets sort_by_key pick the single-pass counting backend.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "pk/pk.hpp"
#include "sort/radix.hpp"

namespace vpic::sort {

enum class SortOrder : std::uint8_t {
  Random,
  Standard,
  Strided,
  TiledStrided,
};

inline const char* to_string(SortOrder o) noexcept {
  switch (o) {
    case SortOrder::Random:
      return "random";
    case SortOrder::Standard:
      return "standard";
    case SortOrder::Strided:
      return "strided";
    case SortOrder::TiledStrided:
      return "tiled-strided";
  }
  return "?";
}

/// Result of MINMAX over the keys (Algorithms 1 & 2, line 2).
template <class K>
pk::MinMaxValue<K> key_minmax(const pk::View<K, 1>& keys) {
  pk::MinMaxValue<K> mm{};
  pk::parallel_reduce<pk::MinMax<K>>(
      pk::RangePolicy<>(keys.size()),
      [&](index_t i, pk::MinMaxValue<K>& acc) {
        const K k = keys(i);
        if (k < acc.min_val) acc.min_val = k;
        if (k > acc.max_val) acc.max_val = k;
      },
      mm);
  return mm;
}

namespace detail {

/// Raw min/max over a key array; no heap traffic (the OpenMP reduction
/// clause keeps partials in registers / runtime storage), which keeps the
/// workspace-based sort pipeline allocation-free.
template <class K>
void key_minmax_ptr(const K* keys, index_t n, K& min_out, K& max_out) {
  K mn = std::numeric_limits<K>::max();
  K mx = std::numeric_limits<K>::lowest();
#if PK_HAVE_OPENMP
#pragma omp parallel for reduction(min : mn) reduction(max : mx) \
    schedule(static) num_threads(pk::OpenMP::concurrency())
#endif
  for (index_t i = 0; i < n; ++i) {
    const K k = keys[i];
    if (k < mn) mn = k;
    if (k > mx) mx = k;
  }
  min_out = mn;
  max_out = mx;
}

/// Raw max over a key array (line 7 of Algorithm 2).
template <class K>
K key_max_ptr(const K* keys, index_t n) {
  K mx = std::numeric_limits<K>::lowest();
#if PK_HAVE_OPENMP
#pragma omp parallel for reduction(max : mx) schedule(static) \
    num_threads(pk::OpenMP::concurrency())
#endif
  for (index_t i = 0; i < n; ++i)
    if (keys[i] > mx) mx = keys[i];
  return mx;
}

/// Algorithm 1, lines 1-7, on raw storage:
/// out[i] = (keys[i] - min_k) + occurrence * span, occurrence counted
/// atomically per key. `counts` must span max_k - min_k + 1 entries (they
/// are zeroed here; on return they hold the key multiplicities). Returns
/// the exclusive upper bound on the rewritten keys: span * max multiplicity.
template <class K>
std::uint64_t strided_rewrite(const K* keys, index_t n, K min_k, K max_k,
                              K* counts, K* out) {
  const index_t span =
      static_cast<index_t>(max_k) - static_cast<index_t>(min_k) + 1;
  std::fill(counts, counts + span, K{0});
  const K span_k = static_cast<K>(span);
  pk::parallel_for(n, [=](index_t i) {
    const K key = keys[i];
    const K occ = pk::atomic_fetch_add(&counts[key - min_k], K{1});
    out[i] = static_cast<K>((key - min_k) + occ * span_k);
  });
  const K max_mult = key_max_ptr(counts, span);
  return static_cast<std::uint64_t>(span) * max_mult;
}

/// Algorithm 2, lines 1-15, on raw storage. `counts` must span
/// max_k - min_k + 1 entries (zeroed and reused internally). Returns the
/// exclusive upper bound on the composite keys.
template <class K>
std::uint64_t tiled_rewrite(const K* keys, index_t n, K min_k, K max_k,
                            K tile_sz, K* counts, K* out) {
  if (tile_sz < 1) tile_sz = 1;
  const index_t span =
      static_cast<index_t>(max_k) - static_cast<index_t>(min_k) + 1;

  // Lines 4-6: histogram of key multiplicities.
  std::fill(counts, counts + span, K{0});
  pk::parallel_for(n,
                   [=](index_t i) { pk::atomic_inc(&counts[keys[i] - min_k]); });

  // Line 7: max multiplicity determines tiles per chunk.
  const K max_r = key_max_ptr(counts, span);

  // Line 8: chunk_sz = TileSz * max_r  (key slots per chunk).
  const K chunk_sz = static_cast<K>(tile_sz * max_r);

  // Line 9: reset the counting array.
  std::fill(counts, counts + span, K{0});

  // Lines 10-15: assign each element a (chunk, tile, id) composite key.
  pk::parallel_for(n, [=](index_t i) {
    const K id = static_cast<K>(keys[i] - min_k);
    const K tile = pk::atomic_fetch_add(&counts[id], K{1});
    const K chunk = static_cast<K>(keys[i] / tile_sz);
    out[i] = static_cast<K>(chunk * chunk_sz + tile * tile_sz + id);
  });

  // Largest possible composite: max chunk, last tile, largest id.
  return static_cast<std::uint64_t>(max_k / tile_sz) * chunk_sz +
         static_cast<std::uint64_t>(max_r > 0 ? max_r - 1 : 0) * tile_sz +
         static_cast<std::uint64_t>(span - 1) + 1;
}

}  // namespace detail

/// Algorithm 1, lines 1-7: produce the strided-order keys. If
/// `key_bound_out` is non-null it receives an exclusive upper bound on the
/// returned keys (for counting-sort dispatch).
template <class K>
pk::View<K, 1> make_strided_keys(const pk::View<K, 1>& keys,
                                 std::uint64_t* key_bound_out = nullptr) {
  const index_t n = keys.size();
  pk::View<K, 1> new_keys("strided_keys", n);
  if (n == 0) {
    if (key_bound_out) *key_bound_out = 0;
    return new_keys;
  }
  K min_k, max_k;
  detail::key_minmax_ptr(keys.data(), n, min_k, max_k);
  pk::View<K, 1> key_counts("key_counts", static_cast<index_t>(max_k) -
                                              static_cast<index_t>(min_k) + 1);
  const std::uint64_t bound = detail::strided_rewrite(
      keys.data(), n, min_k, max_k, key_counts.data(), new_keys.data());
  if (key_bound_out) *key_bound_out = bound;
  return new_keys;
}

/// Algorithm 2, lines 1-15: produce the tiled-strided-order keys.
/// Keys are grouped into chunks of `tile_sz` distinct key values; each
/// chunk holds max_repeat tiles; within a tile keys follow strided order.
template <class K>
pk::View<K, 1> make_tiled_strided_keys(const pk::View<K, 1>& keys, K tile_sz,
                                       std::uint64_t* key_bound_out = nullptr) {
  const index_t n = keys.size();
  pk::View<K, 1> new_keys("tiled_keys", n);
  if (n == 0) {
    if (key_bound_out) *key_bound_out = 0;
    return new_keys;
  }
  K min_k, max_k;
  detail::key_minmax_ptr(keys.data(), n, min_k, max_k);
  pk::View<K, 1> key_counts("key_counts", static_cast<index_t>(max_k) -
                                              static_cast<index_t>(min_k) + 1);
  const std::uint64_t bound =
      detail::tiled_rewrite(keys.data(), n, min_k, max_k, tile_sz,
                            key_counts.data(), new_keys.data());
  if (key_bound_out) *key_bound_out = bound;
  return new_keys;
}

/// Standard classification (ascending by key). CPU-optimal order.
template <class K, class V>
void standard_sort(pk::View<K, 1>& keys, pk::View<V, 1>& values) {
  sort_by_key(keys, values);
}

/// Algorithm 1 end-to-end: reorder (keys, values) into strided order.
template <class K, class V>
void strided_sort(pk::View<K, 1>& keys, pk::View<V, 1>& values) {
  pk::View<K, 1> nk = make_strided_keys(keys);
  pk::View<K, 1> nk2("strided_keys_copy", nk.size());
  pk::deep_copy(nk2, nk);
  sort_by_key(nk, keys);    // line 8: SORT_BY_KEY(new_keys, Keys)
  sort_by_key(nk2, values); // line 9: SORT_BY_KEY(new_keys, Values)
}

/// Algorithm 2 end-to-end: reorder (keys, values) into tiled-strided order.
template <class K, class V>
void tiled_strided_sort(pk::View<K, 1>& keys, pk::View<V, 1>& values,
                        K tile_sz) {
  pk::View<K, 1> nk = make_tiled_strided_keys(keys, tile_sz);
  pk::View<K, 1> nk2("tiled_keys_copy", nk.size());
  pk::deep_copy(nk2, nk);
  sort_by_key(nk, keys);
  sort_by_key(nk2, values);
}

/// Deterministic Fisher-Yates shuffle (worst-case order baseline).
template <class K, class V>
void random_shuffle(pk::View<K, 1>& keys, pk::View<V, 1>& values,
                    std::uint64_t seed) {
  const index_t n = keys.size();
  std::uint64_t state = seed ? seed : 0x9e3779b97f4a7c15ull;
  auto next = [&state]() {
    // xorshift64*
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545f4914f6cdd1dull;
  };
  for (index_t i = n - 1; i > 0; --i) {
    const index_t j = static_cast<index_t>(next() % static_cast<std::uint64_t>(i + 1));
    std::swap(keys(i), keys(j));
    std::swap(values(i), values(j));
  }
}

/// Dispatch by SortOrder (tile_sz ignored unless TiledStrided).
template <class K, class V>
void sort_pairs(SortOrder order, pk::View<K, 1>& keys,
                pk::View<V, 1>& values, K tile_sz = 0,
                std::uint64_t seed = 12345) {
  switch (order) {
    case SortOrder::Random:
      random_shuffle(keys, values, seed);
      break;
    case SortOrder::Standard:
      standard_sort(keys, values);
      break;
    case SortOrder::Strided:
      strided_sort(keys, values);
      break;
    case SortOrder::TiledStrided:
      tiled_strided_sort(keys, values, tile_sz);
      break;
  }
}

}  // namespace vpic::sort
