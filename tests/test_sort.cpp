// Tests for the sorting library: radix sort-by-key vs std::sort reference,
// the paper's Algorithm 1 (strided) and Algorithm 2 (tiled strided)
// postconditions as properties over randomized multisets, order
// predicates, and permutation application.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "pk/pk.hpp"
#include "sort/order_checks.hpp"
#include "sort/radix.hpp"
#include "sort/sorters.hpp"

namespace pk = vpic::pk;
namespace vs = vpic::sort;
using pk::index_t;

namespace {

pk::View<std::uint32_t, 1> random_keys(index_t n, std::uint32_t max_key,
                                       std::uint64_t seed) {
  pk::View<std::uint32_t, 1> keys("keys", n);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint32_t> dist(0, max_key);
  for (index_t i = 0; i < n; ++i) keys(i) = dist(rng);
  return keys;
}

pk::View<std::uint32_t, 1> iota_values(index_t n) {
  pk::View<std::uint32_t, 1> v("vals", n);
  for (index_t i = 0; i < n; ++i) v(i) = static_cast<std::uint32_t>(i);
  return v;
}

}  // namespace

TEST(RadixSort, MatchesStdSort) {
  auto keys = random_keys(5000, 1u << 20, 1);
  auto vals = iota_values(5000);
  std::vector<std::uint32_t> ref(keys.data(), keys.data() + keys.size());
  vs::sort_by_key(keys, vals);
  std::sort(ref.begin(), ref.end());
  for (index_t i = 0; i < keys.size(); ++i) EXPECT_EQ(keys(i), ref[i]);
}

TEST(RadixSort, StablePreservesTieOrder) {
  pk::View<std::uint32_t, 1> keys("k", 9), vals("v", 9);
  const std::uint32_t kv[9] = {3, 1, 3, 1, 2, 3, 1, 2, 2};
  for (int i = 0; i < 9; ++i) {
    keys(i) = kv[i];
    vals(i) = static_cast<std::uint32_t>(i);
  }
  vs::sort_by_key(keys, vals);
  // Values with equal keys must appear in original order.
  const std::uint32_t want_vals[9] = {1, 3, 6, 4, 7, 8, 0, 2, 5};
  for (int i = 0; i < 9; ++i) EXPECT_EQ(vals(i), want_vals[i]) << i;
}

TEST(RadixSort, PairsMoveTogether) {
  auto keys = random_keys(2048, 997, 7);
  auto vals = iota_values(2048);
  pk::View<std::uint32_t, 1> k0("k0", 2048), v0("v0", 2048);
  pk::deep_copy(k0, keys);
  pk::deep_copy(v0, vals);
  vs::sort_by_key(keys, vals);
  EXPECT_TRUE(vs::pairs_preserved(keys, vals, k0, v0));
}

TEST(RadixSort, EmptyAndSingle) {
  pk::View<std::uint32_t, 1> k0("k", 0), v0("v", 0);
  vs::sort_by_key(k0, v0);  // must not crash
  pk::View<std::uint32_t, 1> k1("k", 1), v1("v", 1);
  k1(0) = 42;
  vs::sort_by_key(k1, v1);
  EXPECT_EQ(k1(0), 42u);
}

TEST(RadixSort, AllZeroKeys) {
  pk::View<std::uint32_t, 1> k("k", 100), v("v", 100);
  for (index_t i = 0; i < 100; ++i) v(i) = static_cast<std::uint32_t>(i);
  vs::sort_by_key(k, v);
  for (index_t i = 0; i < 100; ++i) EXPECT_EQ(v(i), i);  // stable identity
}

TEST(RadixSort, WideKeysMultiPass) {
  auto keys = random_keys(4096, 0xFFFFFFFFu, 3);
  auto vals = iota_values(4096);
  std::vector<std::uint32_t> ref(keys.data(), keys.data() + keys.size());
  vs::sort_by_key(keys, vals);
  std::sort(ref.begin(), ref.end());
  for (index_t i = 0; i < keys.size(); ++i) EXPECT_EQ(keys(i), ref[i]);
}

TEST(RadixSort, ArgsortDoesNotMutateKeys) {
  auto keys = random_keys(1000, 100, 11);
  pk::View<std::uint32_t, 1> before("b", 1000);
  pk::deep_copy(before, keys);
  pk::View<index_t, 1> perm("perm", 1000);
  vs::argsort(keys, perm);
  for (index_t i = 0; i < 1000; ++i) EXPECT_EQ(keys(i), before(i));
  for (index_t i = 1; i < 1000; ++i)
    EXPECT_LE(keys(perm(i - 1)), keys(perm(i)));
}

TEST(RadixSort, ApplyPermutation) {
  pk::View<double, 1> src("s", 4), dst("d", 4);
  pk::View<index_t, 1> perm("p", 4);
  for (int i = 0; i < 4; ++i) src(i) = i * 1.5;
  perm(0) = 3;
  perm(1) = 1;
  perm(2) = 0;
  perm(3) = 2;
  vs::apply_permutation(perm, src, dst);
  EXPECT_EQ(dst(0), 4.5);
  EXPECT_EQ(dst(1), 1.5);
  EXPECT_EQ(dst(2), 0.0);
  EXPECT_EQ(dst(3), 3.0);
}

// ----------------------------------------------------------------------
// Property sweep: (n, key_range) grid for all three algorithms.
// ----------------------------------------------------------------------

struct SortCase {
  index_t n;
  std::uint32_t max_key;
  std::uint32_t tile;
};

class SortProperties : public ::testing::TestWithParam<SortCase> {};

TEST_P(SortProperties, StandardIsSortedPermutation) {
  const auto c = GetParam();
  auto keys = random_keys(c.n, c.max_key, c.n * 31 + c.max_key);
  auto vals = iota_values(c.n);
  pk::View<std::uint32_t, 1> orig("o", c.n);
  pk::deep_copy(orig, keys);
  vs::standard_sort(keys, vals);
  EXPECT_TRUE(vs::is_sorted_ascending(keys));
  EXPECT_TRUE(vs::is_permutation_of(keys, orig));
}

TEST_P(SortProperties, StridedPostcondition) {
  const auto c = GetParam();
  auto keys = random_keys(c.n, c.max_key, c.n * 37 + c.max_key);
  auto vals = iota_values(c.n);
  pk::View<std::uint32_t, 1> orig_k("ok", c.n), orig_v("ov", c.n);
  pk::deep_copy(orig_k, keys);
  pk::deep_copy(orig_v, vals);
  vs::strided_sort(keys, vals);
  EXPECT_TRUE(vs::is_strided_order(keys));
  EXPECT_TRUE(vs::is_permutation_of(keys, orig_k));
  EXPECT_TRUE(vs::pairs_preserved(keys, vals, orig_k, orig_v));
}

TEST_P(SortProperties, TiledStridedPostcondition) {
  const auto c = GetParam();
  auto keys = random_keys(c.n, c.max_key, c.n * 41 + c.max_key);
  auto vals = iota_values(c.n);
  pk::View<std::uint32_t, 1> orig_k("ok", c.n), orig_v("ov", c.n);
  pk::deep_copy(orig_k, keys);
  pk::deep_copy(orig_v, vals);
  vs::tiled_strided_sort(keys, vals, c.tile);
  EXPECT_TRUE(vs::is_tiled_strided_order(keys, c.tile));
  EXPECT_TRUE(vs::is_permutation_of(keys, orig_k));
  EXPECT_TRUE(vs::pairs_preserved(keys, vals, orig_k, orig_v));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SortProperties,
    ::testing::Values(SortCase{64, 7, 4}, SortCase{100, 3, 2},
                      SortCase{1000, 31, 8}, SortCase{1000, 999, 16},
                      SortCase{4096, 255, 32}, SortCase{10000, 99, 7},
                      SortCase{313, 312, 5}, SortCase{2048, 1, 2}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_k" +
             std::to_string(info.param.max_key) + "_t" +
             std::to_string(info.param.tile);
    });

TEST(StridedSort, ExampleFromPaperFigure2) {
  // Keys 0,0,0,1,1,2,2,2 -> strided order must interleave: 0,1,2,0,1,2,0,2
  pk::View<std::uint32_t, 1> keys("k", 8), vals("v", 8);
  const std::uint32_t kv[8] = {0, 0, 0, 1, 1, 2, 2, 2};
  for (int i = 0; i < 8; ++i) {
    keys(i) = kv[i];
    vals(i) = static_cast<std::uint32_t>(i);
  }
  vs::strided_sort(keys, vals);
  const std::uint32_t want[8] = {0, 1, 2, 0, 1, 2, 0, 2};
  for (int i = 0; i < 8; ++i) EXPECT_EQ(keys(i), want[i]) << "slot " << i;
}

TEST(StridedSort, MinKeyOffsetHandled) {
  // Keys not starting at zero must still produce a valid strided order.
  pk::View<std::uint32_t, 1> keys("k", 6), vals("v", 6);
  const std::uint32_t kv[6] = {10, 11, 10, 11, 10, 12};
  for (int i = 0; i < 6; ++i) {
    keys(i) = kv[i];
    vals(i) = static_cast<std::uint32_t>(i);
  }
  vs::strided_sort(keys, vals);
  EXPECT_TRUE(vs::is_strided_order(keys));
}

TEST(TiledStridedSort, KeysGroupedInChunks) {
  // 4 keys {0..3}, tile 2 -> chunks {0,1} and {2,3}: all 0/1 entries must
  // precede all 2/3 entries.
  pk::View<std::uint32_t, 1> keys("k", 12), vals("v", 12);
  for (int i = 0; i < 12; ++i) {
    keys(i) = static_cast<std::uint32_t>(i % 4);
    vals(i) = static_cast<std::uint32_t>(i);
  }
  vs::tiled_strided_sort(keys, vals, 2u);
  for (int i = 0; i < 6; ++i) EXPECT_LT(keys(i), 2u) << i;
  for (int i = 6; i < 12; ++i) EXPECT_GE(keys(i), 2u) << i;
}

TEST(StridedKeys, OccurrencesInIndexOrderAtFourThreads) {
  // Few distinct keys over 2^20 elements: every key recurs in every
  // thread's chunk, so numbering occurrences in thread arrival order would
  // show. The rewrites must equal the serial occurrence-rank reference.
  pk::initialize(4);
  const index_t n = index_t{1} << 20;
  pk::View<std::uint32_t, 1> keys("k", n);
  std::mt19937_64 rng(2718);
  const std::uint32_t values[4] = {7, 8, 9, 12};
  for (index_t i = 0; i < n; ++i) keys(i) = values[rng() % 4];
  const std::uint32_t min_k = 7, span = 12 - 7 + 1, tile_sz = 4;
  std::vector<std::uint32_t> occ(static_cast<std::size_t>(n));
  std::vector<std::uint32_t> seen(span, 0);
  for (index_t i = 0; i < n; ++i)
    occ[static_cast<std::size_t>(i)] = seen[keys(i) - min_k]++;
  const std::uint32_t max_mult = *std::max_element(seen.begin(), seen.end());

  const auto strided = vs::make_strided_keys(keys);
  const auto tiled = vs::make_tiled_strided_keys(keys, tile_sz);
  for (index_t i = 0; i < n; ++i) {
    const std::uint32_t id = keys(i) - min_k;
    const std::uint32_t o = occ[static_cast<std::size_t>(i)];
    ASSERT_EQ(strided(i), id + o * span) << "element " << i;
    ASSERT_EQ(tiled(i),
              keys(i) / tile_sz * (tile_sz * max_mult) + o * tile_sz + id)
        << "element " << i;
  }
  pk::finalize();
}

TEST(RandomShuffle, DeterministicPermutation) {
  auto k1 = iota_values(500);
  auto v1 = iota_values(500);
  auto k2 = iota_values(500);
  auto v2 = iota_values(500);
  vs::random_shuffle(k1, v1, 99);
  vs::random_shuffle(k2, v2, 99);
  for (index_t i = 0; i < 500; ++i) {
    EXPECT_EQ(k1(i), k2(i));
    EXPECT_EQ(k1(i), v1(i));  // pairs stay together
  }
  auto sorted = iota_values(500);
  EXPECT_TRUE(vs::is_permutation_of(k1, sorted));
  // A different seed gives a different order.
  auto k3 = iota_values(500);
  auto v3 = iota_values(500);
  vs::random_shuffle(k3, v3, 100);
  bool any_diff = false;
  for (index_t i = 0; i < 500; ++i) any_diff |= (k3(i) != k1(i));
  EXPECT_TRUE(any_diff);
}

TEST(OrderChecks, NegativeCases) {
  // {0,0,1,2} = standard sorted, not strided (key 1's first occurrence
  // falls in run 1, but it should be in run 0).
  pk::View<std::uint32_t, 1> bad("b", 4);
  bad(0) = 0;
  bad(1) = 0;
  bad(2) = 1;
  bad(3) = 2;
  EXPECT_TRUE(vs::is_sorted_ascending(bad));
  EXPECT_FALSE(vs::is_strided_order(bad));

  // A standard-sorted repeated-key array is never strided.
  pk::View<std::uint32_t, 1> rep("r", 12);
  for (int i = 0; i < 12; ++i) rep(i) = static_cast<std::uint32_t>(i / 3);
  EXPECT_TRUE(vs::is_sorted_ascending(rep));
  EXPECT_FALSE(vs::is_strided_order(rep));

  // The canonical strided output IS strided.
  const std::uint32_t good_v[8] = {0, 1, 2, 0, 1, 2, 0, 2};
  pk::View<std::uint32_t, 1> good("g", 8);
  for (int i = 0; i < 8; ++i) good(i) = good_v[i];
  EXPECT_TRUE(vs::is_strided_order(good));

  pk::View<std::uint32_t, 1> notsorted("n", 3);
  notsorted(0) = 2;
  notsorted(1) = 1;
  notsorted(2) = 3;
  EXPECT_FALSE(vs::is_sorted_ascending(notsorted));
}

TEST(SortDispatch, SortPairsAllOrders) {
  for (auto order :
       {vs::SortOrder::Random, vs::SortOrder::Standard,
        vs::SortOrder::Strided, vs::SortOrder::TiledStrided}) {
    auto keys = random_keys(512, 15, 5);
    auto vals = iota_values(512);
    pk::View<std::uint32_t, 1> orig("o", 512);
    pk::deep_copy(orig, keys);
    vs::sort_pairs(order, keys, vals, 4u);
    EXPECT_TRUE(vs::is_permutation_of(keys, orig))
        << vs::to_string(order);
  }
}

TEST(KeyMinMax, FindsBounds) {
  auto keys = random_keys(1000, 5000, 17);
  keys(500) = 9999;
  keys(501) = 0;
  const auto mm = vs::key_minmax(keys);
  EXPECT_EQ(mm.min_val, 0u);
  EXPECT_EQ(mm.max_val, 9999u);
}

TEST(RadixSort, InPlacePermutationMatchesBuffered) {
  std::mt19937_64 rng(5150);
  for (int trial = 0; trial < 20; ++trial) {
    const index_t n = 1 + static_cast<index_t>(rng() % 500);
    // Random permutation.
    std::vector<index_t> p(static_cast<std::size_t>(n));
    std::iota(p.begin(), p.end(), index_t{0});
    std::shuffle(p.begin(), p.end(), rng);
    pk::View<index_t, 1> perm("perm", n);
    for (index_t i = 0; i < n; ++i) perm(i) = p[static_cast<std::size_t>(i)];

    pk::View<double, 1> a("a", n), b("b", n), ref("ref", n);
    for (index_t i = 0; i < n; ++i) a(i) = b(i) = std::sqrt(1.0 + i);
    vs::apply_permutation(perm, a, ref);
    vs::apply_permutation_in_place(perm, b);
    for (index_t i = 0; i < n; ++i) EXPECT_EQ(b(i), ref(i)) << "n=" << n;
  }
}

TEST(RadixSort, InPlaceIdentityAndSwap) {
  pk::View<index_t, 1> id("id", 4);
  pk::View<double, 1> d("d", 4);
  for (index_t i = 0; i < 4; ++i) {
    id(i) = i;
    d(i) = static_cast<double>(i);
  }
  vs::apply_permutation_in_place(id, d);
  for (index_t i = 0; i < 4; ++i) EXPECT_EQ(d(i), i);
  // One transposition.
  id(0) = 3;
  id(3) = 0;
  vs::apply_permutation_in_place(id, d);
  EXPECT_EQ(d(0), 3.0);
  EXPECT_EQ(d(3), 0.0);
  EXPECT_EQ(d(1), 1.0);
}
