// Unit tests for the pk portability layer: Views/layouts, parallel
// dispatch on both backends, reducers, scans, atomics, hierarchical
// policies.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <thread>
#include <vector>

#include "pk/pk.hpp"

namespace pk = vpic::pk;
using pk::index_t;

namespace {

class PkEnv : public ::testing::Environment {
 public:
  void SetUp() override { pk::initialize(2); }
};
[[maybe_unused]] const auto* const env =
    ::testing::AddGlobalTestEnvironment(new PkEnv);

}  // namespace

TEST(View, ExtentsAndSize) {
  pk::View<float, 3> v("v", 4, 5, 6);
  EXPECT_EQ(v.extent(0), 4);
  EXPECT_EQ(v.extent(1), 5);
  EXPECT_EQ(v.extent(2), 6);
  EXPECT_EQ(v.size(), 120);
  EXPECT_EQ(v.size_bytes(), 480);
  EXPECT_TRUE(v.allocated());
  EXPECT_EQ(v.label(), "v");
}

TEST(View, ZeroInitialized) {
  pk::View<double, 1> v("v", 16);
  for (index_t i = 0; i < 16; ++i) EXPECT_EQ(v(i), 0.0);
}

TEST(View, LayoutRightStrides) {
  pk::View<int, 3, pk::LayoutRight> v("v", 2, 3, 4);
  EXPECT_EQ(v.stride(2), 1);
  EXPECT_EQ(v.stride(1), 4);
  EXPECT_EQ(v.stride(0), 12);
  EXPECT_EQ(&v(0, 0, 1) - &v(0, 0, 0), 1);
}

TEST(View, LayoutLeftStrides) {
  pk::View<int, 3, pk::LayoutLeft> v("v", 2, 3, 4);
  EXPECT_EQ(v.stride(0), 1);
  EXPECT_EQ(v.stride(1), 2);
  EXPECT_EQ(v.stride(2), 6);
  EXPECT_EQ(&v(1, 0, 0) - &v(0, 0, 0), 1);
}

TEST(View, SharedOwnership) {
  pk::View<int, 1> a("a", 8);
  {
    pk::View<int, 1> b = a;
    EXPECT_EQ(a.use_count(), 2);
    b(3) = 42;
  }
  EXPECT_EQ(a.use_count(), 1);
  EXPECT_EQ(a(3), 42);
}

TEST(View, UnmanagedWrap) {
  std::vector<float> storage(10, 1.5f);
  pk::View<float, 1> v(storage.data(), 10);
  EXPECT_EQ(v(4), 1.5f);
  v(4) = 2.5f;
  EXPECT_EQ(storage[4], 2.5f);
}

TEST(View, DeepCopySameLayout) {
  pk::View<double, 2> a("a", 3, 4), b("b", 3, 4);
  for (index_t i = 0; i < 3; ++i)
    for (index_t j = 0; j < 4; ++j) a(i, j) = static_cast<double>(i * 10 + j);
  pk::deep_copy(b, a);
  EXPECT_EQ(b(2, 3), 23.0);
}

TEST(View, DeepCopyTransposingLayout) {
  pk::View<int, 2, pk::LayoutRight> a("a", 3, 4);
  pk::View<int, 2, pk::LayoutLeft> b("b", 3, 4);
  for (index_t i = 0; i < 3; ++i)
    for (index_t j = 0; j < 4; ++j) a(i, j) = static_cast<int>(i * 10 + j);
  pk::deep_copy(b, a);
  for (index_t i = 0; i < 3; ++i)
    for (index_t j = 0; j < 4; ++j) EXPECT_EQ(b(i, j), a(i, j));
}

TEST(View, FillValue) {
  pk::View<float, 1> v("v", 100);
  pk::deep_copy(v, 3.5f);
  EXPECT_EQ(v(0), 3.5f);
  EXPECT_EQ(v(99), 3.5f);
}

TEST(View, MirrorCopy) {
  pk::View<int, 2> a("a", 2, 2);
  a(1, 1) = 7;
  auto m = pk::create_mirror_copy(a);
  EXPECT_EQ(m(1, 1), 7);
  EXPECT_NE(m.data(), a.data());
}

// ---------------------------------------------------------------------

template <class Space>
struct SpaceName;
template <>
struct SpaceName<pk::Serial> {
  static constexpr const char* value = "Serial";
};
template <>
struct SpaceName<pk::OpenMP> {
  static constexpr const char* value = "OpenMP";
};

template <class Space>
class ParallelTest : public ::testing::Test {};

using Spaces = ::testing::Types<pk::Serial, pk::OpenMP>;
TYPED_TEST_SUITE(ParallelTest, Spaces);

TYPED_TEST(ParallelTest, ForCoversRange) {
  using Space = TypeParam;
  pk::View<int, 1> v("v", 1000);
  pk::parallel_for(pk::RangePolicy<Space>(100, 900),
                   [&](index_t i) { v(i) = 1; });
  int sum = 0;
  for (index_t i = 0; i < 1000; ++i) sum += v(i);
  EXPECT_EQ(sum, 800);
  EXPECT_EQ(v(99), 0);
  EXPECT_EQ(v(900), 0);
}

TYPED_TEST(ParallelTest, ReduceSum) {
  using Space = TypeParam;
  double sum = 0;
  pk::parallel_reduce(
      pk::RangePolicy<Space>(10000),
      [](index_t i, double& acc) { acc += static_cast<double>(i); }, sum);
  EXPECT_DOUBLE_EQ(sum, 10000.0 * 9999.0 / 2.0);
}

TYPED_TEST(ParallelTest, ReduceMinMax) {
  using Space = TypeParam;
  pk::View<int, 1> v("v", 257);
  for (index_t i = 0; i < 257; ++i)
    v(i) = static_cast<int>((i * 7919) % 1000) - 500;
  pk::MinMaxValue<int> mm{};
  pk::parallel_reduce<pk::MinMax<int>>(
      pk::RangePolicy<Space>(257),
      [&](index_t i, pk::MinMaxValue<int>& acc) {
        acc.min_val = std::min(acc.min_val, v(i));
        acc.max_val = std::max(acc.max_val, v(i));
      },
      mm);
  int ref_min = v(0), ref_max = v(0);
  for (index_t i = 0; i < 257; ++i) {
    ref_min = std::min(ref_min, v(i));
    ref_max = std::max(ref_max, v(i));
  }
  EXPECT_EQ(mm.min_val, ref_min);
  EXPECT_EQ(mm.max_val, ref_max);
}

TYPED_TEST(ParallelTest, ScanExclusive) {
  using Space = TypeParam;
  const index_t n = 1000;
  pk::View<long, 1> in("in", n), out("out", n);
  for (index_t i = 0; i < n; ++i) in(i) = i % 7;
  long total = 0;
  pk::parallel_scan(
      pk::RangePolicy<Space>(n),
      [&](index_t i, long& partial, bool final_pass) {
        if (final_pass) out(i) = partial;
        partial += in(i);
      },
      total);
  long ref = 0;
  for (index_t i = 0; i < n; ++i) {
    EXPECT_EQ(out(i), ref) << "at " << i;
    ref += in(i);
  }
  EXPECT_EQ(total, ref);
}

TYPED_TEST(ParallelTest, MDRange2) {
  using Space = TypeParam;
  pk::View<int, 2> v("v", 8, 9);
  pk::parallel_for(pk::MDRangePolicy2<Space>(0, 8, 0, 9),
                   [&](index_t i, index_t j) {
                     v(i, j) = static_cast<int>(i * 100 + j);
                   });
  EXPECT_EQ(v(7, 8), 708);
}

TYPED_TEST(ParallelTest, TeamPolicyLeague) {
  using Space = TypeParam;
  const index_t league = 37;
  pk::View<int, 1> seen("seen", league);
  pk::parallel_for(pk::TeamPolicy<Space>(league, 1),
                   [&](const pk::TeamMember& tm) {
                     EXPECT_EQ(tm.league_size(), league);
                     EXPECT_EQ(tm.team_size(), 1);
                     seen(tm.league_rank()) += 1;
                   });
  for (index_t i = 0; i < league; ++i) EXPECT_EQ(seen(i), 1);
}

TEST(TeamNested, ThreadAndVectorRanges) {
  pk::View<int, 1> v("v", 64);
  pk::parallel_for(pk::TeamPolicy<>(4, 1), [&](const pk::TeamMember& tm) {
    pk::parallel_for(pk::TeamThreadRange(tm, 4), [&](index_t t) {
      pk::parallel_for(pk::ThreadVectorRange(tm, 4), [&](index_t l) {
        v(tm.league_rank() * 16 + t * 4 + l) = 1;
      });
    });
  });
  int sum = 0;
  for (index_t i = 0; i < 64; ++i) sum += v(i);
  EXPECT_EQ(sum, 64);
}

TEST(Atomics, FetchAddInt) {
  int counter = 0;
  pk::parallel_for(10000, [&](index_t) { pk::atomic_inc(&counter); });
  EXPECT_EQ(counter, 10000);
}

TEST(Atomics, FetchAddFloatCAS) {
  float sum = 0;
  pk::parallel_for(4096, [&](index_t) { pk::atomic_add(&sum, 0.5f); });
  EXPECT_FLOAT_EQ(sum, 2048.0f);
}

TEST(Atomics, FetchAddReturnsOld) {
  std::int64_t x = 5;
  const auto old = pk::atomic_fetch_add(&x, std::int64_t{3});
  EXPECT_EQ(old, 5);
  EXPECT_EQ(x, 8);
}

TEST(Atomics, MinMax) {
  int lo = 100, hi = -100;
  pk::parallel_for(1000, [&](index_t i) {
    pk::atomic_fetch_min(&lo, static_cast<int>(i % 313));
    pk::atomic_fetch_max(&hi, static_cast<int>(i % 313));
  });
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 312);
}

TEST(Atomics, CompareExchange) {
  int x = 1;
  int expected = 1;
  EXPECT_TRUE(pk::atomic_compare_exchange(&x, expected, 2));
  EXPECT_EQ(x, 2);
  expected = 1;
  EXPECT_FALSE(pk::atomic_compare_exchange(&x, expected, 3));
  EXPECT_EQ(expected, 2);
}

TEST(Reducers, Identities) {
  EXPECT_EQ(pk::Sum<int>::identity(), 0);
  EXPECT_EQ(pk::Prod<int>::identity(), 1);
  EXPECT_EQ(pk::Min<float>::identity(), std::numeric_limits<float>::max());
  EXPECT_EQ(pk::Max<float>::identity(),
            std::numeric_limits<float>::lowest());
}

TEST(Timer, MeasuresElapsed) {
  pk::Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GT(t.seconds(), 0.0);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

// Property-style sweep: parallel_for + reduce agree with serial reference
// over many sizes, including empty and non-divisible ones.
class RangeSizes : public ::testing::TestWithParam<index_t> {};

TEST_P(RangeSizes, SumMatchesSerial) {
  const index_t n = GetParam();
  double par = 0;
  pk::parallel_reduce(
      pk::RangePolicy<pk::OpenMP>(n),
      [](index_t i, double& acc) { acc += std::sqrt(static_cast<double>(i)); },
      par);
  double ser = 0;
  for (index_t i = 0; i < n; ++i) ser += std::sqrt(static_cast<double>(i));
  EXPECT_NEAR(par, ser, 1e-9 * std::max(1.0, ser));
}

INSTANTIATE_TEST_SUITE_P(Sizes, RangeSizes,
                         ::testing::Values(0, 1, 2, 3, 7, 64, 65, 1000,
                                           4096, 10007));

TYPED_TEST(ParallelTest, MDRange3) {
  using Space = TypeParam;
  pk::View<int, 3> v("v", 4, 5, 6);
  pk::parallel_for(pk::MDRangePolicy3<Space>(0, 4, 0, 5, 0, 6),
                   [&](index_t i, index_t j, index_t k) {
                     v(i, j, k) = static_cast<int>(i * 100 + j * 10 + k);
                   });
  EXPECT_EQ(v(3, 4, 5), 345);
  EXPECT_EQ(v(0, 0, 0), 0);
  long sum = 0;
  for (index_t i = 0; i < v.size(); ++i) sum += v.flat(i);
  long ref = 0;
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 5; ++j)
      for (int k = 0; k < 6; ++k) ref += i * 100 + j * 10 + k;
  EXPECT_EQ(sum, ref);
}

TEST(ScopeGuard, InitializesAndReinitializes) {
  {
    pk::ScopeGuard guard(2);
    pk::View<int, 1> v("v", 10);
    pk::parallel_for(10, [&](index_t i) { v(i) = 1; });
    int sum = 0;
    for (index_t i = 0; i < 10; ++i) sum += v(i);
    EXPECT_EQ(sum, 10);
  }
  // Guard destroyed: re-initialization must work.
  pk::initialize(2);
}

#if PK_HAVE_OPENMP
TEST(Initialize, BindsKernelTeamsOnEveryThread) {
  // OpenMP keeps omp_set_num_threads per thread; pk::initialize binds the
  // count for kernels launched from any thread (farm workers, ranks).
  pk::initialize(3);
  int team = 0, reported = 0;
  std::thread other([&] {
    reported = pk::concurrency();
    pk::parallel_reduce<pk::Max<int>>(
        pk::RangePolicy<>(64),
        [](index_t, int& acc) { acc = std::max(acc, omp_get_num_threads()); },
        team);
  });
  other.join();
  EXPECT_EQ(reported, 3);
  EXPECT_EQ(team, 3);
  pk::initialize(2);
}
#endif

TEST(Subview, RowOfLayoutRight) {
  pk::View<double, 2, pk::LayoutRight> m("m", 4, 6);
  for (index_t i = 0; i < 4; ++i)
    for (index_t j = 0; j < 6; ++j) m(i, j) = static_cast<double>(i * 10 + j);
  auto row = pk::subview(m, 2, pk::ALL);
  ASSERT_EQ(row.extent(0), 6);
  for (index_t j = 0; j < 6; ++j) EXPECT_EQ(row(j), 20.0 + j);
  row(3) = -1.0;  // writes through to the parent
  EXPECT_EQ(m(2, 3), -1.0);
}

TEST(Subview, ColumnOfLayoutLeft) {
  pk::View<int, 2, pk::LayoutLeft> m("m", 5, 3);
  for (index_t i = 0; i < 5; ++i)
    for (index_t j = 0; j < 3; ++j) m(i, j) = static_cast<int>(i * 10 + j);
  auto col = pk::subview(m, pk::ALL, 1);
  ASSERT_EQ(col.extent(0), 5);
  for (index_t i = 0; i < 5; ++i) EXPECT_EQ(col(i), i * 10 + 1);
}

TEST(Subview, Rank3InnerSlice) {
  pk::View<float, 3> v("v", 2, 3, 4);
  v(1, 2, 3) = 7.0f;
  auto s = pk::subview(v, 1, 2, pk::ALL);
  EXPECT_EQ(s.extent(0), 4);
  EXPECT_EQ(s(3), 7.0f);
}

TEST(Subview, KeepsParentAlive) {
  pk::View<int, 1, pk::LayoutRight> slice;
  {
    pk::View<int, 2, pk::LayoutRight> m("m", 3, 3);
    m(1, 1) = 42;
    slice = pk::subview(m, 1, pk::ALL);
    EXPECT_EQ(m.use_count(), 2);
  }
  // The parent went out of scope; the slice's shared ownership keeps the
  // allocation valid.
  EXPECT_EQ(slice(1), 42);
}

TEST(ScatterView, AtomicStrategyCorrect) {
  pk::View<double, 1> target("t", 64);
  pk::ScatterView<double> sv(target, pk::ScatterStrategy::Atomic);
  EXPECT_EQ(sv.replica_count(), 0u);
  pk::parallel_for(64 * 100, [&](index_t i) {
    sv.access().add(i % 64, 1.0);
  });
  sv.contribute();  // no-op for atomic
  for (index_t i = 0; i < 64; ++i) EXPECT_DOUBLE_EQ(target(i), 100.0);
}

TEST(ScatterView, DuplicatedStrategyCorrect) {
  pk::View<double, 1> target("t", 64);
  pk::ScatterView<double> sv(target, pk::ScatterStrategy::Duplicated);
  pk::parallel_for(64 * 100, [&](index_t i) {
    sv.access().add(i % 64, 0.5);
  });
  sv.contribute();
  for (index_t i = 0; i < 64; ++i) EXPECT_DOUBLE_EQ(target(i), 50.0);
}

TEST(ScatterView, ReusableAcrossSteps) {
  pk::View<double, 1> target("t", 8);
  pk::ScatterView<double> sv(target, pk::ScatterStrategy::Duplicated);
  for (int step = 0; step < 3; ++step) {
    pk::parallel_for(8, [&](index_t i) { sv.access().add(i, 1.0); });
    sv.contribute();
  }
  for (index_t i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(target(i), 3.0);
}

TEST(ScatterView, StrategiesAgree) {
  pk::View<double, 1> a("a", 128), b("b", 128);
  pk::ScatterView<double> sa(a, pk::ScatterStrategy::Atomic);
  pk::ScatterView<double> sb(b, pk::ScatterStrategy::Duplicated);
  auto work = [](auto& sv) {
    pk::parallel_for(10000, [&](index_t i) {
      sv.access().add((i * 13) % 128, 0.25);
    });
    sv.contribute();
  };
  work(sa);
  work(sb);
  for (index_t i = 0; i < 128; ++i) EXPECT_DOUBLE_EQ(a(i), b(i));
}
