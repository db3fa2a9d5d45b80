// Tests for the zero-allocation particle-sort pipeline: counting sort
// correctness/stability against std::stable_sort ground truth across key
// distributions, backend dispatch equivalence, ping-pong sort_particles
// invariants (particle multiset and kinetic energy preserved bit-for-bit),
// the steady-state zero-allocation property via pk::view_alloc_count, and
// the one sort scratch every species of a Simulation sorts through.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <numeric>
#include <random>
#include <vector>

#include "core/decks.hpp"
#include "core/particle.hpp"
#include "core/simulation.hpp"
#include "core/sort_particles.hpp"
#include "pk/pk.hpp"
#include "sort/counting.hpp"
#include "sort/order_checks.hpp"
#include "sort/radix.hpp"
#include "sort/sorters.hpp"

namespace pk = vpic::pk;
namespace vs = vpic::sort;
namespace core = vpic::core;
using pk::index_t;

namespace {

enum class KeyDist { Random, Ascending, SingleCell, MaxBound };

pk::View<std::uint32_t, 1> make_keys(index_t n, std::uint32_t bound,
                                     KeyDist dist, std::uint64_t seed) {
  pk::View<std::uint32_t, 1> keys("keys", n);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint32_t> d(0, bound - 1);
  for (index_t i = 0; i < n; ++i) {
    switch (dist) {
      case KeyDist::Random:
        keys(i) = d(rng);
        break;
      case KeyDist::Ascending:
        keys(i) = static_cast<std::uint32_t>(
            (static_cast<std::uint64_t>(i) * bound) /
            static_cast<std::uint64_t>(n));
        break;
      case KeyDist::SingleCell:
        keys(i) = bound / 2;
        break;
      case KeyDist::MaxBound:
        keys(i) = bound - 1;
        break;
    }
  }
  return keys;
}

core::Species make_species(index_t n, index_t nv, std::uint64_t seed,
                           core::ParticleLayout layout =
                               core::ParticleLayout::AoS) {
  core::Species sp("test", -1.0f, 1.0f, n, layout);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int32_t> cell(
      0, static_cast<std::int32_t>(nv - 1));
  std::normal_distribution<float> mom(0.0f, 0.3f);
  for (index_t i = 0; i < n; ++i) {
    core::Particle p{};
    p.dx = mom(rng);
    p.dy = mom(rng);
    p.dz = mom(rng);
    p.i = cell(rng);
    p.ux = mom(rng);
    p.uy = mom(rng);
    p.uz = mom(rng);
    p.w = 1.0f;
    sp.p.set(i, p);
  }
  sp.np = n;
  return sp;
}

/// Binds the kernel team to `n` threads for the enclosing scope, then
/// restores the count the suite ran at.
class KernelThreads {
 public:
  explicit KernelThreads(int n) : before_(pk::concurrency()) {
    pk::initialize(n);
  }
  ~KernelThreads() { pk::initialize(before_); }
  KernelThreads(const KernelThreads&) = delete;
  KernelThreads& operator=(const KernelThreads&) = delete;

 private:
  int before_;
};

/// Byte image of a particle record, for exact multiset comparison.
using ParticleBytes = std::array<unsigned char, sizeof(core::Particle)>;

std::vector<ParticleBytes> particle_multiset(const core::Species& sp) {
  std::vector<ParticleBytes> out(static_cast<std::size_t>(sp.np));
  for (index_t i = 0; i < sp.np; ++i) {
    const core::Particle p = sp.p.get(i);
    std::memcpy(out[static_cast<std::size_t>(i)].data(), &p,
                sizeof(core::Particle));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Order-independent kinetic energy: per-particle terms, sorted, summed —
/// bitwise reproducible across any permutation of the particle array.
double deterministic_ke(const core::Species& sp) {
  std::vector<double> terms(static_cast<std::size_t>(sp.np));
  for (index_t i = 0; i < sp.np; ++i) {
    const core::Particle p = sp.p.get(i);
    const double u2 = static_cast<double>(p.ux) * p.ux +
                      static_cast<double>(p.uy) * p.uy +
                      static_cast<double>(p.uz) * p.uz;
    terms[static_cast<std::size_t>(i)] =
        static_cast<double>(p.w) * sp.m * (std::sqrt(1.0 + u2) - 1.0);
  }
  std::sort(terms.begin(), terms.end());
  double total = 0;
  for (double t : terms) total += t;
  return total;
}

}  // namespace

// ----------------------------------------------------------------------
// Counting sort vs std::stable_sort ground truth.
// ----------------------------------------------------------------------

using CountingParam = std::tuple<index_t, std::uint32_t, KeyDist>;

class CountingSortProperty : public ::testing::TestWithParam<CountingParam> {};

std::string counting_param_name(
    const ::testing::TestParamInfo<CountingParam>& info) {
  const char* d[] = {"random", "ascending", "single", "maxbound"};
  return "n" + std::to_string(std::get<0>(info.param)) + "_b" +
         std::to_string(std::get<1>(info.param)) + "_" +
         d[static_cast<int>(std::get<2>(info.param))];
}

TEST_P(CountingSortProperty, StablePermutationMatchesStableSort) {
  const auto [n, bound, dist] = GetParam();
  auto keys = make_keys(n, bound, dist, 17 * n + bound);
  pk::View<std::uint32_t, 1> vals("vals", n);
  for (index_t i = 0; i < n; ++i) vals(i) = static_cast<std::uint32_t>(i);

  // Ground truth: stable sort of (key, original index) pairs by key.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ref(
      static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    ref[static_cast<std::size_t>(i)] = {keys(i),
                                        static_cast<std::uint32_t>(i)};
  std::stable_sort(ref.begin(), ref.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  vs::counting_sort_by_key(keys, vals, static_cast<index_t>(bound));
  for (index_t i = 0; i < n; ++i) {
    EXPECT_EQ(keys(i), ref[static_cast<std::size_t>(i)].first) << i;
    EXPECT_EQ(vals(i), ref[static_cast<std::size_t>(i)].second) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, CountingSortProperty,
    ::testing::Combine(::testing::Values(index_t{100}, index_t{4096},
                                         index_t{30000}),
                       ::testing::Values(std::uint32_t{16},
                                         std::uint32_t{5832},  // 18^3 = nv
                                         std::uint32_t{65536}),
                       ::testing::Values(KeyDist::Random, KeyDist::Ascending,
                                         KeyDist::SingleCell,
                                         KeyDist::MaxBound)),
    counting_param_name);

TEST(CountingSort, DispatchMatchesForcedRadix) {
  const index_t n = 20000;
  auto k1 = make_keys(n, 4096, KeyDist::Random, 5);
  pk::View<std::uint32_t, 1> v1("v1", n), k2("k2", n), v2("v2", n);
  for (index_t i = 0; i < n; ++i) v1(i) = static_cast<std::uint32_t>(i);
  pk::deep_copy(k2, k1);
  pk::deep_copy(v2, v1);
  vs::sort_by_key(k1, v1);        // dispatcher (counting for this bound)
  vs::radix_sort_by_key(k2, v2);  // forced radix
  for (index_t i = 0; i < n; ++i) {
    ASSERT_EQ(k1(i), k2(i)) << i;
    ASSERT_EQ(v1(i), v2(i)) << i;
  }
}

TEST(CountingSort, WorkspaceReusesHistogram) {
  vs::SortWorkspace ws;
  const index_t n = 10000;
  for (int round = 0; round < 3; ++round) {
    auto keys = make_keys(n, 1024, KeyDist::Random, 100 + round);
    pk::View<std::uint32_t, 1> vals("v", n);
    vs::counting_sort_by_key(keys, vals, 1024, &ws);
    EXPECT_TRUE(vs::is_sorted_ascending(keys));
  }
  EXPECT_EQ(ws.grow_count, 1);  // histogram sized once, reused twice
}

TEST(CountingSort, EmptyAndSingle) {
  pk::View<std::uint32_t, 1> k0("k", 0), v0("v", 0);
  vs::counting_sort_by_key(k0, v0, 16);  // must not crash
  pk::View<std::uint32_t, 1> k1("k", 1), v1("v", 1);
  k1(0) = 7;
  vs::counting_sort_by_key(k1, v1, 16);
  EXPECT_EQ(k1(0), 7u);
}

// ----------------------------------------------------------------------
// Ping-pong sort_particles invariants — the whole pipeline section runs
// once per particle layout (the gather/scatter paths differ: AoS moves
// records directly, SoA goes through a permutation + accessor pass).
// ----------------------------------------------------------------------

class SortPipelineLayouts : public ::testing::TestWithParam<int> {
 protected:
  core::ParticleLayout layout() const {
    return core::kAllParticleLayouts[GetParam()];
  }
};

std::string layout_param_name(const ::testing::TestParamInfo<int>& info) {
  return core::to_string(core::kAllParticleLayouts[info.param]);
}

INSTANTIATE_TEST_SUITE_P(Layouts, SortPipelineLayouts,
                         ::testing::Range(0, core::kNumParticleLayouts),
                         layout_param_name);

TEST_P(SortPipelineLayouts, PingPongPreservesParticleMultisetAllOrders) {
  const index_t n = 8192, nv = 512;
  for (auto order : {vs::SortOrder::Random, vs::SortOrder::Standard,
                     vs::SortOrder::Strided, vs::SortOrder::TiledStrided}) {
    core::Species sp = make_species(n, nv, 42, layout());
    const auto before = particle_multiset(sp);
    const double ke_before = deterministic_ke(sp);
    core::sort_particles(sp, order, 8, 99, nv);
    EXPECT_EQ(particle_multiset(sp), before) << vs::to_string(order);
    // Identical records => identical sorted terms => bit-for-bit equal sum.
    EXPECT_EQ(deterministic_ke(sp), ke_before) << vs::to_string(order);
  }
}

TEST_P(SortPipelineLayouts, OrdersMatchTheirPredicates) {
  const index_t n = 8192, nv = 512;
  {
    core::Species sp = make_species(n, nv, 7, layout());
    core::sort_particles(sp, vs::SortOrder::Standard, 0, 0, nv);
    EXPECT_TRUE(vs::is_sorted_ascending(sp.cell_keys()));
  }
  {
    core::Species sp = make_species(n, nv, 7, layout());
    core::sort_particles(sp, vs::SortOrder::Strided, 0, 0, nv);
    EXPECT_TRUE(vs::is_strided_order(sp.cell_keys()));
  }
  {
    core::Species sp = make_species(n, nv, 7, layout());
    core::sort_particles(sp, vs::SortOrder::TiledStrided, 8, 0, nv);
    // Tiled-strided on the raw cell keys: each tile's keys are strictly
    // increasing within a chunk — verified via the composite predicate on
    // the rewritten keys in test_sort.cpp; here just check permutation.
    EXPECT_TRUE(vs::is_permutation_of(
        sp.cell_keys(), make_species(n, nv, 7, layout()).cell_keys()));
  }
}

TEST_P(SortPipelineLayouts, StandardSortIsStableForEqualKeys) {
  // Particles in the same cell must keep their relative order (both the
  // direct counting scatter and the permutation+gather path are stable),
  // at one thread and across four threads' histogram rows.
  // Tag particles via ux = original index.
  const index_t n = 4096, nv = 64;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const KernelThreads team(threads);
    core::Species sp = make_species(n, nv, 3, layout());
    for (index_t i = 0; i < n; ++i) {
      core::Particle p = sp.p.get(i);
      p.ux = static_cast<float>(i);
      sp.p.set(i, p);
    }
    std::vector<std::pair<std::int32_t, float>> ref(
        static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) {
      const core::Particle p = sp.p.get(i);
      ref[static_cast<std::size_t>(i)] = {p.i, p.ux};
    }
    std::stable_sort(ref.begin(), ref.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    core::sort_particles(sp, vs::SortOrder::Standard, 0, 0, nv);
    for (index_t i = 0; i < n; ++i) {
      const core::Particle p = sp.p.get(i);
      ASSERT_EQ(p.i, ref[static_cast<std::size_t>(i)].first) << i;
      ASSERT_EQ(p.ux, ref[static_cast<std::size_t>(i)].second) << i;
    }
  }
}

TEST_P(SortPipelineLayouts, RadixFallbackPathMatchesCounting) {
  // Force the radix fallback by omitting the key bound on a key range the
  // counting predicate rejects for tiny n (huge sparse keys), and check
  // the result is still sorted. n small so the test stays fast.
  const index_t n = 3000;
  core::Species sp = make_species(n, 1, 11, layout());
  std::mt19937_64 rng(13);
  for (index_t i = 0; i < n; ++i)
    sp.p.set_cell(i, static_cast<std::int32_t>(rng() % (1u << 30)));
  core::sort_particles(sp, vs::SortOrder::Standard, 0, 0, 0);
  EXPECT_TRUE(vs::is_sorted_ascending(sp.cell_keys()));
}

// ----------------------------------------------------------------------
// Zero allocations in steady state.
// ----------------------------------------------------------------------

TEST(SortPipeline, SteadyStateZeroViewAllocations) {
  const index_t n = 32768, nv = 4096;
  core::Species sp = make_species(n, nv, 123);

  // Warm-up: one sort per order sizes every workspace buffer (the key
  // multiset is fixed, so rewritten-key bounds are identical each round).
  core::sort_particles(sp, vs::SortOrder::Random, 0, 1, nv);
  core::sort_particles(sp, vs::SortOrder::Standard, 0, 2, nv);
  core::sort_particles(sp, vs::SortOrder::Strided, 0, 3, nv);
  core::sort_particles(sp, vs::SortOrder::TiledStrided, 8, 4, nv);

  const std::int64_t allocs0 = pk::view_alloc_count().load();
  const std::int64_t grows0 = sp.sort_ws().grow_count;
  const std::size_t hist_cap0 = sp.sort_ws().histogram.capacity();

  for (int round = 0; round < 5; ++round) {
    core::sort_particles(sp, vs::SortOrder::Random, 0, 100 + round, nv);
    core::sort_particles(sp, vs::SortOrder::Standard, 0, 0, nv);
    core::sort_particles(sp, vs::SortOrder::Strided, 0, 0, nv);
    core::sort_particles(sp, vs::SortOrder::TiledStrided, 8, 0, nv);
  }

  EXPECT_EQ(pk::view_alloc_count().load() - allocs0, 0)
      << "steady-state sort_particles allocated a pk::View";
  EXPECT_EQ(sp.sort_ws().grow_count, grows0);
  EXPECT_EQ(sp.sort_ws().histogram.capacity(), hist_cap0);
}

TEST(SortPipeline, StandardAosSortAllocatesNoPerParticleBuffers) {
  // The AoS Standard sort reads each voxel from the record it moves: no
  // key array, no permutation, at one thread or four.
  const index_t n = 32768, nv = 4096;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const KernelThreads team(threads);
    core::Species sp = make_species(n, nv, 321);
    for (int round = 0; round < 3; ++round) {
      core::sort_particles(sp, vs::SortOrder::Standard, 0, 0, nv);
      EXPECT_TRUE(vs::is_sorted_ascending(sp.cell_keys()));
    }
    EXPECT_EQ(sp.sort_ws().keys.size(), 0);
    EXPECT_EQ(sp.sort_ws().keys_alt.size(), 0);
    EXPECT_EQ(sp.sort_ws().perm.size(), 0);
    EXPECT_EQ(sp.sort_ws().perm_alt.size(), 0);
  }
}

TEST(SortPipeline, EachPathReservesOnlyTheBuffersItReads) {
  // Per-particle workspace entries held after one sort, per path
  // (docs/SORTING.md, "Workspace"): {keys, keys_alt, perm, perm_alt}.
  struct Case {
    const char* name;
    core::ParticleLayout layout;
    vs::SortOrder order;
    index_t key_bound;  // 0: the radix fallback for these sparse keys
    std::array<bool, 4> held;
  };
  const index_t n = 3000, nv = 64;
  const auto aos = core::ParticleLayout::AoS, soa = core::ParticleLayout::SoA;
  const Case cases[] = {
      {"soa standard", soa, vs::SortOrder::Standard, nv,
       {false, false, true, false}},
      {"aos strided", aos, vs::SortOrder::Strided, nv,
       {true, true, false, false}},
      {"aos tiled strided", aos, vs::SortOrder::TiledStrided, nv,
       {true, true, false, false}},
      {"soa strided", soa, vs::SortOrder::Strided, nv,
       {true, true, true, false}},
      {"aos random", aos, vs::SortOrder::Random, nv,
       {false, false, true, false}},
      {"aos radix", aos, vs::SortOrder::Standard, 0,
       {true, true, true, true}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    core::Species sp = make_species(n, nv, 5, c.layout);
    if (c.key_bound == 0) {
      std::mt19937_64 rng(13);
      for (index_t i = 0; i < n; ++i)
        sp.p.set_cell(i, static_cast<std::int32_t>(rng() % (1u << 30)));
    }
    core::sort_particles(sp, c.order, 8, 1, c.key_bound);
    const vs::SortWorkspace& ws = sp.sort_ws();
    const index_t sizes[] = {ws.keys.size(), ws.keys_alt.size(),
                             ws.perm.size(), ws.perm_alt.size()};
    for (int b = 0; b < 4; ++b)
      EXPECT_EQ(sizes[b], c.held[static_cast<std::size_t>(b)] ? n : 0)
          << "buffer " << b;
  }
}

TEST(SortPipeline, WorkspaceGrowsGeometricallyOnCapacityIncrease) {
  vs::SortWorkspace ws;
  ws.reserve_keys(1000);
  EXPECT_EQ(ws.grow_count, 1);
  ws.reserve_keys(900);  // within capacity: no growth
  EXPECT_EQ(ws.grow_count, 1);
  ws.reserve_keys(1100);  // grows to >= 1.5x
  EXPECT_EQ(ws.grow_count, 2);
  EXPECT_GE(ws.keys.size(), 1500);
  ws.reserve_keys(1500);  // covered by the geometric growth
  EXPECT_EQ(ws.grow_count, 2);
  // Each buffer grows on its own: the others stay unallocated.
  EXPECT_EQ(ws.keys_alt.size(), 0);
  EXPECT_EQ(ws.perm.size(), 0);
  EXPECT_EQ(ws.perm_alt.size(), 0);
  ws.reserve_perm(1000);
  EXPECT_EQ(ws.grow_count, 3);
  EXPECT_EQ(ws.perm.size(), 1000);
  ws.reserve_perm(1001);
  EXPECT_EQ(ws.grow_count, 4);
  EXPECT_GE(ws.perm.size(), 1500);
  EXPECT_EQ(ws.keys_alt.size(), 0);
}

TEST(SortPipeline, CellKeysIntoCallerView) {
  const index_t n = 1000, nv = 64;
  core::Species sp = make_species(n, nv, 9);
  pk::View<std::uint32_t, 1> out("out", n + 100);  // larger than np is fine
  sp.cell_keys(out);
  const auto ref = sp.cell_keys();
  for (index_t i = 0; i < n; ++i) EXPECT_EQ(out(i), ref(i)) << i;
}

// ----------------------------------------------------------------------
// One sort scratch per simulation: every species of a Simulation sorts
// through its one workspace and one spare per (capacity, layout).
// ----------------------------------------------------------------------

namespace {

/// Start of a store's particle buffer, whatever its layout.
const void* buffer_of(const core::ParticleStore& s) {
  return core::dispatch_layout(s, [](auto a) -> const void* {
    if constexpr (decltype(a)::layout == core::ParticleLayout::AoS)
      return a.p;
    else
      return a.base;
  });
}

/// The live records, byte for byte.
std::vector<ParticleBytes> record_bytes(const core::Species& sp) {
  std::vector<ParticleBytes> out(static_cast<std::size_t>(sp.np));
  for (index_t i = 0; i < sp.np; ++i) {
    const core::Particle p = sp.p.get(i);
    std::memcpy(out[static_cast<std::size_t>(i)].data(), &p, sizeof(p));
  }
  return out;
}

/// A standalone deep copy: own store, no scratch until its first sort.
core::Species standalone_copy(const core::Species& src) {
  core::Species out(src.name, src.q, src.m, src.capacity(), src.layout());
  core::copy_particles(out.p, src.p, src.np);
  out.np = src.np;
  return out;
}

/// A two-species Simulation of capacities `cap_a` and `cap_b`, each
/// filled with `np_a` / `np_b` random records over `nv` cells.
core::Simulation two_species_sim(core::ParticleLayout layout, index_t cap_a,
                                 index_t np_a, index_t cap_b, index_t np_b,
                                 index_t nv) {
  core::SimulationConfig cfg;
  cfg.layout = layout;
  core::Simulation sim(cfg);
  const index_t caps[] = {cap_a, cap_b}, nps[] = {np_a, np_b};
  for (int s = 0; s < 2; ++s) {
    const core::Species filled =
        make_species(nps[s], nv, 900 + static_cast<std::uint64_t>(s), layout);
    sim.add_species(s == 0 ? "a" : "b", -1.0f, 1.0f, caps[s]);
    core::Species& sp = sim.species(static_cast<std::size_t>(s));
    core::copy_particles(sp.p, filled.p, filled.np);
    sp.np = filled.np;
  }
  return sim;
}

}  // namespace

TEST(SharedSortScratch, TwoSpeciesDeckHoldsThreeBuffersAndOneWorkspace) {
  for (const core::ParticleLayout layout : core::kAllParticleLayouts) {
    SCOPED_TRACE(core::to_string(layout));
    core::decks::LpiParams prm;
    prm.nx = 16;
    prm.ny = 8;
    prm.nz = 8;
    prm.ppc = 4;
    prm.sort_interval = 5;
    prm.layout = layout;
    core::Simulation sim = core::decks::make_lpi(prm);
    ASSERT_EQ(sim.num_species(), 2u);
    sim.run(10);  // two sorts of each species

    core::Species& e = sim.species(0);
    core::Species& i = sim.species(1);
    ASSERT_NE(e.scratch, nullptr);
    EXPECT_EQ(e.scratch, i.scratch) << "species sort through one scratch";
    ASSERT_EQ(e.capacity(), i.capacity());
    const core::SortScratch& scr = *e.scratch;
    ASSERT_EQ(scr.spares.size(), 1u);
    const core::ParticleStore& spare = scr.spares.front();
    EXPECT_EQ(spare.size(), e.capacity());
    EXPECT_EQ(spare.layout(), layout);
    EXPECT_NE(buffer_of(e.p), buffer_of(i.p));
    EXPECT_NE(buffer_of(e.p), buffer_of(spare));
    EXPECT_NE(buffer_of(i.p), buffer_of(spare));

    // Ten more sort steps: nothing allocated, no workspace grown.
    sim.config().sort_interval = 1;
    const std::int64_t allocs0 = pk::view_alloc_count().load();
    const std::int64_t grows0 = scr.ws.grow_count;
    const std::size_t hist_cap0 = scr.ws.histogram.capacity();
    sim.run(10);
    EXPECT_EQ(pk::view_alloc_count().load() - allocs0, 0)
        << "a sort step allocated a pk::View";
    EXPECT_EQ(scr.ws.grow_count, grows0);
    EXPECT_EQ(scr.ws.histogram.capacity(), hist_cap0);
    EXPECT_EQ(scr.spares.size(), 1u);
    EXPECT_EQ(e.scratch, i.scratch);
  }
}

TEST(SharedSortScratch, EveryOrderMatchesAPrivateScratch) {
  // The same sorts through the simulation's shared scratch and through a
  // standalone copy's private one give the same records, byte for byte.
  // Each order runs twice per species, so the second round reorders into
  // the buffers the other species left behind.
  struct Case {
    const char* name;
    vs::SortOrder order;
    index_t key_bound;  // 0: the radix fallback on sparse keys
  };
  const index_t n = 6000, nv = 512;
  const Case cases[] = {
      {"standard", vs::SortOrder::Standard, nv},
      {"strided", vs::SortOrder::Strided, nv},
      {"tiled strided", vs::SortOrder::TiledStrided, nv},
      {"random", vs::SortOrder::Random, nv},
      {"radix fallback", vs::SortOrder::Standard, 0},
  };
  for (const core::ParticleLayout layout : core::kAllParticleLayouts) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(core::to_string(layout)) + " " + c.name);
      core::Simulation sim = two_species_sim(layout, n, n - 100, n, n - 7, nv);
      if (c.key_bound == 0) {
        std::mt19937_64 rng(17);
        for (std::size_t s = 0; s < 2; ++s)
          for (index_t i = 0; i < sim.species(s).np; ++i)
            sim.species(s).p.set_cell(
                i, static_cast<std::int32_t>(rng() % (1u << 30)));
      }
      core::Species alone[] = {standalone_copy(sim.species(0)),
                               standalone_copy(sim.species(1))};
      for (int round = 0; round < 2; ++round)
        for (std::size_t s = 0; s < 2; ++s) {
          const std::uint64_t seed = 31 + 2 * round + s;
          core::sort_particles(sim.species(s), c.order, 8, seed, c.key_bound);
          core::sort_particles(alone[s], c.order, 8, seed, c.key_bound);
        }
      EXPECT_NE(alone[0].scratch, sim.species(0).scratch);
      for (std::size_t s = 0; s < 2; ++s)
        EXPECT_EQ(record_bytes(sim.species(s)), record_bytes(alone[s]))
            << "species " << s;
    }
  }
}

TEST(SharedSortScratch, UnequalCapacitiesAllocateNothingAfterTheFirstRound) {
  // Capacities 2c and c in one simulation: one spare each, so neither
  // species ever takes a buffer of the other's capacity (the larger sorts
  // first, so a spare that merely fits would be taken), and sorting them
  // alternately allocates nothing after the first round.
  const index_t c = 4096, nv = 1024;
  for (const core::ParticleLayout layout : core::kAllParticleLayouts) {
    SCOPED_TRACE(core::to_string(layout));
    core::Simulation sim = two_species_sim(layout, 2 * c, c + 3, c, c - 5, nv);
    const auto round = [&] {
      for (std::size_t s = 0; s < 2; ++s)
        core::sort_particles(sim.species(s), vs::SortOrder::Standard, 0, 0,
                             nv);
    };
    round();
    const core::SortScratch& scr = *sim.species(0).scratch;
    const std::int64_t allocs0 = pk::view_alloc_count().load();
    const std::int64_t grows0 = scr.ws.grow_count;
    const std::size_t hist_cap0 = scr.ws.histogram.capacity();
    for (int r = 1; r < 10; ++r) {
      round();
      EXPECT_EQ(sim.species(0).capacity(), 2 * c) << "round " << r;
      EXPECT_EQ(sim.species(1).capacity(), c) << "round " << r;
    }
    EXPECT_EQ(pk::view_alloc_count().load() - allocs0, 0);
    EXPECT_EQ(scr.ws.grow_count, grows0);
    EXPECT_EQ(scr.ws.histogram.capacity(), hist_cap0);
    ASSERT_EQ(scr.spares.size(), 2u);
    EXPECT_EQ(scr.spares[0].size() + scr.spares[1].size(), 3 * c);
    for (std::size_t s = 0; s < 2; ++s)
      EXPECT_TRUE(vs::is_sorted_ascending(sim.species(s).cell_keys()));
  }
}
