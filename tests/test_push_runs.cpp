// Run-aware push pipeline tests (docs/PUSH.md): run segmentation, physics
// equivalence of the run-aware variants against the generic per-particle
// kernels on sorted / unsorted / adversarial particle orders, the
// run-aware launch's runs found during the push against an explicit run
// list, charge conservation through the fast path, the AutoDetect
// dispatch rule plus Species sortedness tracking, the Standard order kept
// every step, the Simulation-level plumbing, the exact-order push and the
// exit queue at any thread count, and the steady-state push allocating
// nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/core.hpp"
#include "sort/runs.hpp"

namespace core = vpic::core;
namespace pk = vpic::pk;
namespace vs = vpic::sort;
using pk::index_t;

namespace {

std::vector<vs::CellRun> runs_of(const std::vector<std::uint32_t>& keys) {
  std::vector<vs::CellRun> out;
  vs::segment_runs(
      static_cast<index_t>(keys.size()),
      [&keys](index_t i) { return keys[static_cast<std::size_t>(i)]; }, out);
  return out;
}

/// A small thermal plasma on a 6^3 grid; ppc 4 gives 864 particles.
core::Simulation make_sim(core::VectorStrategy strat, int ppc = 4,
                          std::uint64_t seed = 7) {
  core::SimulationConfig cfg;
  cfg.grid = core::Grid(6, 6, 6, 6, 6, 6, 0);
  cfg.grid.dt = core::Grid::courant_dt(1, 1, 1, 0.65f);
  cfg.strategy = strat;
  cfg.sort_interval = 0;
  cfg.seed = seed;
  core::Simulation sim(cfg);
  const auto s = sim.add_species("e", -1.0f, 1.0f,
                                 static_cast<index_t>(6 * 6 * 6 * ppc));
  sim.load_uniform_plasma(s, ppc, 0.25f, 0.08f, -0.05f, 0.1f);
  return sim;
}

/// Reorder sp's particles adversarially for the run-aware path: cell-sort,
/// then deal particles round-robin one per cell so adjacent slots almost
/// never share a cell (maximally short runs).
void adversarial_order(core::Species& sp, index_t key_bound) {
  core::sort_particles(sp, vs::SortOrder::Standard, 0, 1, key_bound);
  std::vector<vs::CellRun> runs;
  const auto& pp = sp.p;
  vs::segment_runs(
      sp.np, [&pp](index_t i) { return pp.cell(i); }, runs);
  std::vector<core::Particle> shuffled;
  shuffled.reserve(static_cast<std::size_t>(sp.np));
  std::vector<index_t> taken(runs.size(), 0);
  for (index_t round = 0; shuffled.size() <
                          static_cast<std::size_t>(sp.np);
       ++round)
    for (std::size_t r = 0; r < runs.size(); ++r)
      if (round < runs[r].count)
        shuffled.push_back(sp.p.get(runs[r].begin + round));
  for (index_t i = 0; i < sp.np; ++i)
    sp.p.set(i, shuffled[static_cast<std::size_t>(i)]);
  sp.mark_sorted(false);
}

struct PushOutcome {
  std::vector<core::Particle> particles;
  std::vector<float> acc;  // flattened accumulator slots
  core::PushPath path;
};

std::vector<float> flatten(const core::AccumulatorArray& acc) {
  std::vector<float> out;
  const auto& a = acc.a;
  for (index_t v = 0; v < a.size(); ++v)
    for (int c = 0; c < 4; ++c) {
      out.push_back(a(v).jx[c]);
      out.push_back(a(v).jy[c]);
      out.push_back(a(v).jz[c]);
    }
  return out;
}

std::vector<core::Particle> particles_of(const core::Species& sp) {
  std::vector<core::Particle> out(static_cast<std::size_t>(sp.np));
  std::copy_n(sp.p.data(), sp.np, out.data());
  return out;
}

/// The push alone (push_on over the whole species, no re-sort) from
/// `initial`, into a cleared accumulator.
PushOutcome push_once(core::Simulation& sim,
                      const std::vector<core::Particle>& initial,
                      core::VectorStrategy strat, core::PushPath path) {
  auto& sp = sim.species(0);
  std::copy_n(initial.data(), sp.np, sp.p.data());
  sim.interpolator().load(sim.fields());
  sim.accumulator().clear();
  PushOutcome out;
  out.path = core::push_on<pk::DefaultExecSpace>(
      sp, sim.interpolator(), sim.accumulator(), sim.grid(), strat, {}, path,
      0, sp.np);
  out.particles = particles_of(sp);
  out.acc = flatten(sim.accumulator());
  return out;
}

template <class T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// Reorder per the test's order index: 0 cell-sorted, 1 random,
/// 2 adversarial alternating cells.
void apply_order(core::Species& sp, int order, index_t key_bound) {
  switch (order) {
    case 0:
      core::sort_particles(sp, vs::SortOrder::Standard, 0, 1, key_bound);
      break;
    case 1:
      core::sort_particles(sp, vs::SortOrder::Random, 0, 99);
      break;
    case 2:
      adversarial_order(sp, key_bound);
      break;
  }
}

}  // namespace

// ----------------------------------------------------------------------
// Run segmentation.
// ----------------------------------------------------------------------

TEST(RunSegmentation, KnownSequence) {
  const auto runs = runs_of({3, 3, 3, 7, 7, 1});
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].cell, 3);
  EXPECT_EQ(runs[0].begin, 0);
  EXPECT_EQ(runs[0].count, 3);
  EXPECT_EQ(runs[1].cell, 7);
  EXPECT_EQ(runs[1].begin, 3);
  EXPECT_EQ(runs[1].count, 2);
  EXPECT_EQ(runs[2].cell, 1);
  EXPECT_EQ(runs[2].begin, 5);
  EXPECT_EQ(runs[2].count, 1);
}

TEST(RunSegmentation, EmptyAndSingleton) {
  EXPECT_TRUE(runs_of({}).empty());
  const auto one = runs_of({42});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].cell, 42);
  EXPECT_EQ(one[0].count, 1);
}

TEST(RunSegmentation, CoversEverySlotExactlyOnce) {
  const std::vector<std::uint32_t> keys = {5, 5, 2, 2, 2, 9, 5, 5, 5, 5};
  const auto runs = runs_of(keys);
  index_t covered = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    if (r > 0) {
      EXPECT_EQ(runs[r].begin, runs[r - 1].begin + runs[r - 1].count);
      EXPECT_NE(runs[r].cell, runs[r - 1].cell);  // maximality
    }
    covered += runs[r].count;
  }
  EXPECT_EQ(covered, static_cast<index_t>(keys.size()));
}

// ----------------------------------------------------------------------
// Physics equivalence: run-aware == generic on every order.
// ----------------------------------------------------------------------

class RunAwareEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RunAwareEquivalence, MatchesGenericPush) {
  const auto strat =
      static_cast<core::VectorStrategy>(std::get<0>(GetParam()));
  const int order = std::get<1>(GetParam());

  auto sim = make_sim(strat);
  auto& sp = sim.species(0);
  // Cell-sorted is the fast path's home turf; random order is an
  // all-fallback stress; adversarial order has maximally short runs.
  apply_order(sp, order, sim.grid().nv());
  const std::vector<core::Particle> initial = particles_of(sp);

  const PushOutcome generic =
      push_once(sim, initial, strat, core::PushPath::Generic);
  const PushOutcome runaware =
      push_once(sim, initial, strat, core::PushPath::RunAware);
  EXPECT_EQ(generic.path, core::PushPath::Generic);
  EXPECT_EQ(runaware.path, core::PushPath::RunAware);

  ASSERT_EQ(generic.particles.size(), runaware.particles.size());
  for (std::size_t i = 0; i < generic.particles.size(); ++i) {
    const auto& a = generic.particles[i];
    const auto& b = runaware.particles[i];
    EXPECT_EQ(a.i, b.i) << "particle " << i;
    EXPECT_NEAR(a.dx, b.dx, 1e-5) << i;
    EXPECT_NEAR(a.dy, b.dy, 1e-5) << i;
    EXPECT_NEAR(a.dz, b.dz, 1e-5) << i;
    EXPECT_NEAR(a.ux, b.ux, 1e-5) << i;
    EXPECT_NEAR(a.uy, b.uy, 1e-5) << i;
    EXPECT_NEAR(a.uz, b.uz, 1e-5) << i;
    EXPECT_EQ(a.w, b.w) << i;
  }
  ASSERT_EQ(generic.acc.size(), runaware.acc.size());
  for (std::size_t k = 0; k < generic.acc.size(); ++k)
    EXPECT_NEAR(generic.acc[k], runaware.acc[k], 1e-4) << "slot " << k;
}

namespace {
std::string equivalence_name(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* strats[] = {"Auto", "Guided", "Manual"};
  static const char* orders[] = {"Sorted", "Random", "Adversarial"};
  return std::string(strats[std::get<0>(info.param)]) +
         orders[std::get<1>(info.param)];
}
}  // namespace

INSTANTIATE_TEST_SUITE_P(
    StrategiesByOrders, RunAwareEquivalence,
    ::testing::Combine(::testing::Range(0, 3),   // Auto, Guided, Manual
                       ::testing::Range(0, 3)),  // sorted/random/adversarial
    equivalence_name);

// ----------------------------------------------------------------------
// The run-aware launch finds its runs while it pushes. At one thread it
// pushes the same runs in the same order as a run-list reference (one
// forced run-aware push_on per run of sort::segment_runs, in slot order),
// so particles and currents are bit-identical to it on any order. Both
// sides deposit with atomic adds: a sorted species' hint is aged first,
// because in exact cell order each push_on applies its deposit logs when
// it returns, after its last run, so a per-run reference would group a
// cell's sums differently (the exact-order grouping is ExactOrderPush's).
// ----------------------------------------------------------------------

class RunsFoundDuringPush
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  void SetUp() override { pk::initialize(1); }
  void TearDown() override { pk::initialize(); }
};

TEST_P(RunsFoundDuringPush, MatchesRunListPushAtOneThread) {
  const auto strat =
      static_cast<core::VectorStrategy>(std::get<0>(GetParam()));
  auto sim = make_sim(strat, 4, 11);
  auto& sp = sim.species(0);
  apply_order(sp, std::get<1>(GetParam()), sim.grid().nv());
  sp.mark_order_degraded();
  const std::vector<core::Particle> initial = particles_of(sp);

  const PushOutcome found =
      push_once(sim, initial, strat, core::PushPath::RunAware);
  ASSERT_EQ(found.path, core::PushPath::RunAware);

  std::copy_n(initial.data(), sp.np, sp.p.data());
  sim.accumulator().clear();
  std::vector<vs::CellRun> runs;
  const auto& pp = sp.p;
  vs::segment_runs(sp.np, [&pp](index_t i) { return pp.cell(i); }, runs);
  for (const vs::CellRun& run : runs)
    core::push_on<pk::DefaultExecSpace>(
        sp, sim.interpolator(), sim.accumulator(), sim.grid(), strat, {},
        core::PushPath::RunAware, run.begin, run.begin + run.count);
  EXPECT_TRUE(same_bytes(found.particles, particles_of(sp)));
  EXPECT_TRUE(same_bytes(found.acc, flatten(sim.accumulator())));
}

namespace {
std::string runs_found_name(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* strats[] = {"Auto", "Guided", "Manual"};
  static const char* orders[] = {"Sorted", "Random", "Adversarial"};
  return std::string(strats[std::get<0>(info.param)]) +
         orders[std::get<1>(info.param)];
}
}  // namespace

INSTANTIATE_TEST_SUITE_P(
    StrategiesByOrders, RunsFoundDuringPush,
    ::testing::Combine(::testing::Range(0, 3),   // Auto, Guided, Manual
                       ::testing::Range(0, 3)),  // sorted/random/adversarial
    runs_found_name);

// ----------------------------------------------------------------------
// In exact cell order each chunk of a team push writes the cells of its
// own runs and logs every other segment, and push_on applies the logs in
// chunk order: a cell sums its run's record first and the logged segments
// after it in slot order, as pk::Serial's one chunk does. A four-thread
// push is bit-identical to it.
// ----------------------------------------------------------------------

TEST(ExactOrderPush, FourThreadChunksMatchTheOneChunkPush) {
  for (const core::VectorStrategy strat :
       {core::VectorStrategy::Auto, core::VectorStrategy::Guided,
        core::VectorStrategy::Manual}) {
    SCOPED_TRACE(core::to_string(strat));
    auto sim = make_sim(strat, 8, 19);
    auto& sp = sim.species(0);
    apply_order(sp, 0, sim.grid().nv());
    ASSERT_TRUE(sp.exact_cell_order());
    const std::vector<core::Particle> initial = particles_of(sp);
    pk::initialize(4);
    const PushOutcome team =
        push_once(sim, initial, strat, core::PushPath::AutoDetect);
    pk::initialize();
    ASSERT_EQ(team.path, core::PushPath::RunAware);
    std::copy_n(initial.data(), sp.np, sp.p.data());
    sim.accumulator().clear();
    ASSERT_EQ(core::push_on<pk::Serial>(sp, sim.interpolator(),
                                        sim.accumulator(), sim.grid(), strat,
                                        {}, core::PushPath::AutoDetect, 0,
                                        sp.np),
              core::PushPath::RunAware);
    EXPECT_TRUE(same_bytes(team.particles, particles_of(sp)));
    EXPECT_TRUE(same_bytes(team.acc, flatten(sim.accumulator())));
  }
}

// ----------------------------------------------------------------------
// Charge conservation through the forced run-aware path.
// ----------------------------------------------------------------------

class RunAwareContinuity : public ::testing::TestWithParam<int> {};

TEST_P(RunAwareContinuity, DivJPlusDrhoDtVanishes) {
  const int seed = GetParam();
  auto sim = make_sim(static_cast<core::VectorStrategy>(seed % 3), 2,
                      static_cast<std::uint64_t>(seed) * 131);
  auto& sp = sim.species(0);
  if (seed % 2 == 0)
    core::sort_particles(sp, vs::SortOrder::Standard, 0, 1, sim.grid().nv());

  const auto rho0 = sim.charge_density();
  sim.interpolator().load(sim.fields());
  sim.accumulator().clear();
  const auto path = core::advance_species(
      sp, sim.interpolator(), sim.accumulator(), sim.grid(),
      sim.config().strategy, {}, core::PushPath::RunAware);
  EXPECT_EQ(path, core::PushPath::RunAware);
  sim.accumulator().reduce_ghosts_periodic();
  sim.accumulator().unload(sim.fields());
  const auto rho1 = sim.charge_density();

  const auto& g = sim.grid();
  const auto& f = sim.fields();
  auto wrap = [&](int i, int n) { return i < 1 ? i + n : i; };
  double worst = 0, scale = 0;
  for (int iz = 1; iz <= g.nz; ++iz)
    for (int iy = 1; iy <= g.ny; ++iy)
      for (int ix = 1; ix <= g.nx; ++ix) {
        const index_t v = g.voxel(ix, iy, iz);
        const double drho = (rho1(v) - rho0(v)) / g.dt;
        const double divj =
            (f.jx(v) - f.jx(g.voxel(wrap(ix - 1, g.nx), iy, iz))) / g.dx +
            (f.jy(v) - f.jy(g.voxel(ix, wrap(iy - 1, g.ny), iz))) / g.dy +
            (f.jz(v) - f.jz(g.voxel(ix, iy, wrap(iz - 1, g.nz)))) / g.dz;
        worst = std::max(worst, std::abs(drho + divj));
        scale = std::max({scale, std::abs(drho), std::abs(divj)});
      }
  ASSERT_GT(scale, 0.0);
  EXPECT_LT(worst / scale, 5e-4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RunAwareContinuity, ::testing::Range(0, 6));

// ----------------------------------------------------------------------
// Sortedness tracking and the AutoDetect dispatch.
// ----------------------------------------------------------------------

TEST(PushDispatch, SortednessTrackingFollowsSortOrder) {
  auto sim = make_sim(core::VectorStrategy::Auto);
  auto& sp = sim.species(0);
  EXPECT_FALSE(sp.cell_sorted_hint);
  EXPECT_EQ(sp.steps_since_sort, -1);

  core::sort_particles(sp, vs::SortOrder::Standard, 0, 1, sim.grid().nv());
  EXPECT_TRUE(sp.cell_sorted_hint);
  EXPECT_EQ(sp.steps_since_sort, 0);
  EXPECT_TRUE(sp.exact_cell_order());

  sp.mark_order_degraded();
  EXPECT_EQ(sp.steps_since_sort, 1);
  EXPECT_FALSE(sp.exact_cell_order());

  core::sort_particles(sp, vs::SortOrder::Random, 0, 3);
  EXPECT_FALSE(sp.cell_sorted_hint);
  EXPECT_EQ(sp.steps_since_sort, -1);
  EXPECT_FALSE(sp.exact_cell_order());
}

TEST(PushDispatch, AutoDetectTakesRunAwareOnFreshSort) {
  auto sim = make_sim(core::VectorStrategy::Guided);
  auto& sp = sim.species(0);
  core::sort_particles(sp, vs::SortOrder::Standard, 0, 1, sim.grid().nv());
  sim.interpolator().load(sim.fields());
  sim.accumulator().clear();
  const auto path = core::advance_species(
      sp, sim.interpolator(), sim.accumulator(), sim.grid(),
      core::VectorStrategy::Guided);  // default AutoDetect
  EXPECT_EQ(path, core::PushPath::RunAware);
  // advance_species puts a Standard-sorted species back in exact cell
  // order, so the hint stays fresh.
  EXPECT_TRUE(sp.cell_sorted_hint);
  EXPECT_EQ(sp.steps_since_sort, 0);
  EXPECT_TRUE(vs::cell_sorted_exact(sp.cell_keys()));
  // The push alone leaves the order to decay; its caller ages the hint.
  sim.accumulator().clear();
  EXPECT_EQ(core::push_on<pk::DefaultExecSpace>(
                sp, sim.interpolator(), sim.accumulator(), sim.grid(),
                core::VectorStrategy::Guided, {}, core::PushPath::AutoDetect,
                0, sp.np),
            core::PushPath::RunAware);
  sp.mark_order_degraded();
  EXPECT_EQ(sp.steps_since_sort, 1);
}

TEST(PushDispatch, ForcedGenericAndAdHocStayGeneric) {
  auto sim = make_sim(core::VectorStrategy::Auto);
  auto& sp = sim.species(0);
  core::sort_particles(sp, vs::SortOrder::Standard, 0, 1, sim.grid().nv());
  sim.interpolator().load(sim.fields());

  sim.accumulator().clear();
  EXPECT_EQ(core::advance_species(sp, sim.interpolator(), sim.accumulator(),
                                  sim.grid(), core::VectorStrategy::Auto, {},
                                  core::PushPath::Generic),
            core::PushPath::Generic);

  // AdHoc has no run-aware variant: even forced RunAware stays generic.
  core::sort_particles(sp, vs::SortOrder::Standard, 0, 1, sim.grid().nv());
  sim.accumulator().clear();
  EXPECT_EQ(core::advance_species(sp, sim.interpolator(), sim.accumulator(),
                                  sim.grid(), core::VectorStrategy::AdHoc,
                                  {}, core::PushPath::RunAware),
            core::PushPath::Generic);
}

/// The path AutoDetect takes for particles [n0, n1) of `sim`'s species:
/// the push itself, into a cleared accumulator.
core::PushPath auto_path(core::Simulation& sim, index_t n0, index_t n1) {
  auto& sp = sim.species(0);
  sim.interpolator().load(sim.fields());
  sim.accumulator().clear();
  return core::push_on<pk::DefaultExecSpace>(
      sp, sim.interpolator(), sim.accumulator(), sim.grid(),
      sim.config().strategy, {}, core::PushPath::AutoDetect, n0, n1);
}

TEST(PushDispatch, StaleFallsBackToGenericExactRangeOfAnySizeRunsAware) {
  auto sim = make_sim(core::VectorStrategy::Auto);
  auto& sp = sim.species(0);
  core::sort_particles(sp, vs::SortOrder::Standard, 0, 1, sim.grid().nv());

  sp.steps_since_sort = 1000;  // long past its sort
  EXPECT_EQ(auto_path(sim, 0, sp.np), core::PushPath::Generic);

  // No size gate: a range of a few particles, or none, in exact order
  // takes the run-aware path the step takes over the whole array, so a
  // small boundary-plane range adds its currents the same way.
  core::sort_particles(sp, vs::SortOrder::Standard, 0, 1, sim.grid().nv());
  EXPECT_EQ(auto_path(sim, 3, 10), core::PushPath::RunAware);
  EXPECT_EQ(auto_path(sim, 5, 5), core::PushPath::RunAware);
  EXPECT_EQ(auto_path(sim, 0, sp.np), core::PushPath::RunAware);
}

TEST(PushDispatch, StaleHintReprobesActualOrder) {
  // Only exact cell order takes the fast path. A hint that says "sorted a
  // few steps ago" is generic even when the array is still perfectly
  // sorted, and so is an adversarial reorder under the same hint.
  auto sim = make_sim(core::VectorStrategy::Auto);
  auto& sp = sim.species(0);
  core::sort_particles(sp, vs::SortOrder::Standard, 0, 1, sim.grid().nv());
  sp.steps_since_sort = 10;
  EXPECT_EQ(auto_path(sim, 0, sp.np), core::PushPath::Generic);

  adversarial_order(sp, sim.grid().nv());
  sp.cell_sorted_hint = true;
  sp.steps_since_sort = 10;
  EXPECT_EQ(auto_path(sim, 0, sp.np), core::PushPath::Generic);
}

// ----------------------------------------------------------------------
// The dispatch the benchmark decks get: bench/anatomy's lpi (and
// lpi_ckpt), clumped_tiled and weibel_collide workloads at full size. The
// constants in sort/dispatch_model.hpp must send them down the fast paths.
// ----------------------------------------------------------------------

core::decks::LpiParams anatomy_lpi() {
  core::decks::LpiParams p;
  p.nx = 48;
  p.ny = 24;
  p.nz = 24;
  p.ppc = 16;
  return p;
}

TEST(BenchDeckDispatch, CountingSortForEverySpeciesAtOneToFourThreads) {
  core::decks::LpiParams clumped;
  clumped.nx = 32;
  clumped.ny = 16;
  clumped.nz = 32;
  clumped.ppc = 16;
  clumped.clump_factor = 8;
  core::decks::WeibelParams weibel;
  weibel.nx = weibel.ny = weibel.nz = 20;
  weibel.ppc = 16;

  auto lpi = core::decks::make_lpi(anatomy_lpi());
  ASSERT_EQ(lpi.grid().nv(), 33800);
  for (std::size_t s = 0; s < lpi.num_species(); ++s)
    ASSERT_EQ(lpi.species(s).np, 267264);

  auto check = [](core::Simulation& sim, const char* deck) {
    const auto nv = static_cast<std::uint64_t>(sim.grid().nv());
    for (std::size_t s = 0; s < sim.num_species(); ++s)
      for (const int threads : {1, 2, 4})
        EXPECT_TRUE(
            vs::counting_sort_applicable(sim.species(s).np, nv, threads,
                                         vs::particle_sort_model()))
            << deck << " species " << sim.species(s).name << " at "
            << threads << " threads";
  };
  check(lpi, "lpi");
  auto clumped_sim = core::decks::make_lpi(clumped);
  check(clumped_sim, "clumped_tiled");
  auto weibel_sim = core::decks::make_weibel(weibel);
  check(weibel_sim, "weibel_collide");
}

TEST(BenchDeckDispatch, LpiRunAwareWhenSortedGenericWhenScrambled) {
  auto sim = core::decks::make_lpi(anatomy_lpi());
  auto& sp = sim.species(0);
  const index_t nv = sim.grid().nv();
  sim.interpolator().load(sim.fields());
  // The push alone, aged like a step that does not re-sort: only a fresh
  // sort takes the fast path.
  auto push = [&] {
    sim.accumulator().clear();
    const auto path = core::push_on<pk::DefaultExecSpace>(
        sp, sim.interpolator(), sim.accumulator(), sim.grid(),
        core::VectorStrategy::Auto, {}, core::PushPath::AutoDetect, 0, sp.np);
    sp.mark_order_degraded();
    return path;
  };

  core::sort_particles(sp, vs::SortOrder::Standard, 0, 1, nv);
  EXPECT_EQ(push(), core::PushPath::RunAware);
  // One step after the sort the order has decayed: generic.
  EXPECT_EQ(push(), core::PushPath::Generic);

  adversarial_order(sp, nv);
  sp.cell_sorted_hint = true;
  sp.steps_since_sort = 1;
  EXPECT_EQ(push(), core::PushPath::Generic);
}

// ----------------------------------------------------------------------
// The Standard order is kept every step (docs/SORTING.md): once the sort
// interval has Standard-sorted a species, every step leaves it exactly in
// cell order with a fresh hint, through advance_species' re-sort.
// ----------------------------------------------------------------------

/// sp's records as a stable Standard sort of a private copy leaves them.
std::vector<core::Particle> standard_sorted_copy(const core::Species& sp,
                                                 index_t nv) {
  core::Species copy("copy", sp.q, sp.m, sp.np);
  const std::vector<core::Particle> recs = particles_of(sp);
  std::copy_n(recs.data(), sp.np, copy.p.data());
  copy.np = sp.np;
  core::sort_particles(copy, vs::SortOrder::Standard, 0, 0, nv);
  return particles_of(copy);
}

TEST(KeptSorted, UntiledStepLeavesExactStandardOrder) {
  core::decks::LpiParams p;
  p.nx = 16;
  p.ny = 8;
  p.nz = 8;
  p.ppc = 8;
  auto sim = core::decks::make_lpi(p);
  const int first_sort = sim.config().sort_interval;
  ASSERT_GT(first_sort, 0);
  const index_t nv = sim.grid().nv();
  for (int step = 1; step <= 100; ++step) {
    sim.step();
    if (step < first_sort) continue;
    for (std::size_t s = 0; s < sim.num_species(); ++s) {
      const core::Species& sp = sim.species(s);
      SCOPED_TRACE("step " + std::to_string(step) + ", species " + sp.name);
      ASSERT_TRUE(sp.cell_sorted_hint);
      ASSERT_EQ(sp.steps_since_sort, 0);
      ASSERT_TRUE(same_bytes(particles_of(sp), standard_sorted_copy(sp, nv)));
    }
  }
}

TEST(KeptSorted, AdvanceSpeciesRejectsAnExitQueue) {
  // Exits belong to push_on's callers (the ranks), which compact and ship
  // them: advance_species refuses a queue and leaves the species as it was.
  auto sim = make_sim(core::VectorStrategy::Auto);
  auto& sp = sim.species(0);
  core::sort_particles(sp, vs::SortOrder::Standard, 0, 1, sim.grid().nv());
  sim.interpolator().load(sim.fields());
  sim.accumulator().clear();
  const std::vector<core::Particle> before = particles_of(sp);
  std::vector<core::ExitRecord> exits;
  core::MoverOptions opts;
  opts.periodic_mask = 0b011;  // the z faces are open
  opts.exits = &exits;
  EXPECT_THROW(core::advance_species(sp, sim.interpolator(),
                                     sim.accumulator(), sim.grid(),
                                     core::VectorStrategy::Auto, opts),
               std::invalid_argument);
  EXPECT_TRUE(exits.empty());
  EXPECT_TRUE(same_bytes(before, particles_of(sp)));
  EXPECT_TRUE(sp.exact_cell_order());
  const std::vector<float> acc = flatten(sim.accumulator());
  EXPECT_TRUE(std::all_of(acc.begin(), acc.end(),
                          [](float v) { return v == 0.0f; }));
}

/// An injection hook that appends a copy of the lowest-cell particle at
/// steps 3 and 10 (a sort step), past the runs of its cell: the step ages
/// the species' hint, so no push or sort trusts an order the array lost.
/// Whenever the hint claims exact order, the array is in it.
TEST(KeptSorted, UntiledHookThatAppendsAgesTheHint) {
  pk::initialize(4);
  core::decks::LpiParams p;
  p.nx = 16;
  p.ny = 8;
  p.nz = 8;
  p.ppc = 8;
  p.sort_interval = 5;
  auto sim = core::decks::make_lpi(p);
  const index_t nv = sim.grid().nv();
  for (std::size_t s = 0; s < sim.num_species(); ++s)
    core::sort_particles(sim.species(s), vs::SortOrder::Standard, 0, 0, nv);
  sim.set_injection_hook([](core::Simulation& s) {
    if (s.step_count() != 3 && s.step_count() != 10) return;
    core::Species& e = s.species(0);
    ASSERT_LT(e.np, e.capacity());
    e.p.set(e.np, e.p.get(0));
    ++e.np;
  });
  const index_t np0 = sim.species(0).np;
  for (int step = 1; step <= 12; ++step) {
    sim.step();
    SCOPED_TRACE("step " + std::to_string(step));
    for (std::size_t s = 0; s < sim.num_species(); ++s) {
      const core::Species& sp = sim.species(s);
      const bool appended = s == 0 && step == 3;
      EXPECT_EQ(sp.exact_cell_order(), !appended) << sp.name;
      if (sp.exact_cell_order()) {
        EXPECT_TRUE(
            same_bytes(particles_of(sp), standard_sorted_copy(sp, nv)))
            << sp.name;
      }
    }
    // The push after the append takes the generic path, and its re-sort
    // brings the order back; the sort at step 10 restores it the same
    // step.
    const core::PushPath want =
        step == 4 ? core::PushPath::Generic : core::PushPath::RunAware;
    EXPECT_EQ(sim.last_push_paths()[0], want);
    EXPECT_EQ(sim.last_push_paths()[1], core::PushPath::RunAware);
  }
  EXPECT_EQ(sim.species(0).np, np0 + 2);
  pk::initialize();
}

// ----------------------------------------------------------------------
// Simulation-level plumbing.
// ----------------------------------------------------------------------

TEST(PushDispatch, SimulationStepsSwitchPathsAfterSort) {
  core::SimulationConfig cfg;
  cfg.grid = core::Grid(6, 6, 6, 6, 6, 6, 0);
  cfg.grid.dt = core::Grid::courant_dt(1, 1, 1, 0.65f);
  cfg.sort_interval = 1;  // sort at the end of every step
  core::Simulation sim(cfg);
  const auto s = sim.add_species("e", -1.0f, 1.0f, 6 * 6 * 6 * 4);
  sim.load_uniform_plasma(s, 4, 0.2f);

  sim.step();  // never sorted at push time
  ASSERT_EQ(sim.last_push_paths().size(), 1u);
  EXPECT_EQ(sim.last_push_paths()[0], core::PushPath::Generic);

  sim.step();  // sorted at the end of step 1: fast path engages
  EXPECT_EQ(sim.last_push_paths()[0], core::PushPath::RunAware);
}

TEST(PushDispatch, SimulationConfigCanPinGeneric) {
  core::SimulationConfig cfg;
  cfg.grid = core::Grid(6, 6, 6, 6, 6, 6, 0);
  cfg.grid.dt = core::Grid::courant_dt(1, 1, 1, 0.65f);
  cfg.sort_interval = 1;
  cfg.push_path = core::PushPath::Generic;
  core::Simulation sim(cfg);
  const auto s = sim.add_species("e", -1.0f, 1.0f, 6 * 6 * 6 * 4);
  sim.load_uniform_plasma(s, 4, 0.2f);
  sim.run(2);
  EXPECT_EQ(sim.last_push_paths()[0], core::PushPath::Generic);
}

// ----------------------------------------------------------------------
// The exit queue: every chunk of a launch queues its own exits, and
// push_on appends them in chunk order, which is slot order, so a team
// push returns the same records in the same order at any thread count.
// ----------------------------------------------------------------------

TEST(ExitQueue, FourThreadPushQueuesTheOneThreadRecordsInOrder) {
  const core::VectorStrategy strategies[] = {
      core::VectorStrategy::Auto, core::VectorStrategy::Guided,
      core::VectorStrategy::Manual, core::VectorStrategy::AdHoc};
  for (const core::VectorStrategy strat : strategies) {
    for (const int order : {0, 1}) {  // exact cell order, random
      SCOPED_TRACE(std::string(core::to_string(strat)) +
                   (order == 0 ? ", sorted" : ", random"));
      auto sim = make_sim(strat, 4, 17);
      auto& sp = sim.species(0);
      apply_order(sp, order, sim.grid().nv());
      const std::vector<core::Particle> initial = particles_of(sp);
      const auto push = [&](int threads) {
        pk::initialize(threads);
        std::copy_n(initial.data(), sp.np, sp.p.data());
        sim.interpolator().load(sim.fields());
        sim.accumulator().clear();
        std::vector<core::ExitRecord> exits;
        core::MoverOptions opts;
        opts.periodic_mask = 0b011;  // the z faces are open
        opts.exits = &exits;
        core::push_on<pk::DefaultExecSpace>(
            sp, sim.interpolator(), sim.accumulator(), sim.grid(), strat,
            opts, core::PushPath::AutoDetect, 0, sp.np);
        return std::make_pair(exits, particles_of(sp));
      };
      const auto one = push(1);
      const auto four = push(4);
      pk::initialize();
      ASSERT_FALSE(one.first.empty());
      EXPECT_TRUE(same_bytes(one.first, four.first));
      // Tombstones (i = -1) in the same slots, survivors bit-identical.
      EXPECT_TRUE(same_bytes(one.second, four.second));
    }
  }
}

// ----------------------------------------------------------------------
// A steady-state push allocates nothing: the deposit logs and exit chunks
// live in the species' sort scratch and keep their capacity, as do the
// sort's buffers. Every operator new of this binary is counted while
// g_count_news is set.
// ----------------------------------------------------------------------

namespace {
std::atomic<bool> g_count_news{false};
std::atomic<std::int64_t> g_news{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  if (g_count_news.load(std::memory_order_relaxed))
    g_news.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (n + align - 1) / align * align)
                : std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

TEST(SteadyPush, AdvanceSpeciesAllocatesNothing) {
  auto sim = core::decks::make_lpi(anatomy_lpi());
  const core::Grid& g = sim.grid();
  for (std::size_t s = 0; s < sim.num_species(); ++s)
    core::sort_particles(sim.species(s), vs::SortOrder::Standard, 0, 0,
                         g.nv());
  sim.interpolator().load(sim.fields());
  const auto counted = [](auto&& body) {
    g_news = 0;
    g_count_news = true;
    body();
    g_count_news = false;
    return g_news.load();
  };

  // advance_species: push, apply the logs, re-sort.
  const auto advance = [&](int calls) {
    for (int n = 0; n < calls; ++n)
      for (std::size_t s = 0; s < sim.num_species(); ++s)
        EXPECT_EQ(core::advance_species(sim.species(s), sim.interpolator(),
                                        sim.accumulator(), g,
                                        sim.config().strategy),
                  core::PushPath::RunAware);
  };
  advance(5);  // warm-up: the logs and the sort's buffers reach size
  EXPECT_EQ(counted([&] { advance(50); }), 0);
}
