// Run-aware push pipeline tests (docs/PUSH.md): run segmentation and the
// sampled sortedness probe, physics equivalence of the run-aware variants
// against the generic per-particle kernels on sorted / unsorted /
// adversarial particle orders, charge conservation through the fast path,
// the AutoDetect dispatch heuristic plus Species sortedness tracking, the
// Simulation-level plumbing, and the exit-queue concurrency guard.
#include <gtest/gtest.h>

#include <cmath>
#include <mutex>
#include <numeric>
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

/// A small thermal plasma on a 6^3 grid; ppc 4 gives 864 particles, above
/// the dispatch heuristic's minimum population.
core::Simulation make_sim(core::VectorStrategy strat, int ppc = 4,
                          std::uint64_t seed = 7,
                          core::ParticleLayout layout =
                              core::ParticleLayout::AoS) {
  core::SimulationConfig cfg;
  cfg.grid = core::Grid(6, 6, 6, 6, 6, 6, 0);
  cfg.grid.dt = core::Grid::courant_dt(1, 1, 1, 0.65f);
  cfg.strategy = strat;
  cfg.sort_interval = 0;
  cfg.seed = seed;
  cfg.layout = layout;
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

PushOutcome push_once(core::Simulation& sim,
                      const std::vector<core::Particle>& initial,
                      core::VectorStrategy strat, core::PushPath path) {
  auto& sp = sim.species(0);
  sp.p.import_aos(initial.data(), sp.np);
  sim.interpolator().load(sim.fields());
  sim.accumulator().clear();
  PushOutcome out;
  out.path = core::advance_species(sp, sim.interpolator(),
                                   sim.accumulator(), sim.grid(), strat,
                                   {}, path);
  out.particles.resize(static_cast<std::size_t>(sp.np));
  sp.p.export_aos(out.particles.data(), sp.np);
  const auto& a = sim.accumulator().a;
  for (index_t v = 0; v < a.size(); ++v)
    for (int c = 0; c < 4; ++c) {
      out.acc.push_back(a(v).jx[c]);
      out.acc.push_back(a(v).jy[c]);
      out.acc.push_back(a(v).jz[c]);
    }
  return out;
}

}  // namespace

// ----------------------------------------------------------------------
// Run segmentation and the sampled probe.
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

TEST(RunProbe, EstimatesSyntheticRunLength) {
  // 1024 keys in runs of exactly 8: the sampled boundary rate implies a
  // mean run length near 8 (sampling phase makes it approximate).
  std::vector<std::uint32_t> keys(1024);
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = static_cast<std::uint32_t>(i / 8);
  const auto pr = vs::probe_runs(
      static_cast<index_t>(keys.size()),
      [&keys](index_t i) { return keys[static_cast<std::size_t>(i)]; }, 64);
  EXPECT_EQ(pr.samples, 64);
  // Sampling phase can alias against the run period, so the estimate is
  // only order-of-magnitude accurate — which is all the dispatch needs.
  EXPECT_GE(pr.mean_run_estimate(), 4.0);
  EXPECT_LE(pr.mean_run_estimate(), 32.0);
  EXPECT_DOUBLE_EQ(pr.ascending_fraction(), 1.0);
}

TEST(RunProbe, AlternatingKeysEstimateNearOne) {
  std::vector<std::uint32_t> keys(512);
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = static_cast<std::uint32_t>(i % 2);
  const auto pr = vs::probe_runs(
      static_cast<index_t>(keys.size()),
      [&keys](index_t i) { return keys[static_cast<std::size_t>(i)]; }, 64);
  EXPECT_DOUBLE_EQ(pr.mean_run_estimate(), 1.0);
  EXPECT_LT(pr.ascending_fraction(), 1.0);
}

TEST(RunProbe, ExhaustiveLimitMatchesSortednessOracle) {
  for (const std::vector<std::uint32_t>& keys :
       {std::vector<std::uint32_t>{1, 2, 2, 3, 9},
        std::vector<std::uint32_t>{1, 2, 2, 1, 9},
        std::vector<std::uint32_t>{0},
        std::vector<std::uint32_t>{}}) {
    const index_t n = static_cast<index_t>(keys.size());
    const auto pr = vs::probe_runs(
        n, [&keys](index_t i) { return keys[static_cast<std::size_t>(i)]; },
        n > 1 ? n - 1 : 1);
    pk::View<std::uint32_t, 1> kv("k", n);
    for (index_t i = 0; i < n; ++i) kv(i) = keys[static_cast<std::size_t>(i)];
    EXPECT_EQ(pr.ascending_fraction() == 1.0, vs::cell_sorted_exact(kv));
  }
}

// ----------------------------------------------------------------------
// Physics equivalence: run-aware == generic on every order.
// ----------------------------------------------------------------------

class RunAwareEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RunAwareEquivalence, MatchesGenericPush) {
  const auto strat =
      static_cast<core::VectorStrategy>(std::get<0>(GetParam()));
  const int order = std::get<1>(GetParam());
  const core::ParticleLayout layout =
      core::kAllParticleLayouts[std::get<2>(GetParam())];

  auto sim = make_sim(strat, 4, 7, layout);
  auto& sp = sim.species(0);
  switch (order) {
    case 0:  // cell-sorted: the fast path's home turf
      core::sort_particles(sp, vs::SortOrder::Standard, 0, 1,
                           sim.grid().nv());
      break;
    case 1:  // random order: all-fallback stress
      core::sort_particles(sp, vs::SortOrder::Random, 0, 99);
      break;
    case 2:  // adversarial alternating cells: maximally short runs
      adversarial_order(sp, sim.grid().nv());
      break;
  }
  std::vector<core::Particle> initial(static_cast<std::size_t>(sp.np));
  sp.p.export_aos(initial.data(), sp.np);

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
    const ::testing::TestParamInfo<std::tuple<int, int, int>>& info) {
  static const char* strats[] = {"Auto", "Guided", "Manual"};
  static const char* orders[] = {"Sorted", "Random", "Adversarial"};
  static const char* layouts[] = {"AoS", "SoA"};
  return std::string(strats[std::get<0>(info.param)]) +
         orders[std::get<1>(info.param)] + layouts[std::get<2>(info.param)];
}
}  // namespace

INSTANTIATE_TEST_SUITE_P(
    StrategiesByOrdersByLayouts, RunAwareEquivalence,
    ::testing::Combine(::testing::Range(0, 3),   // Auto, Guided, Manual
                       ::testing::Range(0, 3),   // sorted/random/adversarial
                       ::testing::Range(0, core::kNumParticleLayouts)),
    equivalence_name);

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
  EXPECT_TRUE(core::run_aware_profitable(sp));

  sp.mark_order_degraded();
  EXPECT_EQ(sp.steps_since_sort, 1);

  core::sort_particles(sp, vs::SortOrder::Random, 0, 3);
  EXPECT_FALSE(sp.cell_sorted_hint);
  EXPECT_EQ(sp.steps_since_sort, -1);
  EXPECT_FALSE(core::run_aware_profitable(sp));
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
  // The push itself degrades the order hint by one step.
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

TEST(PushDispatch, StaleOrTinyPopulationsFallBackToGeneric) {
  auto sim = make_sim(core::VectorStrategy::Auto);
  auto& sp = sim.species(0);
  core::sort_particles(sp, vs::SortOrder::Standard, 0, 1, sim.grid().nv());

  sp.steps_since_sort = 1000;  // far past the staleness window
  EXPECT_FALSE(core::run_aware_profitable(sp));

  sp.steps_since_sort = 0;
  sp.np = 100;  // below the minimum population
  EXPECT_FALSE(core::run_aware_profitable(sp));

  // An empty species is generic, even freshly sorted.
  sp.np = 0;
  EXPECT_FALSE(core::run_aware_profitable(sp));
}

TEST(PushDispatch, StaleHintReprobesActualOrder) {
  // Hint says "sorted a few steps ago" but the array is still perfectly
  // sorted: the probe sees long runs and keeps the fast path. After an
  // adversarial reorder with the same hint, the probe rejects it.
  auto sim = make_sim(core::VectorStrategy::Auto);
  auto& sp = sim.species(0);
  core::sort_particles(sp, vs::SortOrder::Standard, 0, 1, sim.grid().nv());
  sp.steps_since_sort = 10;  // inside the staleness window: probe decides
  EXPECT_TRUE(core::run_aware_profitable(sp));

  adversarial_order(sp, sim.grid().nv());
  sp.cell_sorted_hint = true;
  sp.steps_since_sort = 10;
  EXPECT_FALSE(core::run_aware_profitable(sp));
}

// ----------------------------------------------------------------------
// The dispatch the benchmark decks get: bench/anatomy's lpi (and
// lpi_ckpt), clumped_tiled and weibel_collide workloads at full size. The
// constants in core/push_tuning.hpp and sort/dispatch_model.hpp must send
// them down the fast paths.
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
            vs::counting_sort_applicable(sim.species(s).np, nv, threads))
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
  auto push = [&] {
    sim.accumulator().clear();
    return core::advance_species(sp, sim.interpolator(), sim.accumulator(),
                                 sim.grid(), core::VectorStrategy::Auto);
  };

  core::sort_particles(sp, vs::SortOrder::Standard, 0, 1, nv);
  EXPECT_EQ(push(), core::PushPath::RunAware);
  // One step after the sort the run probe decides, and still sees runs.
  EXPECT_EQ(push(), core::PushPath::RunAware);

  adversarial_order(sp, nv);
  sp.cell_sorted_hint = true;
  sp.steps_since_sort = 1;
  EXPECT_EQ(push(), core::PushPath::Generic);
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
// Exit-queue concurrency guard.
// ----------------------------------------------------------------------

TEST(ExitQueueGuard, RejectsUnguardedQueueUnderConcurrency) {
  auto sim = make_sim(core::VectorStrategy::Auto);
  auto& sp = sim.species(0);
  sim.interpolator().load(sim.fields());
  sim.accumulator().clear();

  std::vector<core::ExitRecord> exits;
  core::MoverOptions opts;
  opts.periodic_mask = 0b011;  // z exits possible
  opts.exits = &exits;
  opts.exits_mutex = nullptr;  // the race the guard exists to catch

  if (pk::DefaultExecSpace::concurrency() > 1) {
    EXPECT_THROW(core::advance_species(sp, sim.interpolator(),
                                       sim.accumulator(), sim.grid(),
                                       core::VectorStrategy::Auto, opts),
                 std::logic_error);
  } else {
    EXPECT_NO_THROW(core::advance_species(sp, sim.interpolator(),
                                          sim.accumulator(), sim.grid(),
                                          core::VectorStrategy::Auto, opts));
  }

  // With the mutex supplied the same call is always legal. Clear the
  // tombstones the first (no-throw) path may have left before re-pushing.
  core::compact_exited(sp);
  exits.clear();
  std::mutex m;
  opts.exits_mutex = &m;
  sim.accumulator().clear();
  EXPECT_NO_THROW(core::advance_species(sp, sim.interpolator(),
                                        sim.accumulator(), sim.grid(),
                                        core::VectorStrategy::Auto, opts));
}
