// Integration tests: the four vectorization strategies must agree on the
// physics; the decks must produce their signature behaviour (laser
// injection, Weibel growth, reconnection onset, the clumped deck's
// density profile); sorting must interact correctly with a running
// simulation; the step repeats its bits at any thread count in exact
// cell order; and a stepping simulation holds one team and its
// checkpoint writer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/collide.hpp"
#include "core/core.hpp"

namespace core = vpic::core;
namespace pk = vpic::pk;
using pk::index_t;

namespace {

core::Simulation make_plasma(core::VectorStrategy strat,
                             vpic::sort::SortOrder order =
                                 vpic::sort::SortOrder::Standard,
                             int sort_interval = 0) {
  core::SimulationConfig cfg;
  cfg.grid = core::Grid(6, 6, 6, 6, 6, 6, 0);
  cfg.grid.dt = core::Grid::courant_dt(1, 1, 1, 0.6f);
  cfg.strategy = strat;
  cfg.sort_order = order;
  cfg.sort_interval = sort_interval;
  cfg.seed = 77;
  core::Simulation sim(cfg);
  const auto e = sim.add_species("e", -1.0f, 1.0f, 4000);
  const auto i = sim.add_species("i", 1.0f, 50.0f, 4000);
  sim.load_uniform_plasma(e, 4, 0.15f, 0.05f, 0.0f, -0.02f);
  sim.load_uniform_plasma(i, 4, 0.01f);
  return sim;
}

void expect_bitwise_equal(core::Simulation& a, core::Simulation& b) {
  const auto& fa = a.fields();
  const auto& fb = b.fields();
  const pk::View<float, 1>* va[] = {&fa.ex, &fa.ey, &fa.ez, &fa.bx, &fa.by,
                                    &fa.bz, &fa.jx, &fa.jy, &fa.jz};
  const pk::View<float, 1>* vb[] = {&fb.ex, &fb.ey, &fb.ez, &fb.bx, &fb.by,
                                    &fb.bz, &fb.jx, &fb.jy, &fb.jz};
  const char* names[] = {"ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz"};
  for (int c = 0; c < 9; ++c) {
    ASSERT_EQ(va[c]->size(), vb[c]->size());
    EXPECT_EQ(std::memcmp(va[c]->data(), vb[c]->data(),
                          static_cast<std::size_t>(va[c]->size()) *
                              sizeof(float)),
              0)
        << names[c] << " diverges";
  }
  ASSERT_EQ(a.num_species(), b.num_species());
  for (std::size_t s = 0; s < a.num_species(); ++s) {
    const auto& sa = a.species(s);
    const auto& sb = b.species(s);
    ASSERT_EQ(sa.np, sb.np) << sa.name;
    EXPECT_EQ(std::memcmp(sa.p.data(), sb.p.data(),
                          static_cast<std::size_t>(sa.np) *
                              sizeof(core::Particle)),
              0)
        << sa.name << " particles diverge";
  }
}

}  // namespace

#if defined(__linux__)
TEST(ThreadCensus, StepsWithAnAsyncRingHoldOneTeamAndTheWriter) {
  // Every phase runs on the stepping thread's OpenMP team and the async
  // ring commits on one writer thread, so after 20 steps the process
  // holds the team, this thread included, plus the writer (docs/ASYNC.md,
  // "Threads"). First in this file: a wider team of an earlier test could
  // leave idle OpenMP threads behind.
  pk::finalize();
  pk::initialize();  // the environment's thread count
  const int team = pk::DefaultExecSpace::concurrency();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "vpic_thread_census";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::size_t threads = 0;
  {
    core::decks::LpiParams p;
    p.nx = 8;
    p.ny = 4;
    p.nz = 8;
    p.ppc = 4;
    p.clump_factor = 4.0f;
    core::Simulation sim = core::decks::make_lpi(p);
    sim.config().checkpoint_every = 5;
    sim.config().checkpoint_path = (dir / "ck").string();
    sim.config().checkpoint_async = true;
    sim.run(20);
    for ([[maybe_unused]] const auto& task :
         std::filesystem::directory_iterator("/proc/self/task"))
      ++threads;
    EXPECT_NO_THROW(sim.checkpoint_wait());
  }
  std::filesystem::remove_all(dir);
  EXPECT_LE(threads, static_cast<std::size_t>(team + 1))
      << "team size " << team;
}
#endif

TEST(StrategyEquivalence, SingleStepMomentaMatch) {
  auto ref = make_plasma(core::VectorStrategy::Auto);
  ref.step();
  for (auto strat : {core::VectorStrategy::Guided,
                     core::VectorStrategy::Manual,
                     core::VectorStrategy::AdHoc}) {
    auto sim = make_plasma(strat);
    sim.step();
    SCOPED_TRACE(core::to_string(strat));
    const auto& pr = ref.species(0);
    const auto& ps = sim.species(0);
    ASSERT_EQ(pr.np, ps.np);
    double max_du = 0, max_dx = 0;
    for (index_t n = 0; n < pr.np; ++n) {
      max_du = std::max<double>(
          max_du, std::abs(pr.p(n).ux - ps.p(n).ux) +
                      std::abs(pr.p(n).uy - ps.p(n).uy) +
                      std::abs(pr.p(n).uz - ps.p(n).uz));
      max_dx = std::max<double>(max_dx, std::abs(pr.p(n).dx - ps.p(n).dx));
      EXPECT_EQ(pr.p(n).i, ps.p(n).i) << "particle " << n;
    }
    // Manual/AdHoc reassociate and use Newton rsqrt: small fp drift only.
    EXPECT_LT(max_du, 5e-5);
    EXPECT_LT(max_dx, 5e-4);
  }
}

TEST(StrategyEquivalence, MultiStepEnergiesMatch) {
  const double ref = [&] {
    auto sim = make_plasma(core::VectorStrategy::Auto);
    sim.run(10);
    return sim.energies().total();
  }();
  for (auto strat : {core::VectorStrategy::Guided,
                     core::VectorStrategy::Manual,
                     core::VectorStrategy::AdHoc}) {
    auto sim = make_plasma(strat);
    sim.run(10);
    EXPECT_NEAR(sim.energies().total(), ref, 2e-4 * ref)
        << core::to_string(strat);
  }
}

TEST(StrategyEquivalence, AllStrategiesWithAllSortOrders) {
  for (auto strat : {core::VectorStrategy::Auto, core::VectorStrategy::Guided,
                     core::VectorStrategy::Manual,
                     core::VectorStrategy::AdHoc}) {
    for (auto order :
         {vpic::sort::SortOrder::Standard, vpic::sort::SortOrder::Strided,
          vpic::sort::SortOrder::TiledStrided}) {
      auto sim = make_plasma(strat, order, /*sort_interval=*/2);
      sim.run(6);
      EXPECT_TRUE(std::isfinite(sim.energies().total()))
          << core::to_string(strat) << "/" << vpic::sort::to_string(order);
    }
  }
}

TEST(Decks, LpiLaserInjectsFieldEnergy) {
  core::decks::LpiParams p;
  p.nx = 16;
  p.ny = 6;
  p.nz = 6;
  p.ppc = 2;
  auto sim = core::decks::make_lpi(p);
  const double e0 = sim.energies().field;
  sim.run(30);
  const auto e1 = sim.energies();
  EXPECT_GT(e1.field, e0 + 1e-6) << "laser antenna injected no energy";
  EXPECT_TRUE(std::isfinite(e1.total()));
}

TEST(Decks, LpiPlasmaOnlyInSlab) {
  core::decks::LpiParams p;
  p.nx = 20;
  p.ny = 4;
  p.nz = 4;
  p.ppc = 2;
  p.slab_begin = 0.5f;
  auto sim = core::decks::make_lpi(p);
  const auto& g = sim.grid();
  const auto& sp = sim.species(0);
  ASSERT_GT(sp.np, 0);
  for (index_t n = 0; n < sp.np; ++n) {
    int ix, iy, iz;
    g.cell_of(sp.p(n).i, ix, iy, iz);
    EXPECT_GE(ix, 11) << "particle outside the plasma slab";
  }
}

TEST(Decks, WeibelInstabilityGrowsMagneticEnergy) {
  core::decks::WeibelParams p;
  p.nx = 12;
  p.ny = 12;
  p.nz = 12;
  p.ppc = 8;
  p.u_beam = 0.4f;
  auto sim = core::decks::make_weibel(p);
  const double b0 = sim.fields().field_energy();
  sim.run(60);
  const double b1 = sim.fields().field_energy();
  // Counter-streaming beams must grow EM fields from noise by orders of
  // magnitude (filamentation instability).
  EXPECT_GT(b1, 100.0 * std::max(b0, 1e-12));
  EXPECT_TRUE(std::isfinite(b1));
}

TEST(Decks, ReconnectionHarrisEquilibriumRuns) {
  core::decks::ReconnectionParams p;
  p.nx = 12;
  p.ny = 4;
  p.nz = 12;
  p.ppc = 4;
  auto sim = core::decks::make_reconnection(p);
  // The Harris field must have opposite Bx signs above/below the sheet.
  const auto& g = sim.grid();
  const float b_low = sim.fields().bx(g.voxel(6, 2, 2));
  const float b_high = sim.fields().bx(g.voxel(6, 2, g.nz - 1));
  EXPECT_LT(b_low, 0.0f);
  EXPECT_GT(b_high, 0.0f);
  const double e0 = sim.energies().total();
  sim.run(20);
  const double e1 = sim.energies().total();
  EXPECT_TRUE(std::isfinite(e1));
  EXPECT_NEAR(e1, e0, 0.1 * e0);
}

// ----------------------------------------------------------------------
// Clumped LPI deck (LpiParams::clump_factor).
// ----------------------------------------------------------------------

TEST(ClumpedDeck, ZeroFactorIsBitwiseIdenticalToBaseline) {
  core::decks::LpiParams p;
  p.nx = 8;
  p.ny = 4;
  p.nz = 6;
  p.ppc = 4;
  core::Simulation base = core::decks::make_lpi(p);
  p.clump_factor = 0.0f;
  core::Simulation zero = core::decks::make_lpi(p);
  expect_bitwise_equal(base, zero);
}

TEST(ClumpedDeck, ClumpingConcentratesParticlesNotCharge) {
  core::decks::LpiParams p;
  p.nx = 8;
  p.ny = 4;
  p.nz = 12;
  p.ppc = 4;
  core::Simulation uni = core::decks::make_lpi(p);
  p.clump_factor = 6.0f;
  core::Simulation clump = core::decks::make_lpi(p);

  const auto& su = uni.species(0);
  const auto& sc = clump.species(0);
  EXPECT_GT(sc.np, su.np);  // boosted cells carry extra particles

  // Per-cell: particle count varies, summed weight stays 1 (the weight is
  // divided by the same boost, so the physical density is unchanged).
  std::map<std::int32_t, int> count;
  std::map<std::int32_t, double> weight;
  for (index_t i = 0; i < sc.np; ++i) {
    count[sc.p(i).i]++;
    weight[sc.p(i).i] += static_cast<double>(sc.p(i).w);
  }
  int min_c = 1 << 30, max_c = 0;
  for (const auto& [v, c] : count) {
    min_c = std::min(min_c, c);
    max_c = std::max(max_c, c);
  }
  EXPECT_GT(max_c, p.ppc);       // center cells clumped
  EXPECT_LE(min_c, p.ppc);       // edge cells at baseline
  for (const auto& [v, w] : weight) EXPECT_NEAR(w, 1.0, 1e-5) << "voxel " << v;
}

TEST(SortIntegration, ParticlesSortedOnInterval) {
  auto sim = make_plasma(core::VectorStrategy::Auto,
                         vpic::sort::SortOrder::Standard,
                         /*sort_interval=*/5);
  sim.run(5);  // triggers a sort at step 5
  const auto keys = sim.species(0).cell_keys();
  EXPECT_TRUE(vpic::sort::is_sorted_ascending(keys));
}

TEST(SortIntegration, StridedOrderAfterSort) {
  auto sim = make_plasma(core::VectorStrategy::Auto,
                         vpic::sort::SortOrder::Strided,
                         /*sort_interval=*/5);
  sim.run(5);
  const auto keys = sim.species(0).cell_keys();
  EXPECT_TRUE(vpic::sort::is_strided_order(keys));
  EXPECT_FALSE(vpic::sort::is_sorted_ascending(keys));
}

TEST(SortIntegration, SortPreservesParticleSet) {
  auto sim = make_plasma(core::VectorStrategy::Auto);
  auto& sp = sim.species(0);
  double ke_before = sp.kinetic_energy();
  core::sort_particles(sp, vpic::sort::SortOrder::TiledStrided, 8);
  EXPECT_NEAR(sp.kinetic_energy(), ke_before, 1e-9 * std::abs(ke_before));
}

TEST(PushTiming, AccumulatesAcrossSteps) {
  // A step's push time is the sum of its "push[<species>]" phases.
  auto sim = make_plasma(core::VectorStrategy::Auto);
  EXPECT_TRUE(sim.last_phase_stats().empty());
  double push_s = 0;
  for (int i = 0; i < 3; ++i) {
    sim.step();
    for (const auto& ph : sim.last_phase_stats())
      if (ph.name.starts_with("push[")) push_s += ph.seconds;
  }
  EXPECT_GT(push_s, 0.0);
}

TEST(Determinism, FreshSameDeckRunsAreBitIdentical) {
  // The determinism baseline the checkpoint bit-identity guarantee
  // (docs/CHECKPOINT.md, tests/test_ckpt.cpp) builds on: fresh
  // simulations from the same deck, Standard-sorted before the first step,
  // agree to the last particle and field bit at 1, 2 and 4 OpenMP
  // threads. Every push is then in exact cell order, where each chunk
  // writes only the cells of its own runs and applies its other deposit
  // segments in slot order (docs/ASYNC.md, "Determinism"). Energies are
  // not compared: pk::parallel_reduce sums in a thread-count-dependent
  // order.
  const auto run = [](int threads) {
    pk::initialize(threads);
    auto sim = make_plasma(core::VectorStrategy::Auto,
                           vpic::sort::SortOrder::Standard,
                           /*sort_interval=*/3);
    for (std::size_t s = 0; s < sim.num_species(); ++s)
      core::sort_particles(sim.species(s), vpic::sort::SortOrder::Standard,
                           0, 0, sim.grid().nv());
    sim.run(12);
    return sim;
  };
  const auto same = [](const pk::View<float, 1>& x,
                       const pk::View<float, 1>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(),
                       static_cast<std::size_t>(x.size()) * sizeof(float)) ==
               0;
  };
  auto a = run(1);
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    auto b = run(threads);
    for (std::size_t s = 0; s < a.num_species(); ++s) {
      ASSERT_EQ(a.species(s).np, b.species(s).np);
      EXPECT_EQ(std::memcmp(a.species(s).p.data(), b.species(s).p.data(),
                            static_cast<std::size_t>(a.species(s).np) *
                                sizeof(core::Particle)),
                0)
          << "species " << s << " diverged";
    }
    const auto& fa = a.fields();
    const auto& fb = b.fields();
    for (const auto& [va, vb] :
         {std::pair{&fa.ex, &fb.ex}, std::pair{&fa.ey, &fb.ey},
          std::pair{&fa.ez, &fb.ez}, std::pair{&fa.bx, &fb.bx},
          std::pair{&fa.by, &fb.by}, std::pair{&fa.bz, &fb.bz},
          std::pair{&fa.jx, &fb.jx}, std::pair{&fa.jy, &fb.jy},
          std::pair{&fa.jz, &fb.jz}})
      EXPECT_TRUE(same(*va, *vb));
  }
  pk::initialize();  // restore the default thread count
}

// ----------------------------------------------------------------------
// Exact cell order: from a Standard sort, every push writes each cell's
// run record from the one chunk that owns the cell and applies every
// other deposit segment in slot order, so the step is bit-identical at
// any OpenMP thread count, collisions included (docs/ASYNC.md,
// "Determinism").
// ----------------------------------------------------------------------

namespace {

struct ExactDeck {
  const char* name;
  std::function<core::Simulation()> make;
};

std::vector<ExactDeck> exact_decks() {
  core::decks::LpiParams lpi;
  lpi.nx = 12;
  lpi.ny = 6;
  lpi.nz = 6;
  lpi.ppc = 4;
  core::decks::LpiParams clumped;
  clumped.nx = 8;
  clumped.ny = 4;
  clumped.nz = 8;
  clumped.ppc = 4;
  clumped.clump_factor = 4.0f;
  core::decks::WeibelParams weibel;
  weibel.nx = weibel.ny = weibel.nz = 6;
  weibel.ppc = 4;
  return {{"lpi", [lpi] { return core::decks::make_lpi(lpi); }},
          {"clumped", [clumped] { return core::decks::make_lpi(clumped); }},
          {"weibel_collide", [weibel] {
             core::Simulation sim = core::decks::make_weibel(weibel);
             sim.add_module<core::CollisionModule>();
             return sim;
           }}};
}

/// 100 steps from a Standard sort of every species, on `threads` OpenMP
/// threads.
core::Simulation run_exact(const ExactDeck& d, int threads) {
  pk::initialize(threads);
  core::Simulation sim = d.make();
  for (std::size_t s = 0; s < sim.num_species(); ++s)
    core::sort_particles(sim.species(s), vpic::sort::SortOrder::Standard, 0,
                         0, sim.grid().nv());
  sim.run(100);
  for (const core::PushPath taken : sim.last_push_paths())
    EXPECT_EQ(taken, core::PushPath::RunAware);
  return sim;
}

}  // namespace

TEST(ExactOrder, StepIsBitIdenticalAtAnyThreadCount) {
  for (const ExactDeck& d : exact_decks()) {
    SCOPED_TRACE(d.name);
    core::Simulation ref = run_exact(d, 1);
    for (const int threads : {2, 4}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      core::Simulation sim = run_exact(d, threads);
      expect_bitwise_equal(ref, sim);
    }
  }
  pk::initialize();  // restore the default thread count
}


TEST(QuasiPlanar, SingleCellAxisRunsStable) {
  // nz = 1 degenerates to a quasi-2D run (periodic wrap onto the same
  // cell); the engine must remain stable and conservative.
  core::SimulationConfig cfg;
  cfg.grid = core::Grid(12, 12, 1, 12, 12, 1, 0);
  cfg.grid.dt = core::Grid::courant_dt(1, 1, 1, 0.5f);
  core::Simulation sim(cfg);
  const auto e = sim.add_species("e", -1.0f, 1.0f, 4000);
  const auto i = sim.add_species("i", 1.0f, 100.0f, 4000);
  sim.load_uniform_plasma(e, 8, 0.1f);
  sim.load_uniform_plasma(i, 8, 0.01f);
  const double e0 = sim.energies().total();
  sim.run(20);
  const double e1 = sim.energies().total();
  EXPECT_TRUE(std::isfinite(e1));
  EXPECT_NEAR(e1, e0, 0.05 * e0);
  EXPECT_EQ(sim.species(e).np, 12 * 12 * 8);
}
