// Tests for the distributed (z-slab, minimpi-backed) PIC driver: rank
//-count invariance of the physics, particle-exchange correctness, halo
// consistency, conservation laws across rank boundaries, the cell order
// every rank step pushes in, the overlap setting's bit-identity, and the
// bit-identity of a migrating run at one and four kernel threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <map>
#include <string>

#include "core/core.hpp"
#include "minimpi/minimpi.hpp"

namespace core = vpic::core;
namespace mpi = vpic::mpi;
namespace pk = vpic::pk;
using pk::index_t;

namespace {

core::DomainConfig test_config() {
  core::DomainConfig cfg;
  cfg.nx = 6;
  cfg.ny = 6;
  cfg.nz = 8;
  cfg.lx = 6;
  cfg.ly = 6;
  cfg.lz = 8;
  cfg.seed = 1234;
  return cfg;
}

/// Run `steps` steps on `nranks` ranks; return the global energies and
/// particle count from rank 0.
struct RunResult {
  core::DistributedEnergy energy;
  std::int64_t np = 0;
  std::int64_t exchanged = 0;
};

RunResult run_distributed(int nranks, int steps, float uth = 0.2f,
                          float udz = 0.1f) {
  RunResult out;
  std::mutex m;
  mpi::run(nranks, [&](mpi::Comm& comm) {
    auto cfg = test_config();
    core::DistributedSimulation sim(cfg, comm);
    const auto e = sim.add_species("e", -1.0f, 1.0f, 20000);
    sim.load_uniform_plasma(e, 3, uth, 0.02f, -0.01f, udz);
    sim.run(steps);
    auto energy = sim.energies();
    auto np = sim.global_np(e);
    if (comm.rank() == 0) {
      std::lock_guard lk(m);
      out.energy = energy;
      out.np = np;
      out.exchanged = sim.exchanged_particles();
    }
  });
  return out;
}

}  // namespace

TEST(Domain, RejectsIndivisibleDecomposition) {
  EXPECT_THROW(mpi::run(3,
                        [&](mpi::Comm& comm) {
                          auto cfg = test_config();  // nz = 8, 3 ranks
                          core::DistributedSimulation sim(cfg, comm);
                        }),
               std::invalid_argument);
}

TEST(Domain, SingleRankRuns) {
  const auto r = run_distributed(1, 5);
  EXPECT_EQ(r.np, 6 * 6 * 8 * 3);
  EXPECT_TRUE(std::isfinite(r.energy.total()));
  EXPECT_GT(r.energy.total(), 0.0);
}

TEST(Domain, LoadIsRankCountInvariant) {
  // Zero steps: the loaded global particle set must be identical.
  const auto r1 = run_distributed(1, 0);
  const auto r2 = run_distributed(2, 0);
  const auto r4 = run_distributed(4, 0);
  EXPECT_EQ(r1.np, r2.np);
  EXPECT_EQ(r1.np, r4.np);
  EXPECT_NEAR(r1.energy.total(), r2.energy.total(),
              1e-9 * r1.energy.total());
  EXPECT_NEAR(r1.energy.total(), r4.energy.total(),
              1e-9 * r1.energy.total());
}

TEST(Domain, PhysicsMatchesAcrossRankCounts) {
  const int steps = 10;
  const auto r1 = run_distributed(1, steps);
  const auto r2 = run_distributed(2, steps);
  const auto r4 = run_distributed(4, steps);
  // Same global particle count (nothing lost or duplicated in exchange).
  EXPECT_EQ(r1.np, r2.np);
  EXPECT_EQ(r1.np, r4.np);
  // Same physics to fp-reordering tolerance.
  const double ref = r1.energy.total();
  EXPECT_NEAR(r2.energy.total(), ref, 2e-4 * ref);
  EXPECT_NEAR(r4.energy.total(), ref, 2e-4 * ref);
  EXPECT_NEAR(r2.energy.field, r1.energy.field,
              2e-3 * std::max(1e-12, r1.energy.field));
}

TEST(Domain, ParticlesActuallyMigrate) {
  // A strong z-drift guarantees slab crossings.
  const auto r = run_distributed(2, 10, 0.05f, 0.4f);
  EXPECT_GT(r.exchanged, 0);
}

TEST(Domain, ParticleCountConservedUnderHeavyMigration) {
  const auto before = run_distributed(4, 0, 0.05f, 0.45f);
  const auto after = run_distributed(4, 15, 0.05f, 0.45f);
  EXPECT_EQ(before.np, after.np);
}

TEST(Domain, EnergyConservedAcrossRanks) {
  const auto start = run_distributed(2, 0, 0.25f, 0.0f);
  const auto end = run_distributed(2, 30, 0.25f, 0.0f);
  EXPECT_NEAR(end.energy.total(), start.energy.total(),
              0.05 * start.energy.total());
}

TEST(Domain, LocalGridsPartitionGlobal) {
  mpi::run(4, [&](mpi::Comm& comm) {
    auto cfg = test_config();
    core::DistributedSimulation sim(cfg, comm);
    EXPECT_EQ(sim.local_grid().nz, 2);
    EXPECT_EQ(sim.z_offset(), comm.rank() * 2);
    EXPECT_FLOAT_EQ(sim.local_grid().dz, 1.0f);
  });
}

TEST(Domain, AllParticlesStayInLocalInterior) {
  mpi::run(2, [&](mpi::Comm& comm) {
    auto cfg = test_config();
    core::DistributedSimulation sim(cfg, comm);
    const auto e = sim.add_species("e", -1.0f, 1.0f, 20000);
    sim.load_uniform_plasma(e, 3, 0.15f, 0.0f, 0.0f, 0.3f);
    sim.run(8);
    const auto& g = sim.local_grid();
    const auto& sp = sim.species(e);
    for (index_t n = 0; n < sp.np; ++n)
      EXPECT_TRUE(g.is_interior(sp.p(n).i)) << "rank " << comm.rank();
  });
}

TEST(Domain, TwoSpeciesExchangeIndependently) {
  mpi::run(2, [&](mpi::Comm& comm) {
    auto cfg = test_config();
    core::DistributedSimulation sim(cfg, comm);
    const auto e = sim.add_species("e", -1.0f, 1.0f, 20000);
    const auto i = sim.add_species("i", 1.0f, 100.0f, 20000);
    sim.load_uniform_plasma(e, 2, 0.1f, 0, 0, 0.3f);
    sim.load_uniform_plasma(i, 2, 0.01f, 0, 0, -0.3f);
    sim.run(6);
    EXPECT_EQ(sim.global_np(e), 6 * 6 * 8 * 2);
    EXPECT_EQ(sim.global_np(i), 6 * 6 * 8 * 2);
    const auto energy = sim.energies();
    EXPECT_TRUE(std::isfinite(energy.total()));
  });
}

// ----------------------------------------------------------------------
// One schedule: every rank step Standard-sorts its species while the
// z-halo is in flight, then pushes the cells below plane nz and plane nz
// through push_on. DomainConfig::overlap only moves the halo wait.
// ----------------------------------------------------------------------

namespace {

/// A kernel team of one for the test's scope (a fixed deposit order),
/// restoring the previous team size afterwards.
struct OneKernelThread {
  int before = pk::concurrency();
  OneKernelThread() { pk::initialize(1); }
  ~OneKernelThread() { pk::initialize(before); }
};

/// A migrating two-species run: electrons drift up, ions down, at 12
/// particles per cell, so both sides of the boundary plane hold enough
/// particles for the run-aware push.
void load_migrating(core::DistributedSimulation& sim) {
  const auto e = sim.add_species("e", -1.0f, 1.0f, 20000);
  const auto i = sim.add_species("i", 1.0f, 100.0f, 20000);
  sim.load_uniform_plasma(e, 12, 0.05f, 0.02f, -0.01f, 0.4f);
  sim.load_uniform_plasma(i, 12, 0.01f, 0.0f, 0.0f, -0.3f);
}

struct RankState {
  std::vector<core::Particle> parts;  // both species, in slot order
  std::vector<float> fields;          // every component, every voxel
  std::int64_t exchanged = 0;
};

std::vector<RankState> run_states(int nranks, core::VectorStrategy strategy,
                                  bool overlap, int steps) {
  std::vector<RankState> out(static_cast<std::size_t>(nranks));
  mpi::run(nranks, [&](mpi::Comm& comm) {
    auto cfg = test_config();
    cfg.strategy = strategy;
    cfg.overlap = overlap;
    core::DistributedSimulation sim(cfg, comm);
    load_migrating(sim);
    sim.run(steps);
    RankState& st = out[static_cast<std::size_t>(comm.rank())];
    for (std::size_t s = 0; s < 2; ++s) {
      const core::Species& sp = sim.species(s);
      st.parts.insert(st.parts.end(), sp.p.data(), sp.p.data() + sp.np);
    }
    const auto& f = sim.fields();
    for (const auto* v :
         {&f.ex, &f.ey, &f.ez, &f.bx, &f.by, &f.bz, &f.jx, &f.jy, &f.jz})
      st.fields.insert(st.fields.end(), v->data(), v->data() + v->size());
    st.exchanged = sim.exchanged_particles();
  });
  return out;
}

template <class T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// The species of the rank stepping on this thread, checked from the
// profiling hook table when the step opens its "interior_push" region:
// after the top-of-step sort, before any particle moves.
thread_local std::vector<const core::Species*> tl_rank_species;
std::atomic<int> g_order_checks{0};
std::atomic<int> g_order_failures{0};

void check_order_at_push(const char* region) {
  if (tl_rank_species.empty() || std::strcmp(region, "interior_push") != 0)
    return;
  for (const core::Species* sp : tl_rank_species) {
    bool ascending = sp->exact_cell_order();
    for (index_t n = 1; n < sp->np; ++n)
      ascending = ascending && sp->p.cell(n - 1) <= sp->p.cell(n);
    g_order_checks.fetch_add(1);
    if (!ascending) g_order_failures.fetch_add(1);
  }
}

}  // namespace

TEST(DomainSchedule, OverlapAndFencedAreBitIdenticalAtOneThread) {
  const OneKernelThread one;
  const core::VectorStrategy strategies[] = {
      core::VectorStrategy::Auto, core::VectorStrategy::Guided,
      core::VectorStrategy::Manual, core::VectorStrategy::AdHoc};
  for (const int nranks : {2, 4}) {
    for (const core::VectorStrategy strategy : strategies) {
      SCOPED_TRACE(std::to_string(nranks) + " ranks, " +
                   core::to_string(strategy));
      const auto fenced = run_states(nranks, strategy, false, 8);
      const auto overlapped = run_states(nranks, strategy, true, 8);
      std::int64_t exchanged = 0;
      for (int r = 0; r < nranks; ++r) {
        const auto& a = fenced[static_cast<std::size_t>(r)];
        const auto& b = overlapped[static_cast<std::size_t>(r)];
        EXPECT_TRUE(same_bytes(a.parts, b.parts)) << "rank " << r;
        EXPECT_TRUE(same_bytes(a.fields, b.fields)) << "rank " << r;
        EXPECT_EQ(a.exchanged, b.exchanged) << "rank " << r;
        exchanged += a.exchanged;
      }
      EXPECT_GT(exchanged, 0);  // the run migrates
    }
  }
}

TEST(DomainSchedule, MigratingRunsAreBitIdenticalAtOneAndFourKernelThreads) {
  // Every rank step Standard-sorts its species before the push, so each
  // push of [0, k) and [k, np) is in exact cell order: a chunk writes the
  // cells of its own runs and its other deposit segments are applied in
  // chunk order, and its exits are queued per chunk and concatenated in
  // chunk order. AdHoc has no run-aware path and deposits with atomics.
  const int before = pk::concurrency();
  const core::VectorStrategy strategies[] = {core::VectorStrategy::Auto,
                                             core::VectorStrategy::Guided,
                                             core::VectorStrategy::Manual};
  for (const int nranks : {2, 4}) {
    for (const core::VectorStrategy strategy : strategies) {
      SCOPED_TRACE(std::to_string(nranks) + " ranks, " +
                   core::to_string(strategy));
      pk::initialize(1);
      const auto one = run_states(nranks, strategy, true, 8);
      pk::initialize(4);
      const auto four = run_states(nranks, strategy, true, 8);
      std::int64_t exchanged = 0;
      for (int r = 0; r < nranks; ++r) {
        const auto& a = one[static_cast<std::size_t>(r)];
        const auto& b = four[static_cast<std::size_t>(r)];
        EXPECT_TRUE(same_bytes(a.parts, b.parts)) << "rank " << r;
        EXPECT_TRUE(same_bytes(a.fields, b.fields)) << "rank " << r;
        EXPECT_EQ(a.exchanged, b.exchanged) << "rank " << r;
        exchanged += a.exchanged;
      }
      EXPECT_GT(exchanged, 0);  // the run migrates
    }
  }
  pk::initialize(before);
}

TEST(DomainSchedule, EveryRankPushesInAscendingCellOrder) {
  const pk::prof::EventHooks saved = pk::prof::hooks();
  pk::prof::EventHooks hooks;
  hooks.push_region = &check_order_at_push;
  pk::prof::set_event_hooks(hooks);
  g_order_checks = 0;
  g_order_failures = 0;
  const int steps = 10;
  for (const int nranks : {2, 4}) {
    std::atomic<std::int64_t> exchanged{0};
    mpi::run(nranks, [&](mpi::Comm& comm) {
      core::DistributedSimulation sim(test_config(), comm);
      load_migrating(sim);
      tl_rank_species = {&sim.species(0), &sim.species(1)};
      sim.run(steps);
      tl_rank_species.clear();
      exchanged += sim.exchanged_particles();
    });
    EXPECT_GT(exchanged.load(), 0) << nranks << " ranks";
  }
  pk::prof::set_event_hooks(saved);
  // Two species per rank per step, on 2 and then 4 ranks.
  EXPECT_EQ(g_order_checks.load(), 2 * steps * (2 + 4));
  EXPECT_EQ(g_order_failures.load(), 0);
}
