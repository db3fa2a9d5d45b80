// Tests for the composable physics-module registry (core/module.hpp,
// docs/MODULES.md): registration semantics (stage ordering, duplicate
// rejection, lookup), the registry-composed step's bit-determinism across
// thread counts, the TracerModule plug-in (composition, trajectory
// sampling, checkpoint round-trip) and module-section forward
// compatibility (unknown sections skip with a typed report; files that
// predate a module clear its state).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/decks.hpp"
#include "core/simulation.hpp"
#include "core/tracer.hpp"
#include "pk/pk.hpp"

namespace core = vpic::core;
namespace pk = vpic::pk;
namespace fs = std::filesystem;
using pk::index_t;

namespace {

class PkEnv : public ::testing::Environment {
 public:
  // One kernel thread: bit-identity comparisons of decks that have not
  // been Standard-sorted need it, as their float-atomic deposits reorder
  // sums on wider teams.
  void SetUp() override { pk::initialize(1); }
};
[[maybe_unused]] const auto* const env =
    ::testing::AddGlobalTestEnvironment(new PkEnv);

core::Simulation make_lpi_small(std::uint64_t seed = 42) {
  core::decks::LpiParams p;
  p.nx = 12;
  p.ny = 4;
  p.nz = 4;
  p.ppc = 2;
  p.sort_interval = 10;
  p.seed = seed;
  auto sim = core::decks::make_lpi(p);
  sim.config().energy_interval = 5;
  return sim;
}

std::vector<core::Particle> canon(const core::Species& sp) {
  std::vector<core::Particle> out(static_cast<std::size_t>(sp.np));
  std::copy_n(sp.p.data(), sp.np, out.data());
  return out;
}

/// make_lpi_small, Standard-sorted before its first step: every push is
/// then in exact cell order, whose bits do not depend on the thread count.
core::Simulation make_lpi_small_sorted() {
  auto sim = make_lpi_small();
  for (std::size_t s = 0; s < sim.num_species(); ++s)
    core::sort_particles(sim.species(s), vpic::sort::SortOrder::Standard, 0,
                         0, sim.grid().nv());
  return sim;
}

bool same_fields(core::Simulation& a, core::Simulation& b) {
  const auto& fa = a.fields();
  const auto& fb = b.fields();
  for (const auto& [va, vb] :
       {std::pair{&fa.ex, &fb.ex}, std::pair{&fa.ey, &fb.ey},
        std::pair{&fa.ez, &fb.ez}, std::pair{&fa.bx, &fb.bx},
        std::pair{&fa.by, &fb.by}, std::pair{&fa.bz, &fb.bz},
        std::pair{&fa.jx, &fb.jx}, std::pair{&fa.jy, &fb.jy},
        std::pair{&fa.jz, &fb.jz}})
    if (va->size() != vb->size() ||
        std::memcmp(va->data(), vb->data(),
                    static_cast<std::size_t>(va->size()) * sizeof(float)) != 0)
      return false;
  return true;
}

bool same_particles(const core::Simulation& a, const core::Simulation& b) {
  auto& sa = const_cast<core::Simulation&>(a);
  auto& sb = const_cast<core::Simulation&>(b);
  if (sa.num_species() != sb.num_species()) return false;
  for (std::size_t s = 0; s < sa.num_species(); ++s) {
    const auto pa = canon(sa.species(s));
    const auto pb = canon(sb.species(s));
    if (pa.size() != pb.size()) return false;
    if (!pa.empty() &&
        std::memcmp(pa.data(), pb.data(),
                    pa.size() * sizeof(core::Particle)) != 0)
      return false;
  }
  return true;
}

fs::path scratch(const std::string& tag) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("vpic_mod_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<std::byte> tracer_bytes(const core::TracerModule& t) {
  std::vector<std::byte> b;
  const auto& parts = t.tracers();
  const auto traj = t.trajectory();
  b.resize(parts.size() * sizeof(core::TracerParticle) +
           traj.size() * sizeof(core::TracerSample));
  if (!parts.empty())
    std::memcpy(b.data(), parts.data(),
                parts.size() * sizeof(core::TracerParticle));
  if (!traj.empty())
    std::memcpy(b.data() + parts.size() * sizeof(core::TracerParticle),
                traj.data(), traj.size() * sizeof(core::TracerSample));
  return b;
}

}  // namespace

// ----------------------------------------------------------------------
// Registry semantics.
// ----------------------------------------------------------------------

TEST(ModuleRegistry, CorePipelineRegisteredInStageOrder) {
  auto sim = make_lpi_small();
  const auto& mods = sim.modules();
  ASSERT_EQ(mods.size(), 8u);
  const char* expect[] = {"interpolate", "push",        "accumulate",
                          "field",       "injection",   "diagnostics",
                          "sort",        "ckpt"};
  for (std::size_t i = 0; i < mods.size(); ++i) {
    EXPECT_EQ(mods[i]->id(), expect[i]) << "slot " << i;
    if (i > 0) EXPECT_LE(mods[i - 1]->stage(), mods[i]->stage());
  }
  EXPECT_NE(sim.find_module("push"), nullptr);
  EXPECT_EQ(sim.find_module("no_such_module"), nullptr);
}

TEST(ModuleRegistry, DuplicateIdRejected) {
  auto sim = make_lpi_small();
  sim.add_module<core::TracerModule>();
  EXPECT_THROW(sim.add_module<core::TracerModule>(), std::invalid_argument);
  EXPECT_THROW(sim.add_module(nullptr), std::invalid_argument);
}

TEST(ModuleRegistry, PluginInsertsAtItsStage) {
  auto sim = make_lpi_small();
  sim.add_module<core::TracerModule>();  // StepStage::Push
  const auto& mods = sim.modules();
  ASSERT_EQ(mods.size(), 9u);
  // Tied stages keep registration order: tracer lands after the core
  // push, before accumulate.
  std::size_t push_at = 0, tracer_at = 0, acc_at = 0;
  for (std::size_t i = 0; i < mods.size(); ++i) {
    if (mods[i]->id() == "push") push_at = i;
    if (mods[i]->id() == "tracer") tracer_at = i;
    if (mods[i]->id() == "accumulate") acc_at = i;
  }
  EXPECT_EQ(tracer_at, push_at + 1);
  EXPECT_EQ(acc_at, tracer_at + 1);
}

TEST(ModuleRegistry, ModuleRngIsPerModuleAndSeeded) {
  auto a = make_lpi_small(42);
  auto b = make_lpi_small(43);
  EXPECT_EQ(a.module_rng("collide").domain, a.module_rng("collide").domain);
  EXPECT_NE(a.module_rng("collide").domain, a.module_rng("tracer").domain);
  EXPECT_NE(a.module_rng("collide").domain, b.module_rng("collide").domain);
  const core::ModuleRng r = a.module_rng("collide");
  EXPECT_NE(r.stream(1, 2, 3), r.stream(1, 2, 4));
  EXPECT_EQ(r.stream(1, 2, 3), r.stream(1, 2, 3));
}

// ----------------------------------------------------------------------
// The composition guarantee: 100 registry-composed LPI steps from a
// Standard sort are bit-identical at 1, 2 and 4 kernel threads (particle
// and field bytes).
// ----------------------------------------------------------------------

TEST(ModuleStep, SortPhasesWriteTheSharedSortScratch) {
  // Every species sorts through the simulation's one scratch, so each
  // sort phase writes "sort.scratch": validate() proves the module's sorts
  // ordered, and rejects another sort left unordered against them.
  auto sim = make_lpi_small();
  ASSERT_EQ(sim.num_species(), 2u);
  core::StepGraph g;
  core::StepComposer c(g);
  core::ModuleStepContext ctx;
  ctx.next_step = sim.config().sort_interval;
  sim.find_module("sort")->plan(sim, ctx, c);
  ASSERT_EQ(g.size(), sim.num_species());
  const auto res = c.all_resources();
  EXPECT_NE(std::find(res.begin(), res.end(), "sort.scratch"), res.end());
  EXPECT_NO_THROW(g.validate());
  c.add({"sort[other]", {}, {"sort.scratch"}, [] {}});
  EXPECT_THROW(g.validate(), std::logic_error);
}

TEST(ModuleStep, StepBitIdenticalAcrossThreadCounts100Steps) {
  const auto run = [](int threads) {
    pk::initialize(threads);
    auto sim = make_lpi_small_sorted();
    sim.run(100);
    return sim;
  };
  auto ref = run(1);
  for (const int threads : {2, 4}) {
    auto sim = run(threads);
    EXPECT_TRUE(same_particles(ref, sim)) << threads << " threads";
    EXPECT_TRUE(same_fields(ref, sim)) << threads << " threads";
  }
  pk::initialize(1);
}

// ----------------------------------------------------------------------
// TracerModule.
// ----------------------------------------------------------------------

TEST(TracerModule, SeedsAndSamplesTrajectories) {
  auto sim = make_lpi_small();
  core::TracerParams tp;
  tp.species = 0;
  tp.stride = 8;
  tp.max_tracers = 16;
  tp.sample_interval = 2;
  auto& tracer = sim.add_module<core::TracerModule>(tp);
  EXPECT_TRUE(tracer.tracers().empty());  // lazy-seeded at first step
  sim.run(10);
  ASSERT_FALSE(tracer.tracers().empty());
  EXPECT_LE(tracer.tracers().size(), tp.max_tracers);
  // Samples on steps 2,4,6,8,10 for every tracer.
  EXPECT_EQ(tracer.samples_recorded(), tracer.tracers().size() * 5);
  const auto traj = tracer.trajectory();
  ASSERT_FALSE(traj.empty());
  EXPECT_EQ(traj.front().step, 2);
  EXPECT_EQ(traj.back().step, 10);
}

TEST(TracerModule, RingBufferEvictsOldest) {
  auto sim = make_lpi_small();
  core::TracerParams tp;
  tp.stride = 50;
  tp.max_tracers = 2;
  tp.sample_interval = 1;
  tp.ring_capacity = 6;
  auto& tracer = sim.add_module<core::TracerModule>(tp);
  sim.run(10);
  ASSERT_EQ(tracer.tracers().size(), 2u);
  EXPECT_EQ(tracer.samples_recorded(), 20u);
  const auto traj = tracer.trajectory();
  ASSERT_EQ(traj.size(), 6u);
  // Oldest first, newest retained.
  EXPECT_EQ(traj.front().step, 8);
  EXPECT_EQ(traj.back().step, 10);
}

TEST(TracerModule, DeterministicAcrossThreadCounts) {
  core::TracerParams tp;
  tp.stride = 8;
  tp.max_tracers = 16;
  tp.sample_interval = 1;

  // From a Standard sort the tracers shadow a plasma that is
  // bit-identical at every thread count, so their samples are too.
  std::vector<std::byte> ref;
  for (const int threads : {1, 2, 4}) {
    pk::initialize(threads);
    auto sim = make_lpi_small_sorted();
    auto& tracer = sim.add_module<core::TracerModule>(tp);
    sim.run(40);
    if (threads == 1) {
      ref = tracer_bytes(tracer);
    } else {
      EXPECT_EQ(ref, tracer_bytes(tracer)) << threads << " threads";
    }
  }
  pk::initialize(1);
  EXPECT_FALSE(ref.empty());

  // Unsorted at one kernel thread: two runs sample bit-identically, as
  // many samples as the sorted runs, and the plasma itself is untouched
  // by passive tracers.
  auto with = make_lpi_small();
  auto& t_unsorted = with.add_module<core::TracerModule>(tp);
  auto again = make_lpi_small();
  auto& t_again = again.add_module<core::TracerModule>(tp);
  auto without = make_lpi_small();
  with.run(40);
  again.run(40);
  without.run(40);
  const auto unsorted = tracer_bytes(t_unsorted);
  EXPECT_EQ(unsorted.size(), ref.size());
  EXPECT_EQ(unsorted, tracer_bytes(t_again));
  EXPECT_TRUE(same_particles(with, without));
}

// ----------------------------------------------------------------------
// Module checkpoint sections.
// ----------------------------------------------------------------------

TEST(ModuleCheckpoint, TracerStateRoundTripsBitIdentically) {
  const fs::path dir = scratch("tracer_rt");
  core::TracerParams tp;
  tp.stride = 8;
  tp.max_tracers = 16;
  tp.sample_interval = 1;

  auto sim = make_lpi_small();
  auto& tracer = sim.add_module<core::TracerModule>(tp);
  sim.run(25);
  sim.checkpoint((dir / "a.ckpt").string());

  auto restored = make_lpi_small();
  auto& r_tracer = restored.add_module<core::TracerModule>(tp);
  restored.restore((dir / "a.ckpt").string());
  EXPECT_TRUE(restored.last_restore_skips().empty());
  EXPECT_EQ(tracer_bytes(tracer), tracer_bytes(r_tracer));

  // A restored run continues bit-identically to one that never stopped —
  // including the module state.
  sim.run(40);
  restored.run(40);
  EXPECT_TRUE(same_particles(sim, restored));
  EXPECT_EQ(tracer_bytes(tracer), tracer_bytes(r_tracer));
}

TEST(ModuleCheckpoint, UnknownModuleSectionsSkipTyped) {
  const fs::path dir = scratch("tracer_skip");
  auto sim = make_lpi_small();
  sim.add_module<core::TracerModule>();
  sim.run(10);
  const auto expect_canon = canon(sim.species(0));
  sim.checkpoint((dir / "a.ckpt").string());

  // Restore into a simulation WITHOUT the tracer module: the unknown
  // "mod.tracer.*" sections are skipped with a typed report and the rest
  // of the state restores normally.
  auto plain = make_lpi_small();
  plain.restore((dir / "a.ckpt").string());
  ASSERT_EQ(plain.last_restore_skips().size(), 1u);
  const auto& skip = plain.last_restore_skips()[0];
  EXPECT_EQ(skip.module, "tracer");
  EXPECT_EQ(skip.version, 1u);
  EXPECT_GT(skip.sections, 0u);
  EXPECT_EQ(plain.step_count(), 10);
  const auto got = canon(plain.species(0));
  ASSERT_EQ(got.size(), expect_canon.size());
  EXPECT_EQ(std::memcmp(got.data(), expect_canon.data(),
                        got.size() * sizeof(core::Particle)),
            0);
}

TEST(ModuleCheckpoint, FilePredatingModuleClearsItsState) {
  const fs::path dir = scratch("tracer_clear");
  auto plain = make_lpi_small();
  plain.run(5);
  plain.checkpoint((dir / "a.ckpt").string());

  auto sim = make_lpi_small();
  auto& tracer = sim.add_module<core::TracerModule>();
  sim.run(10);
  ASSERT_GT(tracer.samples_recorded(), 0u);
  sim.restore((dir / "a.ckpt").string());
  // Restore is a complete overwrite: tracer state resets to attach-time.
  EXPECT_TRUE(sim.last_restore_skips().empty());
  EXPECT_TRUE(tracer.tracers().empty());
  EXPECT_EQ(tracer.samples_recorded(), 0u);
  EXPECT_EQ(sim.step_count(), 5);
}
