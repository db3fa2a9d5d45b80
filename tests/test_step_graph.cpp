// Tests for the dependency-aware step graph (core/step_graph.hpp) and the
// step built on it (docs/ASYNC.md): construction-time validation (cycles,
// undeclared races), the level-by-level executor, and the step's
// telemetry.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/decks.hpp"
#include "core/simulation.hpp"
#include "core/step_graph.hpp"
#include "pk/pk.hpp"

namespace core = vpic::core;
namespace pk = vpic::pk;

namespace {

class PkEnv : public ::testing::Environment {
 public:
  // One kernel thread, so the deck steps here are reproducible:
  // float-atomic deposits reorder sums on wider teams.
  void SetUp() override { pk::initialize(1); }
};
[[maybe_unused]] const auto* const env =
    ::testing::AddGlobalTestEnvironment(new PkEnv);

core::StepPhase phase(std::string name, std::vector<std::string> reads,
                      std::vector<std::string> writes,
                      std::function<void()> fn = [] {}) {
  return {std::move(name), std::move(reads), std::move(writes),
          std::move(fn)};
}

}  // namespace

// ----------------------------------------------------------------------
// Construction and validation.
// ----------------------------------------------------------------------

TEST(StepGraphValidate, EmptyNameRejected) {
  core::StepGraph g;
  EXPECT_THROW(g.add_phase(phase("", {}, {})), std::invalid_argument);
}

TEST(StepGraphValidate, DuplicateNameRejected) {
  core::StepGraph g;
  g.add_phase(phase("a", {}, {}));
  EXPECT_THROW(g.add_phase(phase("a", {}, {})), std::invalid_argument);
}

TEST(StepGraphValidate, UnknownEdgeEndpointRejected) {
  core::StepGraph g;
  g.add_phase(phase("a", {}, {}));
  EXPECT_THROW(g.add_edge("a", "nope"), std::invalid_argument);
  EXPECT_THROW(g.add_edge("nope", "a"), std::invalid_argument);
}

TEST(StepGraphValidate, SelfEdgeRejected) {
  core::StepGraph g;
  g.add_phase(phase("a", {}, {}));
  EXPECT_THROW(g.add_edge("a", "a"), std::invalid_argument);
}

TEST(StepGraphValidate, CycleRejected) {
  core::StepGraph g;
  g.add_phase(phase("a", {}, {}));
  g.add_phase(phase("b", {}, {}));
  g.add_phase(phase("c", {}, {}));
  g.add_edge("a", "b");
  g.add_edge("b", "c");
  g.add_edge("c", "a");
  EXPECT_THROW(g.validate(), std::logic_error);
}

TEST(StepGraphValidate, UnorderedWriteWriteRaceRejected) {
  core::StepGraph g;
  g.add_phase(phase("a", {}, {"acc"}));
  g.add_phase(phase("b", {}, {"acc"}));
  try {
    g.validate();
    FAIL() << "unordered write-write race accepted";
  } catch (const std::logic_error& e) {
    // The diagnostic names both phases and the racing resource.
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'a'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'b'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'acc'"), std::string::npos) << msg;
  }
}

TEST(StepGraphValidate, UnorderedReadWriteRaceRejected) {
  core::StepGraph g;
  g.add_phase(phase("reader", {"fields.eb"}, {}));
  g.add_phase(phase("writer", {}, {"fields.eb"}));
  EXPECT_THROW(g.validate(), std::logic_error);
}

TEST(StepGraphValidate, OrderedConflictAccepted) {
  core::StepGraph g;
  g.add_phase(phase("w1", {}, {"acc"}));
  g.add_phase(phase("w2", {}, {"acc"}));
  g.add_phase(phase("r", {"acc"}, {}));
  g.add_edge("w1", "w2");
  g.add_edge("w2", "r");
  EXPECT_NO_THROW(g.validate());
}

TEST(StepGraphValidate, TransitivePathOrdersConflict) {
  // w1 -> mid -> w2: the conflicting pair (w1, w2) has no direct edge but
  // is ordered by a path, which is all validate() requires.
  core::StepGraph g;
  g.add_phase(phase("w1", {}, {"x"}));
  g.add_phase(phase("mid", {}, {}));
  g.add_phase(phase("w2", {}, {"x"}));
  g.add_edge("w1", "mid");
  g.add_edge("mid", "w2");
  EXPECT_NO_THROW(g.validate());
}

TEST(StepGraphValidate, OnlyEqualNamesConflict) {
  // Resources are names, not paths: species "e" and "e.hot" declare
  // "particles.e" and "particles.e.hot", which may run unordered.
  core::StepGraph g;
  g.add_phase(phase("push_e", {}, {"particles.e"}));
  g.add_phase(phase("push_e_hot", {}, {"particles.e.hot"}));
  g.add_phase(phase("other", {}, {"particles"}));
  EXPECT_NO_THROW(g.validate());
}

TEST(StepGraphValidate, ConcurrentReadersAccepted) {
  core::StepGraph g;
  g.add_phase(phase("r1", {"interp"}, {}));
  g.add_phase(phase("r2", {"interp"}, {}));
  EXPECT_NO_THROW(g.validate());
}

TEST(StepGraphValidate, DotNamesAllPhases) {
  core::StepGraph g;
  g.add_phase(phase("interpolate", {"fields.eb"}, {"interp"}));
  g.add_phase(phase("push", {"interp"}, {"acc"}));
  g.add_edge("interpolate", "push");
  const std::string dot = g.dot();
  EXPECT_NE(dot.find("interpolate"), std::string::npos);
  EXPECT_NE(dot.find("push"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

// ----------------------------------------------------------------------
// The executor: level by level on the calling thread.
// ----------------------------------------------------------------------

TEST(StepGraphExecute, RunsLevelsInInsertionOrderOnTheCallingThread) {
  // x is added first but ordered after y, so it runs a level later; y and
  // z share level 0 and keep their insertion order.
  core::StepGraph g;
  std::vector<std::string> order;
  const auto caller = std::this_thread::get_id();
  bool elsewhere = false;
  for (const char* n : {"x", "y", "z"})
    g.add_phase(phase(n, {}, {std::string("res.") + n}, [&, n] {
      order.emplace_back(n);
      elsewhere |= std::this_thread::get_id() != caller;
    }));
  g.add_edge("y", "x");
  g.execute();
  EXPECT_EQ(order, (std::vector<std::string>{"y", "z", "x"}));
  EXPECT_FALSE(elsewhere);
  ASSERT_EQ(g.last_stats().size(), 3u);
  EXPECT_EQ(g.last_stats()[0].name, "x");
}

TEST(StepGraphExecute, PhaseExceptionStopsLaterLevels) {
  core::StepGraph g;
  int after = 0;
  g.add_phase(
      phase("boom", {}, {"x"}, [] { throw std::runtime_error("phase boom"); }));
  g.add_phase(phase("after", {"x"}, {"y"}, [&after] { after++; }));
  g.add_edge("boom", "after");
  EXPECT_THROW(g.execute(), std::runtime_error);
  EXPECT_EQ(after, 0);
}

// ----------------------------------------------------------------------
// The step runs the validated graph on the calling thread, one phase at a
// time, and publishes its phase stats.
// ----------------------------------------------------------------------

TEST(StepGraphSimulation, StepPublishesPhaseStats) {
  core::decks::LpiParams p;
  p.nx = 8;
  p.ny = 4;
  p.nz = 4;
  p.ppc = 2;
  core::Simulation sim = core::decks::make_lpi(p);
  EXPECT_TRUE(sim.last_phase_stats().empty());
  sim.step();
  const auto& st = sim.last_phase_stats();
  ASSERT_FALSE(st.empty());
  bool saw_interpolate = false, saw_field_advance = false;
  std::size_t pushes = 0;
  for (const auto& s : st) {
    if (s.name == "interpolate") saw_interpolate = true;
    if (s.name == "field_advance") saw_field_advance = true;
    if (s.name.starts_with("push[")) ++pushes;
    EXPECT_GE(s.seconds, 0.0);
  }
  EXPECT_TRUE(saw_interpolate);
  EXPECT_TRUE(saw_field_advance);
  EXPECT_EQ(pushes, sim.num_species());
}
