// core/step_graph.hpp
//
// Dependency-aware step scheduling: Simulation::step() is expressed as an
// explicit graph of named phases (interpolator-load, push, accumulator
// unload, field advance, sort, ...) instead of a hard-coded serial
// sequence. Each phase declares the resources it reads and writes
// ("fields.eb", "acc", "particles.<species>", ...); edges declare
// execution order. validate() proves the graph safe before anything runs:
//
//   * no cycles, and
//   * every pair of phases whose declared sets conflict (write-write, or
//     read-write in either direction, on an equal resource name) is
//     ordered by some directed path — an undeclared race is a
//     construction-time std::logic_error, not a nondeterministic result.
//
// One executor runs a validated graph, level by level, on the calling
// thread: a phase's level is one more than its deepest predecessor's, and
// each level runs in phase insertion order. A phase's kernels run on the
// calling thread's OpenMP team (docs/ASYNC.md).
//
// This is the shape the task-based PIC ports take (ZPIC on OmpSs-2
// expresses the step loop as data-dependent tasks).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace vpic::core {

/// One schedulable unit of a step. `reads`/`writes` name abstract
/// resources (any strings; conventionally "fields.eb", "fields.j",
/// "interp", "acc", "particles.<species>"). The body runs exactly once
/// per execution, on the calling thread.
struct StepPhase {
  std::string name;                 // unique, non-empty
  std::vector<std::string> reads;
  std::vector<std::string> writes;
  std::function<void()> fn;
};

/// Per-phase record of the most recent execution.
struct PhaseStats {
  std::string name;
  double seconds = 0;  // wall time of the phase body
};

class StepGraph {
 public:
  /// Add a phase; returns its index. Throws std::invalid_argument on an
  /// empty or duplicate name.
  std::size_t add_phase(StepPhase phase);

  /// Declare that `before` must complete before `after` starts (phases
  /// named by their StepPhase::name). Throws std::invalid_argument on
  /// unknown names or a self-edge.
  void add_edge(std::string_view before, std::string_view after);

  /// Prove the graph schedulable: acyclic, and every conflicting pair
  /// ordered by a path. Throws std::logic_error naming the offending
  /// cycle member or the racing phase pair and resource. Idempotent;
  /// execute() calls it if it has not run since the last mutation.
  void validate() const;

  /// Run every phase on the calling thread, level by level, each level
  /// in insertion order. A phase that throws stops every later phase.
  void execute();

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }

  /// Wall time of each phase in the most recent execution, in phase
  /// insertion order.
  [[nodiscard]] const std::vector<PhaseStats>& last_stats() const noexcept {
    return stats_;
  }

  /// GraphViz rendering of phases and edges (docs/ASYNC.md shows one).
  [[nodiscard]] std::string dot() const;

 private:
  struct Node {
    StepPhase phase;
    std::vector<std::size_t> succ;
  };

  /// Phase ids grouped by level, each level in insertion order. Throws
  /// std::logic_error on a cycle.
  [[nodiscard]] std::vector<std::vector<std::size_t>> levels() const;
  [[nodiscard]] std::vector<std::vector<bool>> reachability() const;

  std::vector<Node> nodes_;
  std::map<std::string, std::size_t, std::less<>> by_name_;
  std::vector<PhaseStats> stats_;
  // Set by validate(); valid while validated_.
  mutable std::vector<std::vector<std::size_t>> levels_;
  mutable bool validated_ = false;
};

}  // namespace vpic::core
