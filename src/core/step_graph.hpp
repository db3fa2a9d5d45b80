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
//     read-write in either direction) is ordered by some directed path —
//     an undeclared race is a construction-time std::logic_error, not a
//     nondeterministic result. A resource conflicts with its dotted
//     parts: a phase declaring "acc" conflicts with a tile task
//     declaring "acc.t3" (tile 3's planes of the accumulator).
//
// One executor runs a validated graph, level by level: a phase's level is
// one more than its deepest predecessor's, so the phases of one level are
// mutually unordered. A level of one phase runs on the calling thread; a
// level of several is one pk::StealPool round on the calling thread's
// OpenMP team (the tiled step's push fan-out, docs/TILES.md). Without a
// pool every level runs on the calling thread (the untiled step). Because
// every conflicting pair is ordered, a pool round only overlaps phases
// the declarations prove safe.
//
// This is the shape the task-based PIC ports take (ZPIC on OmpSs-2
// expresses the step loop as data-dependent tasks).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "pk/stealing.hpp"

namespace vpic::core {

/// One schedulable unit of a step. `reads`/`writes` name abstract
/// resources (any strings; conventionally "fields.eb", "fields.j",
/// "interp", "acc", "particles.<species>"). The body runs exactly once
/// per execution, on the calling thread or a member of a pool round.
struct StepPhase {
  std::string name;                 // unique, non-empty
  std::vector<std::string> reads;
  std::vector<std::string> writes;
  std::function<void()> fn;
  // Relative expected wall time, in any consistent unit (the tiled step
  // seeds it from measured s/particle * tile population). Only a pool
  // round reads it, for LPT initial placement.
  double cost = 1.0;
};

/// Per-phase record of the most recent execution.
struct PhaseStats {
  std::string name;
  double seconds = 0;          // wall time of the phase body
  std::uint32_t worker = 0;    // member of the StealPool round (0: caller)
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

  /// Run every phase, level by level. A level of one phase, and every
  /// level when `pool` is null, runs on the calling thread in insertion
  /// order; a level of several phases is one round of `pool`
  /// (pk/stealing.hpp), seeded LPT (longest `cost` first onto the
  /// least-loaded worker) so the expected load starts balanced, with
  /// idle workers stealing the rest. A phase that throws stops every
  /// later level: on the calling thread at once, in a pool round once
  /// the round drains. Returns the steal stats summed over the rounds.
  pk::StealStats execute(pk::StealPool* pool);

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }

  /// Wall time + placement of each phase in the most recent execution,
  /// in phase insertion order.
  [[nodiscard]] const std::vector<PhaseStats>& last_stats() const noexcept {
    return stats_;
  }

  /// Most phases that could run at once during the most recent
  /// execution: the widest pool round, capped at the worker count, or 1
  /// when every level ran on the calling thread.
  [[nodiscard]] std::size_t last_concurrency_peak() const noexcept {
    return concurrency_peak_;
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
  /// Run phase `id` on this thread and record its PhaseStats.
  void run(std::size_t id);

  std::vector<Node> nodes_;
  std::map<std::string, std::size_t, std::less<>> by_name_;
  std::vector<PhaseStats> stats_;
  std::size_t concurrency_peak_ = 0;
  // Set by validate(); valid while validated_.
  mutable std::vector<std::vector<std::size_t>> levels_;
  mutable bool validated_ = false;
};

}  // namespace vpic::core
