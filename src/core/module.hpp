// core/module.hpp
//
// Composable physics-module registry (docs/MODULES.md): Simulation::step()
// is no longer a hard-coded pipeline but a composition over registered
// PhysicsModule objects. Each module declares its step phases — name and
// read/write resource sets — plus its versioned checkpoint sections and
// its counter-based RNG stream requirements. The core pipeline itself
// (interpolate, push, accumulate, field advance, injection, diagnostics,
// sort, checkpoint) is registered through the same interface
// (core/pipeline_modules.cpp), so Simulation::step() is generic
// composition over the registry.
//
// This is the seam the plugin-registry PIC architectures (PIConGPU's
// plugin system, chombo-discharge's physics layers) use to absorb new
// physics without touching the scheduler: a new module — collisions
// (core/collide.hpp), tracer particles (core/tracer.hpp) — composes with
// the StepGraph validator, checkpoint/restore and farm preemption for
// free, because each of those consumes the module's declarations instead
// of a hand-maintained list.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/file.hpp"
#include "core/rng.hpp"
#include "core/step_graph.hpp"

namespace vpic::core {

class Simulation;

/// Canonical position of a module's phases in the step. Modules plan in
/// ascending stage order (ties keep registration order), so the spine
/// each one extends orders the step physically sensibly without any
/// module knowing its neighbors.
enum class StepStage : std::uint8_t {
  Gather = 0,       // fields -> interpolator, accumulator clear
  Push = 10,        // particle advance (and passive movers, e.g. tracers)
  Deposit = 20,     // accumulator reduce -> J
  Field = 30,       // Maxwell advance
  Inject = 40,      // deck injection hooks
  Collide = 50,     // momentum-space operators on post-injection particles
  Diagnose = 60,    // energy history, trajectory flushes
  Sort = 70,        // particle reordering
  Checkpoint = 80,  // periodic snapshot
};

/// FNV-1a over a string — stable module-id hashing for RNG domains.
inline std::uint64_t fnv1a64(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Per-module counter-based RNG domain (docs/MODULES.md, "RNG streams").
/// A module derives one stream per logical site — conventionally
/// (step, substream, site) — and draws from it with the counter-based
/// generators in core/rng.hpp. Because a stream is a pure function of the
/// key and never of execution order, results are bit-deterministic across
/// thread counts, schedules, and particle layouts.
struct ModuleRng {
  std::uint64_t domain = 0;

  /// Derive a stream seed from up to three key components.
  [[nodiscard]] std::uint64_t stream(std::uint64_t a, std::uint64_t b = 0,
                                     std::uint64_t c = 0) const noexcept {
    return hash64(domain ^ hash64(a ^ hash64(b ^ hash64(c))));
  }
};

/// Build-time context handed to PhysicsModule::plan(): which step is being
/// built.
struct ModuleStepContext {
  std::int64_t next_step = 0;  // step count once this step completes

  /// The particle resource a phase declares for `species`:
  /// "particles.<species>".
  [[nodiscard]] static std::string particles(const std::string& species) {
    return "particles." + species;
  }
};

/// Prefix-scoped writer for a module's checkpoint sections: every section
/// a module adds lands under "mod.<id>." so restore can skip an unknown
/// module's sections wholesale without understanding them.
class ModuleStateWriter {
 public:
  ModuleStateWriter(ckpt::FileWriter& w, std::string prefix)
      : w_(w), prefix_(std::move(prefix)) {}

  void add_bytes(std::string_view name, const void* data, std::size_t n) {
    w_.add_bytes(prefix_ + std::string(name), data, n);
  }
  template <class Pod>
  void add_pod(std::string_view name, const Pod& v) {
    w_.add_pod(prefix_ + std::string(name), v);
  }
  template <class Pod>
  void add_vector(std::string_view name, const std::vector<Pod>& v) {
    w_.add_vector(prefix_ + std::string(name), v);
  }

 private:
  ckpt::FileWriter& w_;
  std::string prefix_;
};

/// Prefix-scoped reader mirroring ModuleStateWriter. Wraps the abstract
/// ckpt::SectionSource, so module state restores identically from a plain
/// checkpoint file and from a resolved elastic generation chain
/// (docs/ELASTIC.md).
class ModuleStateReader {
 public:
  ModuleStateReader(ckpt::SectionSource& f, std::string prefix)
      : f_(f), prefix_(std::move(prefix)) {}

  [[nodiscard]] bool has(std::string_view name) const {
    return f_.has(prefix_ + std::string(name));
  }
  const ckpt::EncodedSection& section(std::string_view name) {
    return f_.section(prefix_ + std::string(name));
  }
  template <class Pod>
  Pod pod(std::string_view name) {
    return f_.pod<Pod>(prefix_ + std::string(name));
  }
  template <class Pod>
  std::vector<Pod> vector(std::string_view name) {
    return f_.vector<Pod>(prefix_ + std::string(name));
  }

 private:
  ckpt::SectionSource& f_;
  std::string prefix_;
};

/// One unregistered-module section group skipped during restore: the file
/// held state for a module this simulation does not have (or a newer state
/// version than the registered module understands). The restore succeeds —
/// everything else is applied — and the skip is reported here instead of
/// corrupting anything (docs/CHECKPOINT.md, "Forward compatibility").
struct ModuleSectionSkip {
  std::string module;          // module id from the file's mod.index
  std::uint32_t version = 0;   // state version the file recorded
  std::size_t sections = 0;    // "mod.<id>.*" sections left unread
};

class StepComposer;

/// A pluggable physics/pipeline component. Lifetime: owned by the
/// Simulation registry; attach() runs once at registration (the only time
/// a module may inspect the simulation outside a step); plan() runs at
/// the top of every step to contribute phases to that step's graph.
/// Modules MUST NOT store the Simulation& — simulations are moved (deck
/// factories return them by value); every hook re-receives the reference.
class PhysicsModule {
 public:
  virtual ~PhysicsModule() = default;

  /// Stable identifier: registry key, checkpoint section prefix
  /// ("mod.<id>."), RNG domain, prof counter namespace.
  [[nodiscard]] virtual std::string_view id() const = 0;

  [[nodiscard]] virtual StepStage stage() const = 0;

  /// Called once when the module is registered (after any same-stage
  /// predecessors). Derive RNG domains, seed module-owned particles, etc.
  virtual void attach(Simulation&) {}

  /// Contribute this step's phases. Called every step, in registry order.
  /// A module that is idle this step simply adds nothing.
  virtual void plan(Simulation& sim, const ModuleStepContext& ctx,
                    StepComposer& c) = 0;

  // ---- checkpoint sections (versioned, module-owned) -----------------
  /// True when the module has state to serialize; stateless modules keep
  /// the default and add nothing to checkpoint files.
  [[nodiscard]] virtual bool has_state() const { return false; }
  [[nodiscard]] virtual std::uint32_t state_version() const { return 1; }
  virtual void save_state(ModuleStateWriter&) const {}
  virtual void load_state(ModuleStateReader&, std::uint32_t /*version*/) {}
  /// The restored file predates this module (no sections for it): reset
  /// to the attach-time state so restore is a complete overwrite.
  virtual void clear_state() {}

  /// Called right after every checkpoint is taken (sync and async alike,
  /// after the snapshot encode — the module's state is already captured).
  /// Durability hook for module-owned side outputs: the tracer module
  /// flushes its trajectory CSV here so external files never lag the
  /// checkpoint they would be replayed against.
  virtual void on_checkpoint(Simulation&) {}
};

/// The surface modules plan phases against. Wraps the step's StepGraph
/// with the composition conventions that keep a multi-module step both
/// valid (every declared conflict path-ordered) and bit-reproducible.
/// The edges alone order the step: StepGraph::execute runs it level by
/// level, whatever order the phases were added in.
///
///  * spine/branch/join: add_spine() appends to the step's serial spine
///    (ordered after the current tail and every pending join, then
///    becomes the tail); add_branch() hangs off the tail and the pending
///    joins without becoming the tail; join() parks a phase for the next
///    spine phase — and every later branch — to order after (how
///    per-species sorts chain and rejoin before the checkpoint, and how
///    side phases like tracers order before the next spine stage).
///  * later modules order against the Gather stage's "interpolate" and
///    "acc_clear" phases by name.
///  * all_resources(): every resource declared by any phase so far — the
///    conservative write set of hooks that receive the whole Simulation&
///    (replaces the hand-rolled "everything" lists the pre-registry
///    builders maintained).
class StepComposer {
 public:
  explicit StepComposer(StepGraph& g) : g_(g) {}

  /// Add a phase; ordering is the caller's job via edge().
  void add(StepPhase p);

  /// Add a phase on the step spine: after tail + pending joins, becomes
  /// the tail, clears pending joins.
  void add_spine(StepPhase p);

  /// Add a phase ordered after the tail and pending joins without
  /// becoming the tail (pending joins stay pending).
  void add_branch(StepPhase p);

  /// Directed edge.
  void edge(const std::string& before, const std::string& after);

  /// Park `phase` for the next add_spine() to order after.
  void join(std::string phase);

  void set_tail(std::string phase) { tail_ = std::move(phase); }
  [[nodiscard]] const std::string& tail() const { return tail_; }

  /// Every resource any phase has declared so far (sorted, deduped).
  [[nodiscard]] std::vector<std::string> all_resources() const {
    return {resources_.begin(), resources_.end()};
  }

  [[nodiscard]] StepGraph& graph() { return g_; }

 private:
  StepGraph& g_;
  std::string tail_;               // spine tail
  std::vector<std::string> pending_;  // parked joins
  std::set<std::string> resources_;
};

/// Register the built-in pipeline modules (interpolate/push/accumulate/
/// field/injection/diagnostics/sort/ckpt) on a fresh Simulation. Called by
/// the Simulation constructor; defined in core/pipeline_modules.cpp.
void register_core_pipeline(Simulation& sim);

}  // namespace vpic::core
