// core/simulation.hpp
//
// Top-level PIC simulation driver (VPIC's main loop):
//
//   per step: load interpolator from fields
//             clear accumulators
//             advance particles (gather / Boris / move+deposit) and apply
//               their deposit logs, then re-sort each Standard-sorted
//               species
//             reduce+unload accumulators into J
//             advance B half, advance E, advance B half
//             (every sort_interval steps) re-sort particles
//
// Strategy and sort order are runtime-selectable, which is what the
// benchmark harnesses sweep.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/accumulator.hpp"
#include "core/diagnostics.hpp"
#include "core/field.hpp"
#include "core/grid.hpp"
#include "core/interpolator.hpp"
#include "core/module.hpp"
#include "core/particle.hpp"
#include "core/push.hpp"
#include "core/sort_particles.hpp"
#include "core/step_graph.hpp"
#include "prof/prof.hpp"

namespace vpic::elastic {
// Incremental-checkpoint planner (src/elastic/delta.hpp). Forward-declared:
// core drives it only from core/checkpoint.cpp; the shared_ptr member
// type-erases the deleter so the header needs no elastic include.
class DeltaTracker;
}  // namespace vpic::elastic

// ---- Shims for bench/anatomy/step_anatomy.cpp -------------------------
// That benchmark stays unedited until ROADMAP item 1, which deletes this
// block, the two config fields and the three accessors marked "bench
// shim". It still assigns the retired scheduler and tiled-step settings
// and reads the tiled step's telemetry. Nothing in the program reads them:
// every step runs the one shape, so the telemetry stays at its defaults.
namespace vpic::pk {
struct StealStats {
  std::uint64_t steal_attempts = 0, steal_hits = 0, tasks_stolen = 0,
                idle_us = 0;
};
}  // namespace vpic::pk

namespace vpic::core {

enum class StepScheduler : std::uint8_t { Sequential };
enum class TileExec : std::uint8_t { Stealing };
struct TileConfig {
  bool enabled = false;
  TileExec exec = TileExec::Stealing;
  int workers = 2;
  std::uint64_t steal_seed = 0x9e3779b97f4a7c15ull;
};
/// What tile_map() returns: no tiles.
struct NoTiles {
  [[nodiscard]] int count() const noexcept { return 0; }
};
struct TileStepStats {
  double imbalance = 1.0;
  pk::StealStats steal;
};

}  // namespace vpic::core
// ---- end of the shims --------------------------------------------------

namespace vpic::core {

struct SimulationConfig {
  Grid grid;
  VectorStrategy strategy = VectorStrategy::Auto;
  // Push pipeline: AutoDetect engages the run-aware fast path while the
  // particle array is (still) cell-sorted; Generic pins the per-particle
  // kernels; RunAware forces the fast path (docs/PUSH.md).
  PushPath push_path = PushPath::AutoDetect;
  sort::SortOrder sort_order = sort::SortOrder::Standard;
  // Steps between global sorts in sort_order (0 disables sorting). It
  // paces the Strided, TiledStrided and Random orders and the first
  // Standard sort; from then on every step re-sorts a Standard-sorted
  // species after its push (docs/SORTING.md, "The Standard order, kept
  // every step"), and the interval skips the species' Standard sort.
  int sort_interval = 20;
  std::uint32_t sort_tile = 0; // tiled-strided tile size (0: pick default)
  int energy_interval = 0;     // record energies every N steps (0: off)
  std::uint64_t seed = 42;
  StepScheduler scheduler = StepScheduler::Sequential;  // bench shim
  // Periodic checkpointing (docs/CHECKPOINT.md), off by default: every
  // `checkpoint_every` steps write a generation "<checkpoint_path>.g<N>"
  // keeping the newest `checkpoint_keep_last` files. With
  // `checkpoint_async` the snapshot is deep-copied and written on a
  // background writer thread so stepping continues immediately.
  int checkpoint_every = 0;
  std::string checkpoint_path;
  int checkpoint_keep_last = 3;
  bool checkpoint_async = false;
  // Incremental delta-compressed generations (docs/ELASTIC.md): ring
  // generations become VPICELA2 chains — a full base every
  // `checkpoint_full_every` generations, then deltas storing only the
  // sections whose payload hash changed (particles tracked per fixed-size
  // chunk), with `checkpoint_codec` (elastic::Codec: 0 none, 1 DeltaPack)
  // losslessly packing stored payloads. With incremental on, keep_last
  // counts whole chains, so every retained recovery point stays complete.
  bool checkpoint_incremental = false;
  int checkpoint_full_every = 8;
  std::uint8_t checkpoint_codec = 1;
  // Stream TracerModule trajectory rings to this CSV file, flushed on
  // every checkpoint and at module destruction; empty disables
  // (docs/MODULES.md, "Tracers").
  std::string tracer_csv_path;
  TileConfig tiles;  // bench shim
};

/// Cumulative incremental-checkpoint telemetry (docs/ELASTIC.md),
/// accumulated per committed generation. `logical_bytes` is what a full
/// snapshot of each generation would have held; `stored_raw_bytes` the
/// raw size of the sections actually stored (the dirty set); and
/// `stored_bytes` the post-codec bytes written — so
/// logical/stored_raw is the incremental ratio and stored_raw/stored the
/// codec ratio.
struct ElasticCkptStats {
  std::int64_t full_generations = 0;
  std::int64_t delta_generations = 0;
  std::uint64_t full_file_bytes = 0;
  std::uint64_t delta_file_bytes = 0;
  std::uint64_t logical_bytes = 0;
  std::uint64_t stored_raw_bytes = 0;
  std::uint64_t stored_bytes = 0;
};

struct EnergyReport {
  double field = 0;
  std::vector<double> species;  // kinetic energy per species
  [[nodiscard]] double total() const {
    double t = field;
    for (double k : species) t += k;
    return t;
  }
};

class Simulation {
 public:
  explicit Simulation(const SimulationConfig& cfg)
      : cfg_(cfg),
        fields_(cfg.grid),
        interp_(cfg.grid),
        acc_(cfg.grid) {
    // The step pipeline itself is a set of registered physics modules
    // (docs/MODULES.md); decks and users add more with add_module().
    register_core_pipeline(*this);
  }

  /// Add a species with given charge/mass and capacity; returns its index.
  /// It sorts through the simulation's one SortScratch.
  std::size_t add_species(std::string name, float q, float m,
                          index_t capacity) {
    species_.emplace_back(std::move(name), q, m, capacity);
    species_.back().scratch = sort_scratch_;
    return species_.size() - 1;
  }

  /// Fill a species with a uniform thermal plasma: `ppc` particles per
  /// interior cell, Maxwellian momenta with thermal spread `uth`, drift
  /// (udx, udy, udz). Deterministic in the config seed and species index.
  void load_uniform_plasma(std::size_t species_idx, int ppc, float uth,
                           float udx = 0, float udy = 0, float udz = 0);

  /// One full PIC step.
  void step();

  void run(int nsteps) {
    for (int i = 0; i < nsteps; ++i) step();
  }

  /// Cooperative slice stepping (the vpic::farm scheduler's hook,
  /// docs/FARM.md): step until step_count() reaches `target` or `yield`
  /// returns true. The predicate is polled between whole steps only, so a
  /// yielded simulation is always at a step boundary — exactly the state
  /// checkpoint() captures — and a later restore resumes bit-identically.
  /// Returns the number of steps taken.
  std::int64_t run_until(std::int64_t target,
                         const std::function<bool()>& yield = {}) {
    std::int64_t taken = 0;
    while (step_count_ < target) {
      if (yield && yield()) break;
      step();
      ++taken;
    }
    return taken;
  }

  [[nodiscard]] EnergyReport energies() const;

  /// Charge density on nodes (for the continuity/conservation tests).
  [[nodiscard]] pk::View<double, 1> charge_density() const;

  Grid& grid() { return fields_.grid; }
  FieldArray& fields() { return fields_; }
  InterpolatorArray& interpolator() { return interp_; }
  AccumulatorArray& accumulator() { return acc_; }
  Species& species(std::size_t i) { return species_[i]; }
  [[nodiscard]] std::size_t num_species() const { return species_.size(); }
  [[nodiscard]] std::int64_t step_count() const { return step_count_; }
  SimulationConfig& config() { return cfg_; }

  /// Push pipeline taken for each species on the most recent step()
  /// (Generic or RunAware) — how AutoDetect resolved; empty before the
  /// first step.
  [[nodiscard]] const std::vector<PushPath>& last_push_paths() const {
    return last_push_paths_;
  }

  /// Snapshot of the global profiling state (regions, kernels, view
  /// allocations) — JSON via Report::to_json(), human table via
  /// Report::human_table(). Populated when profiling is enabled
  /// (VPIC_PROF=summary|trace or prof::enable()).
  [[nodiscard]] prof::Report profile_report() const { return prof::report(); }

  /// Per-step injection hook (e.g. a deck's laser antenna), called after
  /// the field advance of each step. A hook that changes a species'
  /// particle count ages its order hint (core/particle.hpp); one that
  /// moves particles to other cells in place must call
  /// mark_order_degraded() on the species itself.
  void set_injection_hook(std::function<void(Simulation&)> hook) {
    injection_hook_ = std::move(hook);
  }

  /// Energy time series (populated when config().energy_interval > 0).
  [[nodiscard]] const EnergyHistory& energy_history() const {
    return energy_history_;
  }

  /// Per-phase timings of the most recent step, in phase insertion
  /// order. Summing the "push[" entries gives the step's push time.
  [[nodiscard]] const std::vector<PhaseStats>& last_phase_stats() const {
    return last_phase_stats_;
  }

  [[nodiscard]] NoTiles tile_map() const { return {}; }  // bench shim
  [[nodiscard]] TileStepStats last_tile_stats() const {  // bench shim
    return {};
  }
  [[nodiscard]] std::size_t last_concurrency_peak() const {  // bench shim
    return 1;
  }

  // ---- physics-module registry (docs/MODULES.md) ---------------------

  /// Register a module. The registry stays sorted by StepStage (ties keep
  /// registration order); attach() runs immediately. Returns a reference
  /// that stays valid for the simulation's lifetime (modules are
  /// heap-owned). Throws std::invalid_argument on a duplicate id.
  PhysicsModule& add_module(std::unique_ptr<PhysicsModule> m);

  template <class M, class... Args>
  M& add_module(Args&&... args) {
    auto owned = std::make_unique<M>(std::forward<Args>(args)...);
    M& ref = *owned;
    add_module(std::unique_ptr<PhysicsModule>(std::move(owned)));
    return ref;
  }

  /// Registered module by id; nullptr when absent.
  [[nodiscard]] PhysicsModule* find_module(std::string_view id);

  [[nodiscard]] const std::vector<std::unique_ptr<PhysicsModule>>& modules()
      const {
    return modules_;
  }

  /// Per-module RNG domain, derived from the config seed and the module
  /// id — disjoint from the particle-loading streams and from every other
  /// module (docs/MODULES.md, "RNG streams").
  [[nodiscard]] ModuleRng module_rng(std::string_view id) const {
    return ModuleRng{hash64(cfg_.seed ^ fnv1a64(id))};
  }

  /// Module section groups the most recent restore() skipped because the
  /// file held state for a module this simulation does not register (or a
  /// newer state version). Empty after a fully-consumed restore.
  [[nodiscard]] const std::vector<ModuleSectionSkip>& last_restore_skips()
      const {
    return last_restore_skips_;
  }

  // ---- checkpoint/restart (docs/CHECKPOINT.md, src/ckpt) -------------

  /// Serialize the full state (fields, interpolators, accumulators, every
  /// species' live particles + sortedness metadata, diagnostics history,
  /// step count) to `path` with a rename-commit. Returns the committed
  /// file size in bytes.
  std::uint64_t checkpoint(const std::string& path);

  /// Asynchronous checkpoint: deep-copies the state into one of two
  /// snapshot buffers *now* (stepping may resume as soon as this returns)
  /// and commits the file on a background writer thread, started by the
  /// first call; commits run in submission order. At most two snapshots
  /// are in flight; a third call waits for the oldest, and rethrows the
  /// first failed commit if one has surfaced.
  void checkpoint_async(const std::string& path);

  /// Block until every pending asynchronous checkpoint has committed;
  /// rethrows the first commit failure since the last wait.
  void checkpoint_wait();

  /// Restore full state from `path` into this simulation. The simulation
  /// must be built from the same deck/config: the checkpoint's config
  /// fingerprint is verified first. Throws ckpt::RestoreError (typed,
  /// see ckpt/format.hpp) on any mismatch or corruption; the simulation
  /// is only mutated after the file fully validates. The tile ranges a
  /// file of the retired tiled step holds ("sp<i>.tiles") are ignored.
  void restore(const std::string& path);

  /// Restore from the newest valid generation of the ring at `base`
  /// (falling back generation by generation past corrupt/partial files).
  /// Returns the path actually restored from.
  std::string restore_latest(const std::string& base);

  /// FNV-1a fingerprint of the physics-defining configuration (grid, dt,
  /// strategy, sort plan, seed, species identities). Execution details
  /// (checkpoint knobs) are excluded so a restore may change them.
  [[nodiscard]] std::uint64_t config_fingerprint() const;

  /// Checkpoints committed by this simulation (sync + async) so far.
  [[nodiscard]] std::int64_t checkpoints_written() const {
    return ckpt_written_;
  }

  /// Cumulative incremental-checkpoint telemetry; all-zero until the
  /// first incremental generation commits. Async generations count once
  /// their background commit finishes — call checkpoint_wait() first for
  /// an exact snapshot.
  [[nodiscard]] ElasticCkptStats elastic_ckpt_stats() const;

 private:
  // Grants the built-in pipeline modules (core/pipeline_modules.cpp)
  // access to the engine state their phase bodies drive; external modules
  // use the public accessors instead.
  friend struct PipelineAccess;

  /// Write the next ring generation per the config (sync or async).
  void checkpoint_to_ring();
  /// The state of one checkpoint, detached from the live simulation
  /// (core/checkpoint.cpp): checkpoint() writes it at once,
  /// checkpoint_async() on the writer thread.
  struct Snapshot;
  struct CkptStaging;
  class CkptWriter;
  [[nodiscard]] Snapshot snapshot(const std::string& path);
  [[nodiscard]] bool checkpoint_due(std::int64_t at_step) const {
    return cfg_.checkpoint_every > 0 && !cfg_.checkpoint_path.empty() &&
           at_step % cfg_.checkpoint_every == 0;
  }
  SimulationConfig cfg_;
  FieldArray fields_;
  InterpolatorArray interp_;
  AccumulatorArray acc_;
  std::vector<Species> species_;
  // The sort workspace and spare particle buffers every species sorts
  // through (core/particle.hpp); shared with them, so it survives a move.
  std::shared_ptr<SortScratch> sort_scratch_ = std::make_shared<SortScratch>();
  std::vector<PushPath> last_push_paths_;
  std::function<void(Simulation&)> injection_hook_;
  EnergyHistory energy_history_;
  std::int64_t step_count_ = 0;
  std::vector<PhaseStats> last_phase_stats_;
  // ---- physics-module registry (docs/MODULES.md) ---------------------
  std::vector<std::unique_ptr<PhysicsModule>> modules_;
  std::vector<ModuleSectionSkip> last_restore_skips_;
  // Async checkpoint writer (core/checkpoint.cpp), created by the first
  // checkpoint_async; its destructor drains the queue and joins the
  // thread. A shared_ptr, like elastic_tracker_, so this header needs
  // no definition of it.
  std::shared_ptr<CkptWriter> ckpt_writer_;
  // The last committed snapshot's sections, for the next one to stage
  // in (core/checkpoint.cpp); created by the first checkpoint.
  std::shared_ptr<CkptStaging> ckpt_staging_;
  std::int64_t ckpt_written_ = 0;
  // Next ring generation number, tracked in memory (core/checkpoint.cpp):
  // an async generation still being written is invisible to a directory
  // scan, so re-scanning per checkpoint could hand out the same number
  // twice. Scanned once per ring base (-1 = not yet scanned), then
  // incremented.
  std::int64_t ckpt_next_gen_ = -1;
  std::string ckpt_ring_base_;
  // Incremental-checkpoint state (docs/ELASTIC.md), created lazily on the
  // first incremental checkpoint. The tracker plans synchronously on the
  // stepping thread; the mutex-guarded stats block is shared with the
  // snapshots the writer thread commits.
  std::shared_ptr<elastic::DeltaTracker> elastic_tracker_;
  std::string elastic_ring_;  // ring base the tracker's chain belongs to
  struct ElasticStatsShared;
  std::shared_ptr<ElasticStatsShared> elastic_stats_;
};

}  // namespace vpic::core
