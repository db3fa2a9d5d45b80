// core/tracer.hpp
//
// Tagged tracer particles as a plug-in PhysicsModule (docs/MODULES.md).
// At its first step the module tags every `stride`-th particle of the
// source species (a snapshot copy — tracers are passive test particles
// from then on, moved by the push's Boris update and periodic move_p with
// the deposit dropped, never perturbing the plasma). Each sampled step
// appends every tracer's phase-space point to a bounded trajectory ring
// buffer — the in-memory diagnostic stream, flushed under the step's
// "diag" resource so it composes with the diagnostics phase ordering.
//
// Tracers live in a module-owned vector of particle records, moved by a
// single phase ordered after the interpolator load and the source
// species' push. State (tracer particles, ring, counters) round-trips
// through the module checkpoint sections.
//
// CSV sink: when SimulationConfig::tracer_csv_path is set, new trajectory
// samples stream to that file — appended on every checkpoint (the
// PhysicsModule::on_checkpoint hook, so the CSV is exactly as durable as
// the checkpoint it rides with) and on module destruction. A watermark
// tracks what has been written; samples evicted from the ring before a
// flush are lost from the CSV too (size the ring to cover the checkpoint
// interval). After a restore the watermark resumes at the restored sample
// count: everything up to the checkpoint was flushed when it was taken.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/module.hpp"
#include "core/particle.hpp"

namespace vpic::core {

struct TracerParams {
  std::size_t species = 0;        // source species index
  index_t stride = 1024;          // tag every stride-th particle
  std::size_t max_tracers = 256;  // cap on tagged particles
  int sample_interval = 1;        // record every N steps
  std::size_t ring_capacity = 8192;  // samples retained (oldest evicted)
};

/// One trajectory point. POD: checkpoints as a raw vector section.
struct TracerSample {
  std::int64_t step;
  std::uint32_t id;
  std::int32_t voxel;
  float dx, dy, dz;
  float ux, uy, uz;
};

struct TracerParticle {
  std::uint32_t id;
  Particle p;
};

class TracerModule final : public PhysicsModule {
 public:
  explicit TracerModule(TracerParams prm = {}) : prm_(prm) {}
  ~TracerModule() override { flush_csv(); }

  [[nodiscard]] std::string_view id() const override { return "tracer"; }
  [[nodiscard]] StepStage stage() const override { return StepStage::Push; }
  void plan(Simulation& sim, const ModuleStepContext& ctx,
            StepComposer& c) override;
  void on_checkpoint(Simulation& sim) override;

  [[nodiscard]] bool has_state() const override { return true; }
  [[nodiscard]] std::uint32_t state_version() const override { return 1; }
  void save_state(ModuleStateWriter& w) const override;
  void load_state(ModuleStateReader& r, std::uint32_t version) override;
  void clear_state() override;

  [[nodiscard]] const TracerParams& params() const { return prm_; }
  [[nodiscard]] const std::vector<TracerParticle>& tracers() const {
    return tracers_;
  }
  /// Retained samples, oldest first.
  [[nodiscard]] std::vector<TracerSample> trajectory() const;
  [[nodiscard]] std::uint64_t samples_recorded() const { return total_; }
  /// Samples already streamed to the CSV sink (the flush watermark).
  [[nodiscard]] std::uint64_t samples_flushed() const { return csv_written_; }

 private:
  void run(Simulation& sim, std::int64_t next_step);
  /// Append unflushed samples to csv_path_ (no-op when unset/clean).
  void flush_csv();

  TracerParams prm_;
  bool seeded_ = false;
  std::vector<TracerParticle> tracers_;
  std::vector<TracerSample> ring_;
  std::size_t ring_head_ = 0;  // next overwrite position once full
  std::uint64_t total_ = 0;    // samples ever recorded
  std::string csv_path_;       // cached SimulationConfig::tracer_csv_path
  std::uint64_t csv_written_ = 0;  // samples flushed to the CSV so far
};

}  // namespace vpic::core
