// core/domain.hpp
//
// Distributed (multi-rank) PIC driver: z-slab domain decomposition over
// the minimpi substrate, exercising the communication pattern the paper
// relies on for scalability (Section 2.1: "Most MPI communication in VPIC
// is non-blocking point-to-point ... allowing it to scale efficiently"):
//
//   per step: post the E/B z-halo exchange with both neighbors
//               (nonblocking); Standard-sort every species not in exact
//               cell order while it is in flight
//             load interpolator, clear accumulators
//             advance particles through push_on, the cells below plane
//               nz first and plane nz once the halo has landed; exiting
//               particles (crossing a slab face mid-move) are shipped
//               with their unfinished displacement and complete their
//               move — and current deposit — on the neighbor, iterating
//               until no rank holds an exit
//             exchange accumulator boundary planes, unload J
//             FDTD advance with halo refresh after each sub-step
//
// Initialization is keyed by *global* cell ids, so an N-rank run loads
// exactly the same global particle set as a 1-rank run — the integration
// tests compare the two for physical equivalence.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/accumulator.hpp"
#include "core/field.hpp"
#include "core/interpolator.hpp"
#include "core/particle.hpp"
#include "core/push.hpp"
#include "minimpi/minimpi.hpp"

namespace vpic::core {

struct DomainConfig {
  int nx = 8, ny = 8, nz = 8;        // GLOBAL interior cells
  float lx = 8, ly = 8, lz = 8;      // global physical extents
  float dt = 0;                      // 0: Courant-limited default
  VectorStrategy strategy = VectorStrategy::Auto;
  std::uint64_t seed = 42;
  // Comm/compute overlap (docs/ASYNC.md): complete the z-halo exchange
  // after the halo-independent work — the sort, interpolator planes
  // 1..nz-1 and the push of the cells below plane nz — instead of before
  // it. The step is otherwise the same, so both settings agree bit for
  // bit at one kernel thread, for every strategy.
  bool overlap = true;
};

struct DistributedEnergy {
  double field = 0;
  std::vector<double> species;
  [[nodiscard]] double total() const {
    double t = field;
    for (double k : species) t += k;
    return t;
  }
};

class DistributedSimulation {
 public:
  /// `comm.size()` must divide cfg.nz.
  DistributedSimulation(const DomainConfig& cfg, mpi::Comm& comm);

  std::size_t add_species(std::string name, float q, float m,
                          index_t local_capacity);

  /// Uniform thermal plasma over the *global* box; deterministic in the
  /// global cell id, independent of the rank count.
  void load_uniform_plasma(std::size_t species_idx, int ppc, float uth,
                           float udx = 0, float udy = 0, float udz = 0);

  void step();
  void run(int nsteps) {
    for (int i = 0; i < nsteps; ++i) step();
  }

  /// Globally reduced energies (identical on every rank).
  [[nodiscard]] DistributedEnergy energies();

  /// Globally reduced particle count for one species.
  [[nodiscard]] std::int64_t global_np(std::size_t species_idx);

  Grid& local_grid() { return fields_.grid; }
  FieldArray& fields() { return fields_; }
  Species& species(std::size_t i) { return species_[i]; }
  [[nodiscard]] int z_offset() const { return z_offset_; }
  [[nodiscard]] std::int64_t exchanged_particles() const {
    return exchanged_;
  }

  // ---- checkpoint/restart (docs/CHECKPOINT.md, core/checkpoint.cpp) --

  /// Coordinated checkpoint into directory `dir`: every rank commits
  /// "rank<r>.ckpt" with its local slab state, then — after a barrier
  /// proving all per-rank files landed — rank 0 commits "manifest.ckpt"
  /// (rank count + step). A crash at any point leaves either the previous
  /// checkpoint directory intact or a manifest-less partial one that
  /// restore() rejects as a whole.
  void checkpoint(const std::string& dir);

  /// Restore every rank from `dir`. Validates the manifest (rank count,
  /// config fingerprint) and each per-rank file (fingerprint, step
  /// agreement with the manifest, slab offset) before mutating state;
  /// throws ckpt::RestoreError on any mismatch or corruption.
  void restore(const std::string& dir);

  /// Elastic restore (docs/ELASTIC.md): restore from `dir` regardless of
  /// the rank count that wrote it. A matching shape restores in place; a
  /// k-rank checkpoint on an m-rank communicator is first rewritten by
  /// rank 0 (elastic::Redecomposer) into "<dir>.rescale<m>" and every
  /// rank restores from there — per-voxel interior state and
  /// canonically-ordered particles bit-identical to a same-rank restore.
  /// Requires comm size to divide the global nz and a checkpoint written
  /// with a "manifest.domain" section. Returns the directory actually
  /// restored from; throws ckpt::RestoreError (collectively — every rank
  /// throws) on failure.
  std::string restore_rescaled(const std::string& dir);

  /// Fingerprint of the physics-defining configuration (DomainConfig,
  /// rank count, species identities); per-rank and manifest files share
  /// it, so a restore against the wrong deck or rank layout is typed.
  [[nodiscard]] std::uint64_t config_fingerprint() const;

  [[nodiscard]] std::int64_t step_count() const { return step_count_; }

 private:
  /// In-flight z-halo exchange: pack buffers plus the two pending
  /// receives ([0] from prev_, [1] from next_). Sends are buffered and
  /// complete on post (minimpi semantics).
  struct FieldHalo {
    std::vector<float> up, down, from_prev, from_next;
    std::array<mpi::Request, 2> recvs;
  };

  [[nodiscard]] FieldHalo begin_field_halo();
  void complete_field_halo(FieldHalo& halo);
  void exchange_field_ghosts();
  void finish_accumulate_and_fields();
  void exchange_exits(std::vector<ExitRecord>& exits);

  DomainConfig cfg_;
  mpi::Comm& comm_;
  int prev_ = 0, next_ = 0;
  int z_offset_ = 0;  // global z index of local interior plane 1 (0-based)
  FieldArray fields_;
  InterpolatorArray interp_;
  AccumulatorArray acc_;
  std::vector<Species> species_;
  // The one sort scratch of this rank's species, which sort one after
  // another at the top of each step.
  std::shared_ptr<SortScratch> sort_scratch_ = std::make_shared<SortScratch>();
  std::size_t current_species_ = 0;  // species whose exits are in flight
  std::int64_t step_count_ = 0;
  std::int64_t exchanged_ = 0;
};

}  // namespace vpic::core
