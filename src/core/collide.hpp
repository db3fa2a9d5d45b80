// core/collide.hpp
//
// Takizuka–Abe binary Monte Carlo Coulomb collisions (J. Comput. Phys. 25,
// 1977) as a plug-in PhysicsModule (docs/MODULES.md). Within each cell,
// particles are randomly paired and each pair's relative velocity is
// rotated by a Gaussian-distributed scattering angle whose variance scales
// as nu0 dt / g^3 — small-angle cumulative Coulomb scattering. The
// operator conserves momentum exactly and kinetic energy to rounding
// (the rotation preserves |g|), and drives each species toward a
// Maxwellian (tests/test_collide.cpp).
//
// Determinism (docs/MODULES.md, "RNG streams"): every random draw comes
// from a counter-based stream keyed by (step, species-pair, voxel) under
// the module's RNG domain, and each cell pairs its particles in index
// order — never in layout, schedule or thread order. Cells touch disjoint
// particles, so the untiled phase runs them in parallel on the OpenMP
// kernel team, while each tile task runs its cells serially on its
// stealing worker. Results are therefore bit-identical across OpenMP
// thread counts, worker counts, tile schedules, and AoS/SoA
// layouts; only the tile count (which fixes how stray particles are
// partitioned into cell lists between sorts) is part of the answer.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/grid.hpp"
#include "core/module.hpp"
#include "core/particle.hpp"

namespace vpic::core {

struct CollisionParams {
  /// Species-index pairs to collide, in order; (s, s) is intra-species.
  /// Empty = every unordered pair including self, resolved at plan time.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  double nu0 = 1.0;       // base collision frequency x density (code units)
  int interval = 1;       // apply every `interval` steps
  double u_floor = 1e-3;  // relative-speed floor in the 1/g^3 kernel
};

struct CollisionStats {
  std::uint64_t cells = 0;  // occupied cells visited
  std::uint64_t pairs = 0;  // pairs scattered
};

/// Apply one collision step to the index ranges [a_begin, a_end) of `sa`
/// and [b_begin, b_end) of `sb` (pass the same species and range twice for
/// intra-species). Pure function of the particle data and the RNG keys —
/// `step` and `pair_key` select the per-step, per-pair stream; cell
/// streams are keyed by global voxel. Runs the cells in parallel on
/// pk::DefaultExecSpace; the result does not depend on the thread count.
/// Exposed separately from the module so physics tests can drive it
/// without field dynamics.
CollisionStats collide_range(Species& sa, Species& sb, const Grid& g,
                             const CollisionParams& prm, index_t a_begin,
                             index_t a_end, index_t b_begin, index_t b_end,
                             std::uint64_t step, std::uint64_t pair_key,
                             const ModuleRng& rng);

/// The registry module: plans one phase per species pair (per tile when
/// tiled), ordered into the step at StepStage::Collide — after injection,
/// before diagnostics/sort — and checkpoints its cumulative counters.
/// plan() throws std::invalid_argument for a pair naming a species the
/// simulation does not have.
class CollisionModule final : public PhysicsModule {
 public:
  explicit CollisionModule(CollisionParams prm = {}) : prm_(std::move(prm)) {}

  [[nodiscard]] std::string_view id() const override { return "collide"; }
  [[nodiscard]] StepStage stage() const override {
    return StepStage::Collide;
  }
  void attach(Simulation& sim) override;
  void plan(Simulation& sim, const ModuleStepContext& ctx,
            StepComposer& c) override;

  [[nodiscard]] bool has_state() const override { return true; }
  [[nodiscard]] std::uint32_t state_version() const override { return 1; }
  void save_state(ModuleStateWriter& w) const override;
  void load_state(ModuleStateReader& r, std::uint32_t version) override;
  void clear_state() override;

  [[nodiscard]] const CollisionParams& params() const { return prm_; }
  /// Cumulative across the run (checkpointed).
  [[nodiscard]] std::uint64_t steps_applied() const {
    return steps_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t pairs_scattered() const {
    return pairs_.load(std::memory_order_relaxed);
  }

 private:
  CollisionParams prm_;
  ModuleRng rng_;
  // Tile tasks of one step run concurrently under Stealing; the physics
  // is made deterministic by keyed streams, the bookkeeping by atomics.
  std::atomic<std::uint64_t> steps_{0};
  std::atomic<std::uint64_t> pairs_{0};
  std::atomic<std::uint64_t> cells_{0};
};

}  // namespace vpic::core
