// core/push.hpp
//
// The VPIC particle push (advance_p): field gather + Boris momentum update
// + position move with charge-conserving current deposition — implemented
// four times with the paper's four vectorization strategies (Sections
// 3.1/4.2):
//
//   Auto    — plain loop written against the portability layer; the
//             iteration loop carries Kokkos' internal #pragma ivdep and the
//             compiler's heuristics decide (the VPIC 2.0 baseline).
//   Guided  — kernel split into a forced-vectorized (#pragma omp simd)
//             compute phase and a scalar mover phase, plus developer
//             knowledge of which math blocks vectorization.
//   Manual  — compute phase written with the portable SIMD library
//             (vpic::simd), transposing AoS particle blocks in registers.
//   AdHoc   — compute phase written with the per-ISA intrinsics library
//             (vpic::v4), VPIC 1.2 style.
//
// All four produce the same physics (bitwise for Auto vs Guided up to
// fp-contraction; within a few ulp for Manual/AdHoc, which reassociate).
//
// On cell-sorted particles (Standard order) the Auto/Guided/Manual
// strategies additionally have *run-aware* variants (docs/PUSH.md): the
// array is segmented into maximal same-cell runs (sort/runs.hpp), each
// run broadcasts its cell's interpolator record once instead of gathering
// it per lane, and accumulates its current into a stack-local record that
// is deposited with one batch of atomics per run instead of twelve per
// particle. Cell-crossing particles fall back to the exact move_p path,
// so the run-aware variants are correct on any particle order and merely
// fast on sorted ones. advance_species auto-dispatches using the species'
// sortedness tracking plus a sampled run probe.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "core/accumulator.hpp"
#include "core/grid.hpp"
#include "core/interpolator.hpp"
#include "core/particle.hpp"
#include "sort/runs.hpp"

namespace vpic::core {

enum class VectorStrategy : std::uint8_t { Auto, Guided, Manual, AdHoc };

inline const char* to_string(VectorStrategy s) noexcept {
  switch (s) {
    case VectorStrategy::Auto:
      return "auto";
    case VectorStrategy::Guided:
      return "guided";
    case VectorStrategy::Manual:
      return "manual";
    case VectorStrategy::AdHoc:
      return "ad hoc";
  }
  return "?";
}

/// Which push pipeline advance_species runs.
///   AutoDetect — run-aware when the species' sortedness tracking and the
///                sampled run probe say cell runs are long enough to pay
///                for the per-run overhead; generic otherwise.
///   Generic    — always the per-particle strategy kernels (the paper's
///                Fig. 4 baselines).
///   RunAware   — force the run-aware variant (AdHoc has none and stays
///                generic). Correct on any order; fast on sorted input.
enum class PushPath : std::uint8_t { AutoDetect, Generic, RunAware };

inline const char* to_string(PushPath p) noexcept {
  switch (p) {
    case PushPath::AutoDetect:
      return "auto-detect";
    case PushPath::Generic:
      return "generic";
    case PushPath::RunAware:
      return "run-aware";
  }
  return "?";
}

/// A particle that crossed a non-periodic domain face mid-move: shipped to
/// the neighbor rank together with its unfinished displacement (VPIC's
/// mover record).
struct ExitRecord {
  Particle p;       // sitting in the ghost cell it crossed into
  float rem[3];     // remaining cell-local displacement
};

/// Boundary behaviour of the mover within advance_species.
struct MoverOptions {
  std::uint8_t periodic_mask = 0b111;        // wrap per axis (x,y,z bits)
  std::uint8_t reflect_mask = 0b000;         // reflecting walls per axis
                                             // (wins over periodic_mask)
  std::vector<ExitRecord>* exits = nullptr;  // where exiting particles go
  std::mutex* exits_mutex = nullptr;         // guards `exits` under OpenMP
};

/// Advance all particles of `sp` one step: gather fields from `interp`,
/// Boris-rotate momenta, move with current deposition into `acc`.
/// With default options all boundaries are periodic (single-rank mode);
/// the multi-rank driver passes a mask and an exit queue, and exited
/// particles are removed from `sp` (their slot is marked with i = -1 and
/// compacted by compact_exited()).
///
/// `path` selects the pipeline (see PushPath); the return value is the
/// pipeline actually taken (Generic or RunAware), which AutoDetect
/// resolves per call from the species' sortedness state.
///
/// Throws std::logic_error when opts.exits is set without opts.exits_mutex
/// while the default execution space is concurrent: the unlocked
/// push_back from parallel mover lanes would be a data race.
PushPath advance_species(Species& sp, const InterpolatorArray& interp,
                         AccumulatorArray& acc, const Grid& g,
                         VectorStrategy strategy,
                         const MoverOptions& opts = {},
                         PushPath path = PushPath::AutoDetect);

/// Push exactly the particles covered by `runs` (maximal same-cell
/// segments from sort::segment_runs) with the run-aware kernel of
/// `strategy`. This is the building block of the overlapped distributed
/// step: the caller partitions the run list at the subdomain boundary and
/// pushes interior runs while the halo exchange is in flight, then the
/// boundary runs once it lands. Unlike advance_species this does NOT age
/// the species' sortedness hint — the caller does that once after all
/// partial pushes of the step.
///
/// Throws std::invalid_argument for VectorStrategy::AdHoc (it has no
/// run-aware variant; callers fall back to the fenced path) and the same
/// std::logic_error as advance_species for an unguarded exit queue.
void advance_species_runs(Species& sp, const InterpolatorArray& interp,
                          AccumulatorArray& acc, const Grid& g,
                          VectorStrategy strategy, const MoverOptions& opts,
                          const std::vector<sort::CellRun>& runs);

/// The AutoDetect heuristic, exposed for tests and benches: true when the
/// species' sortedness tracking (fresh or recently-stale cell-sorted hint)
/// plus a sampled run probe predict the run-aware path will pay off —
/// run_aware_profitable_range over [0, np), so an empty species is false.
[[nodiscard]] bool run_aware_profitable(const Species& sp);

// ----------------------------------------------------------------------
// Tile-task entry points (core/tiles.hpp, docs/TILES.md). A tile task
// pushes its contiguous index range SERIALLY on whichever worker the
// stealing scheduler lands it on — parallelism comes from tiles, not from
// lanes inside a tile — and deposits into its tile-private
// TileAccumulator block (plain non-atomic adds, merged deterministically
// afterwards). Neither ages the species' sortedness — the step driver
// does that once per step, per tile.
// ----------------------------------------------------------------------

class TileAccumulator;

/// Serial generic push of particles [n0, n1). Auto/Guided reproduce the
/// untiled kernels bit for bit on the same iteration order; Manual blocks
/// W-wide lanes from n0 (few-ulp vs untiled when n0 is not lane-aligned);
/// AdHoc runs the scalar pipeline (its 4-wide transpose path is not
/// range-rebasable).
void advance_range_serial(Species& sp, const InterpolatorArray& interp,
                          TileAccumulator& acc, const Grid& g,
                          VectorStrategy strategy, const MoverOptions& opts,
                          index_t n0, index_t n1);

/// Serial run-aware push of runs [r0, r1) of `runs` (same per-run bodies
/// as the parallel variants, executed in run order). AdHoc throws like
/// advance_species_runs.
void advance_runs_serial(Species& sp, const InterpolatorArray& interp,
                         TileAccumulator& acc, const Grid& g,
                         VectorStrategy strategy, const MoverOptions& opts,
                         const std::vector<sort::CellRun>& runs,
                         std::size_t r0, std::size_t r1);

/// The AutoDetect gate on the subrange [n0, n1) with that range's own
/// sortedness state; false for an empty range. Per-tile staleness is what
/// makes per-tile dispatch differ from global: a busy tile churning does
/// not veto a quiet tile's fast path, and a sparse tile below
/// min_particles falls back to generic on its own.
[[nodiscard]] bool run_aware_profitable_range(const Species& sp, index_t n0,
                                              index_t n1, bool sorted_hint,
                                              int steps_since_sort);

/// The push-path decision of advance_species and of the tiled push tasks:
/// resolve `path` to Generic or RunAware for `strategy` on the particles
/// [n0, n1) with that range's own sortedness state, and count the outcome
/// as push.dispatch.run_aware or push.dispatch.generic. AdHoc has no
/// run-aware variant, so it always resolves to Generic.
[[nodiscard]] PushPath resolve_push_path(const Species& sp,
                                         VectorStrategy strategy,
                                         PushPath path, index_t n0,
                                         index_t n1, bool sorted_hint,
                                         int steps_since_sort);

/// Remove particles marked exited (i < 0), preserving order of survivors.
/// Returns the number removed.
index_t compact_exited(Species& sp);

}  // namespace vpic::core
