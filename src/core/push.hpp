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
// push walks the array's maximal same-cell runs (sort/runs.hpp) as it
// goes, each run broadcasts its cell's interpolator record once instead
// of gathering it per lane, and accumulates its current into a
// stack-local record that is deposited with one batch of atomics per run
// instead of twelve per particle. Cell-crossing particles fall back to
// the exact move_p path, so the run-aware variants are correct on any
// particle order and merely fast on sorted ones. Each strategy has ONE
// body, written against the path (generic: per-particle gather and
// move_p; run-aware: hoisted record and run-local deposit), and push_on
// is the one entry — the untiled step, the tile tasks and the ranks all
// launch through it, on their own execution space. It auto-dispatches
// using the species' sortedness tracking plus a sampled run probe.
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
/// resolves per call from the species' sortedness state. This is
/// push_on over [0, np) on the default execution space, followed by the
/// species' order upkeep: a species that has been Standard-sorted
/// (cell_sorted_hint) is put back in exact cell order by sort_particles
/// on the team, through its sort scratch, so it leaves with a fresh hint;
/// a push that left exit tombstones (i = -1, which no cell sort can key)
/// and a species never Standard-sorted only age the hint.
///
/// Throws std::logic_error when opts.exits is set without opts.exits_mutex
/// while the default execution space is concurrent: the unlocked
/// push_back from parallel mover lanes would be a data race.
PushPath advance_species(Species& sp, const InterpolatorArray& interp,
                         AccumulatorArray& acc, const Grid& g,
                         VectorStrategy strategy,
                         const MoverOptions& opts = {},
                         PushPath path = PushPath::AutoDetect);

/// The AutoDetect heuristic, exposed for tests and benches: true when the
/// species' sortedness tracking (fresh or recently-stale cell-sorted hint)
/// plus a sampled run probe predict the run-aware path will pay off.
/// False for an empty species.
[[nodiscard]] bool run_aware_profitable(const Species& sp);

/// The one push entry (docs/PUSH.md): push particles [n0, n1) of `sp` on
/// execution space `Space`, depositing into `acc`. It resolves `path`
/// from the species' sortedness hint plus a run probe of [n0, n1)
/// (AutoDetect) and launches the strategy's body — per particle or block
/// on the generic path; on the run-aware path one chunk of the range per
/// member of `Space`, each chunk starting on a run start and walking its
/// maximal same-cell runs in slot order, finding each run's end as it
/// goes. Returns the path taken. It neither ages nor restores the
/// sortedness hint; the step does that once per step.
///
/// Two instantiations exist:
///   * pk::DefaultExecSpace into the shared AccumulatorArray (atomic
///     deposits): the untiled step (advance_species) and the ranks;
///   * pk::Serial into a tile-private TileAccumulator block (plain adds):
///     one tile task of the tiled step (core/tiles.hpp). A range that
///     does not start on a multiple of the Manual width W is few-ulp from
///     the untiled Manual push; Auto and Guided are bitwise. AdHoc runs
///     its v4 pipeline into the shared array only, and the scalar body
///     into a tile block.
///
/// Throws std::logic_error like advance_species for an unguarded exit
/// queue on a concurrent space.
template <class Space, class AccA>
PushPath push_on(Species& sp, const InterpolatorArray& interp, AccA& acc,
                 const Grid& g, VectorStrategy strategy,
                 const MoverOptions& opts, PushPath path, index_t n0,
                 index_t n1);

/// The run-aware body over an explicit list of `runs` (maximal same-cell
/// segments from sort::segment_runs) that the caller segmented and
/// partitioned itself: the overlapped distributed step, which owns its
/// run vectors, pushes its interior runs while the halo exchange is in
/// flight, then its boundary runs once it lands. Instantiated for
/// pk::DefaultExecSpace into the shared AccumulatorArray, and for
/// pk::Serial into a TileAccumulator block, the run-list reference
/// test_push_runs checks a tile's push_on against.
///
/// Throws std::invalid_argument for VectorStrategy::AdHoc (it has no
/// run-aware variant; the distributed step falls back to fenced) and the
/// same std::logic_error as push_on for an unguarded exit queue.
template <class Space, class AccA>
void push_runs_on(Species& sp, const InterpolatorArray& interp, AccA& acc,
                  const Grid& g, VectorStrategy strategy,
                  const MoverOptions& opts,
                  const std::vector<sort::CellRun>& runs);

/// Remove particles marked exited (i < 0), preserving order of survivors.
/// Returns the number removed.
index_t compact_exited(Species& sp);

}  // namespace vpic::core
