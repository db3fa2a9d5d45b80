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
// of gathering it per lane, and accumulates its cell's current into a
// stack-local record that is flushed once per run instead of twelve adds
// per particle. Segments a cell crosser deposits outside the run's cell
// take the exact move_p path, so the run-aware variants are correct on
// any particle order and merely fast on sorted ones. Each strategy has
// ONE body, written against the path (generic: per-particle gather and
// move_p; run-aware: hoisted record and run-local deposit), and push_on
// is the one entry — the step and the ranks both launch through it. It
// auto-dispatches on one signal: whether the species is in exact cell
// order.
#pragma once

#include <cstdint>
#include <vector>

#include "core/accumulator.hpp"
#include "core/grid.hpp"
#include "core/interpolator.hpp"
#include "core/particle.hpp"

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
///   AutoDetect — run-aware when the species is in exact cell order (a
///                Standard sort since its last push), at any range size;
///                generic otherwise.
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

/// Boundary behaviour of the mover within a push.
struct MoverOptions {
  std::uint8_t periodic_mask = 0b111;        // wrap per axis (x,y,z bits)
  std::uint8_t reflect_mask = 0b000;         // reflecting walls per axis
                                             // (wins over periodic_mask)
  std::vector<ExitRecord>* exits = nullptr;  // where exiting particles go,
                                             // appended in slot order
};

/// Advance all particles of `sp` one step: gather fields from `interp`,
/// Boris-rotate momenta, move with current deposition into `acc`.
/// With default options all boundaries are periodic (single-rank mode).
///
/// `path` selects the pipeline (see PushPath); the return value is the
/// pipeline actually taken (Generic or RunAware), which AutoDetect
/// resolves per call from the species' sortedness state. This is
/// push_on over [0, np) on the default execution space, which applies its
/// deposit logs before it returns, followed by the species' order upkeep:
/// a species that has been Standard-sorted (cell_sorted_hint) is put back
/// in exact cell order by sort_particles on the team, through its sort
/// scratch, so it leaves with a fresh hint; a species never
/// Standard-sorted only ages the hint.
///
/// Throws std::invalid_argument when opts.exits is set: exits belong to
/// push_on's callers (the ranks), which compact and ship them.
PushPath advance_species(Species& sp, const InterpolatorArray& interp,
                         AccumulatorArray& acc, const Grid& g,
                         VectorStrategy strategy,
                         const MoverOptions& opts = {},
                         PushPath path = PushPath::AutoDetect);

/// The one push entry (docs/PUSH.md): push particles [n0, n1) of `sp` on
/// execution space `Space`, depositing through `acc`. It resolves `path`
/// from the species' order (AutoDetect) and launches the strategy's body
/// over one chunk of the range per member of `Space`: on the generic
/// path each chunk a slice on the strategy's block grid; on the
/// run-aware path each chunk starting on a run start and walking its
/// maximal same-cell runs in slot order, finding each run's end as it
/// goes. Exits (opts.exits) are queued per chunk and appended in chunk
/// order, which is slot order. Returns the path taken. It neither ages
/// nor restores the sortedness hint; the step does that once per step.
///
/// On the run-aware path of a species in exact cell order each chunk
/// flushes its runs' records with plain adds and logs every segment
/// outside a run's cell into its log in the species' sort scratch, and
/// push_on applies the logs in chunk order before it returns: the
/// currents are the same at any thread count. Any other push deposits
/// with atomic adds. The step (advance_species) and the ranks, which push
/// a cell-sorted species as [0, k) then [k, np) around their halo wait
/// (core/domain.hpp), launch on pk::DefaultExecSpace; pk::Serial is one
/// chunk, the reference the tests compare team pushes with.
template <class Space>
PushPath push_on(Species& sp, const InterpolatorArray& interp,
                 AccumulatorArray& acc, const Grid& g,
                 VectorStrategy strategy, const MoverOptions& opts,
                 PushPath path, index_t n0, index_t n1);

/// Remove particles marked exited (i < 0), preserving order of survivors.
/// Returns the number removed.
index_t compact_exited(Species& sp);

}  // namespace vpic::core
