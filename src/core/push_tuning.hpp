// core/push_tuning.hpp
//
// Single source of truth for the hot-path dispatch parameters: the
// structural constants (block size, kernel vector widths) and the
// run-aware push gates. The gates are fixed constants, one set for both
// particle layouts, measured on the reference host (docs/LAYOUT.md,
// "Dispatch constants"); the counting-vs-radix sort crossover lives with
// the sort library (sort/dispatch_model.hpp).
//
// Header-only and dependency-free (pk/layout.hpp only) so the push
// engine, its tests and the dispatch bench read the same constants
// without layering cycles.
#pragma once

#include "pk/layout.hpp"

namespace vpic::core {

using pk::index_t;

// ---------------------------------------------------------------------------
// Structural constants.
// ---------------------------------------------------------------------------

/// Particles per guided-strategy block: large enough to amortize the
/// per-block `omp simd` prologue, small enough to stay in L1 alongside the
/// interpolator lines it touches.
inline constexpr index_t kPushBlock = 256;

/// Lane count of the manual (simd::simd) push kernels. Fixed at 8 floats —
/// one AVX2 register, two SSE/NEON registers — matching the 8-field
/// particle record so the 8x8 load_transpose is square.
inline constexpr int kManualVecWidth = 8;

/// Lane count of the ad hoc (v4-intrinsics-style) kernel: the historical
/// VPIC 1.2 four-wide pipeline.
inline constexpr int kAdHocVecWidth = 4;

// ---------------------------------------------------------------------------
// Run-aware push gates.
// ---------------------------------------------------------------------------

/// Gates for PushPath::AutoDetect: run-aware push is chosen when the
/// species (or tile range) has at least `min_particles`, was cell-sorted
/// at most `max_stale` steps ago, and the probed mean same-cell run
/// length is at least `min_mean_run`.
struct PushGates {
  index_t min_particles;
  int max_stale;
  double min_mean_run;
};

/// The gates for both layouts, measured on the reference 4-core x86 host:
/// the rounded medians of repeated timings of the generic and run-aware
/// kernels at long and short cell runs. Whole LPI and Weibel steps time
/// the same within noise anywhere in those timings' spread
/// (docs/LAYOUT.md, "Dispatch constants").
inline constexpr PushGates kPushGates{350, 120, 2.5};

}  // namespace vpic::core
