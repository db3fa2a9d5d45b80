// core/push_tuning.hpp
//
// Single source of truth for the push's structural constants (block
// size, kernel vector widths). The push has no dispatch gate: exact cell
// order alone picks the run-aware path (docs/PUSH.md); the
// counting-vs-radix sort crossover lives with the sort library
// (sort/dispatch_model.hpp).
//
// Header-only and dependency-free (pk/layout.hpp only) so the push
// engine, its tests and the benches read the same constants without
// layering cycles.
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

}  // namespace vpic::core
