// core/push_tuning.hpp
//
// Single source of truth for the hot-path dispatch parameters: the
// structural constants (block size, kernel vector widths) and the
// run-aware push gate. The gate is a fixed constant measured on the
// reference host (docs/LAYOUT.md, "Dispatch constants"); the
// counting-vs-radix sort crossover lives with the sort library
// (sort/dispatch_model.hpp).
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
// Run-aware push gate.
// ---------------------------------------------------------------------------

/// Gate for PushPath::AutoDetect: run-aware push is chosen when the
/// species is in exact cell order (a Standard sort since its last push)
/// and the range has at least `min_particles`.
struct PushGates {
  index_t min_particles;
};

/// The gate measured on the reference 4-core x86 host: the rounded median
/// of repeated timings of the generic and run-aware kernels at long and
/// short cell runs (docs/LAYOUT.md, "Dispatch constants").
inline constexpr PushGates kPushGates{350};

}  // namespace vpic::core
