// pk/config.hpp
//
// Build-time configuration for the `pk` ("portable kernels") layer: the
// mini performance-portability framework this repository uses in place of
// Kokkos. The paper builds VPIC 2.0 on Kokkos 4.6; `pk` reproduces the
// subset of that programming model VPIC 2.0 relies on (Views with layout
// control, execution-space-tagged parallel dispatch, hierarchical
// parallelism, atomics, reducers) so the portability-overhead phenomena the
// paper studies are exercised by real abstractions rather than stubs.
#pragma once

#if defined(VPIC_ENABLE_OPENMP)
#include <omp.h>
#define PK_HAVE_OPENMP 1
#else
#define PK_HAVE_OPENMP 0
#endif

// Function annotation mirroring KOKKOS_INLINE_FUNCTION. Host-only build, so
// it reduces to inline, but keeping the annotation preserves the source
// shape of kernels written against the portability layer.
#define PK_INLINE inline

// Mirrors KOKKOS_FORCEINLINE_FUNCTION: for the small per-particle helpers
// of hot kernels, whose inlining must not depend on how much else the
// translation unit inlines. PK_FORCEINLINE_LAMBDA goes after a lambda's
// parameter list.
#define PK_FORCEINLINE inline __attribute__((always_inline))
#define PK_FORCEINLINE_LAMBDA __attribute__((always_inline))

// Restrict qualifier for kernel pointer parameters.
#define PK_RESTRICT __restrict__

// Pragma helpers for the vectorization strategies (Section 3.1 / 4.2):
//  - PK_IVDEP marks loops the way Kokkos marks its internal loops
//    (#pragma ivdep semantics; GCC spells it "GCC ivdep").
//  - PK_OMP_SIMD is the "guided" strategy's forced-vectorization pragma.
#define PK_PRAGMA(x) _Pragma(#x)
#if defined(__clang__)
#define PK_IVDEP PK_PRAGMA(clang loop vectorize(enable))
#elif defined(__GNUC__)
#define PK_IVDEP PK_PRAGMA(GCC ivdep)
#else
#define PK_IVDEP
#endif

#if PK_HAVE_OPENMP
#define PK_OMP_SIMD PK_PRAGMA(omp simd)
#define PK_OMP_SIMD_REDUCTION(op, var) PK_PRAGMA(omp simd reduction(op : var))
#else
#define PK_OMP_SIMD PK_IVDEP
#define PK_OMP_SIMD_REDUCTION(op, var) PK_IVDEP
#endif

namespace vpic::pk {

/// Number of threads each OpenMP host kernel uses: once initialized, the
/// initialize() count on every thread that launches one; before that, the
/// calling thread's omp_get_max_threads().
int concurrency() noexcept;

/// Runtime initialization (mirrors Kokkos::initialize; binds the kernel
/// thread count of every thread). Safe to call multiple times.
void initialize() noexcept;
void initialize(int num_threads) noexcept;

/// Mirrors Kokkos::finalize. No-op placeholder for API fidelity.
void finalize() noexcept;

/// RAII initialize/finalize pair (Kokkos::ScopeGuard).
class ScopeGuard {
 public:
  ScopeGuard() { initialize(); }
  explicit ScopeGuard(int num_threads) { initialize(num_threads); }
  ~ScopeGuard() { finalize(); }
  ScopeGuard(const ScopeGuard&) = delete;
  ScopeGuard& operator=(const ScopeGuard&) = delete;
};

}  // namespace vpic::pk
