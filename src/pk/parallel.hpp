// pk/parallel.hpp
//
// parallel_for / parallel_reduce / parallel_scan dispatch, modeled on
// Kokkos. The Serial and OpenMP backends share kernel code; the policy's
// execution_space tag selects the backend at compile time. Range kernels
// internally mark the iteration loop with PK_IVDEP, matching the paper's
// description of Kokkos' internal "#pragma ivdep" (Section 4.2) — this is
// precisely the "auto vectorization" baseline of the vectorization study.
//
// Every overload exists in a named and an unnamed form, like Kokkos'
// optional kernel labels. Each dispatch fires begin/end events through the
// pk::prof hook table (pk/prof_hooks.hpp); with no handler registered the
// instrumentation is one predictable branch per *dispatch* (never per
// iteration) — see docs/PROFILING.md.
#pragma once

#include <type_traits>
#include <vector>

#include "pk/execution.hpp"
#include "pk/prof_hooks.hpp"
#include "pk/reducers.hpp"

namespace vpic::pk {

namespace detail {

// ----------------------------------------------------------------------
// Raw (uninstrumented) loop bodies. These are the seed dispatch paths the
// profiling overhead test compares against.
// ----------------------------------------------------------------------

template <class Functor>
PK_INLINE void for_impl(const RangePolicy<Serial>& p, const Functor& f) {
  PK_IVDEP
  for (index_t i = p.begin; i < p.end; ++i) f(i);
}

template <class Functor>
PK_INLINE void for_impl(const RangePolicy<OpenMP>& p, const Functor& f) {
#if PK_HAVE_OPENMP
#pragma omp parallel for schedule(static) num_threads(OpenMP::concurrency())
  for (index_t i = p.begin; i < p.end; ++i) f(i);
#else
  PK_IVDEP
  for (index_t i = p.begin; i < p.end; ++i) f(i);
#endif
}

template <class Functor>
PK_INLINE void for_impl(const MDRangePolicy2<Serial>& p, const Functor& f) {
  for (index_t i = p.begin0; i < p.end0; ++i)
    for (index_t j = p.begin1; j < p.end1; ++j) f(i, j);
}

template <class Functor>
PK_INLINE void for_impl(const MDRangePolicy2<OpenMP>& p, const Functor& f) {
#if PK_HAVE_OPENMP
#pragma omp parallel for collapse(2) schedule(static) \
    num_threads(OpenMP::concurrency())
  for (index_t i = p.begin0; i < p.end0; ++i)
    for (index_t j = p.begin1; j < p.end1; ++j) f(i, j);
#else
  for (index_t i = p.begin0; i < p.end0; ++i)
    for (index_t j = p.begin1; j < p.end1; ++j) f(i, j);
#endif
}

template <class Functor>
PK_INLINE void for_impl(const MDRangePolicy3<Serial>& p, const Functor& f) {
  for (index_t i = p.begin0; i < p.end0; ++i)
    for (index_t j = p.begin1; j < p.end1; ++j)
      for (index_t k = p.begin2; k < p.end2; ++k) f(i, j, k);
}

template <class Functor>
PK_INLINE void for_impl(const MDRangePolicy3<OpenMP>& p, const Functor& f) {
#if PK_HAVE_OPENMP
#pragma omp parallel for collapse(2) schedule(static) \
    num_threads(OpenMP::concurrency())
  for (index_t i = p.begin0; i < p.end0; ++i)
    for (index_t j = p.begin1; j < p.end1; ++j)
      for (index_t k = p.begin2; k < p.end2; ++k) f(i, j, k);
#else
  for (index_t i = p.begin0; i < p.end0; ++i)
    for (index_t j = p.begin1; j < p.end1; ++j)
      for (index_t k = p.begin2; k < p.end2; ++k) f(i, j, k);
#endif
}

template <class Functor>
PK_INLINE void for_impl(const TeamPolicy<Serial>& p, const Functor& f) {
  for (index_t lr = 0; lr < p.league_size; ++lr)
    f(TeamMember(lr, p.league_size, 0, 1));
}

template <class Functor>
PK_INLINE void for_impl(const TeamPolicy<OpenMP>& p, const Functor& f) {
#if PK_HAVE_OPENMP
#pragma omp parallel for schedule(dynamic, 1) num_threads(OpenMP::concurrency())
  for (index_t lr = 0; lr < p.league_size; ++lr)
    f(TeamMember(lr, p.league_size, 0, 1));
#else
  for (index_t lr = 0; lr < p.league_size; ++lr)
    f(TeamMember(lr, p.league_size, 0, 1));
#endif
}

template <class Policy>
PK_INLINE std::uint64_t policy_work(const Policy& p) noexcept {
  if constexpr (requires { p.league_size; })
    return static_cast<std::uint64_t>(p.league_size);
  else if constexpr (requires { p.begin2; })
    return static_cast<std::uint64_t>((p.end0 - p.begin0) *
                                      (p.end1 - p.begin1) *
                                      (p.end2 - p.begin2));
  else if constexpr (requires { p.begin1; })
    return static_cast<std::uint64_t>((p.end0 - p.begin0) *
                                      (p.end1 - p.begin1));
  else
    return static_cast<std::uint64_t>(p.end - p.begin);
}

}  // namespace detail

// ----------------------------------------------------------------------
// parallel_for: one instrumented entry per policy family. The named form
// is the primary; the unnamed form forwards with a null label.
// ----------------------------------------------------------------------

template <template <class> class Policy, class ExecSpace, class Functor>
void parallel_for(const char* name, const Policy<ExecSpace>& p,
                  const Functor& f) {
  const std::uint64_t kid = prof::begin_parallel(
      "parallel_for", name, ExecSpace::name(), detail::policy_work(p));
  detail::for_impl(p, f);
  prof::end_parallel("parallel_for", kid);
}

template <template <class> class Policy, class ExecSpace, class Functor>
void parallel_for(const Policy<ExecSpace>& p, const Functor& f) {
  parallel_for(nullptr, p, f);
}

/// Convenience overloads: parallel_for([name,] n, f) on the default space.
template <class Functor>
void parallel_for(const char* name, index_t n, const Functor& f) {
  parallel_for(name, RangePolicy<DefaultExecSpace>(n), f);
}

template <class Functor>
void parallel_for(index_t n, const Functor& f) {
  parallel_for(nullptr, RangePolicy<DefaultExecSpace>(n), f);
}

/// Nested team-thread loop (host teams are one thread: plain loop). Nested
/// ranges fire no events — they are inner loops of an already-instrumented
/// team dispatch, exactly like Kokkos Tools.
template <class Functor>
PK_INLINE void parallel_for(const TeamThreadRange& r, const Functor& f) {
  for (index_t i = r.begin; i < r.end; ++i) f(i);
}

/// Innermost vector loop: marked ivdep so the backend's auto-vectorizer
/// treats it exactly like Kokkos ThreadVectorRange on a CPU backend.
template <class Functor>
PK_INLINE void parallel_for(const ThreadVectorRange& r, const Functor& f) {
  PK_IVDEP
  for (index_t i = r.begin; i < r.end; ++i) f(i);
}

// ----------------------------------------------------------------------
// parallel_reduce
// ----------------------------------------------------------------------

namespace detail {

template <class Reducer, class Functor>
PK_INLINE void reduce_impl(const RangePolicy<Serial>& p, const Functor& f,
                           typename Reducer::value_type& result) {
  auto acc = Reducer::identity();
  for (index_t i = p.begin; i < p.end; ++i) f(i, acc);
  result = acc;
}

template <class Reducer, class Functor>
PK_INLINE void reduce_impl(const RangePolicy<OpenMP>& p, const Functor& f,
                           typename Reducer::value_type& result) {
#if PK_HAVE_OPENMP
  const int nt = OpenMP::concurrency();
  std::vector<typename Reducer::value_type> partial(
      static_cast<std::size_t>(nt), Reducer::identity());
#pragma omp parallel num_threads(nt)
  {
    const int tid = omp_get_thread_num();
    auto acc = Reducer::identity();
#pragma omp for schedule(static) nowait
    for (index_t i = p.begin; i < p.end; ++i) f(i, acc);
    partial[static_cast<std::size_t>(tid)] = acc;
  }
  auto total = Reducer::identity();
  for (const auto& v : partial) Reducer::join(total, v);
  result = total;
#else
  reduce_impl<Reducer>(RangePolicy<Serial>(p.begin, p.end), f, result);
#endif
}

}  // namespace detail

template <class Reducer, class ExecSpace, class Functor>
void parallel_reduce(const char* name, const RangePolicy<ExecSpace>& p,
                     const Functor& f,
                     typename Reducer::value_type& result) {
  const std::uint64_t kid = prof::begin_parallel(
      "parallel_reduce", name, ExecSpace::name(), detail::policy_work(p));
  detail::reduce_impl<Reducer>(p, f, result);
  prof::end_parallel("parallel_reduce", kid);
}

template <class Reducer, class ExecSpace, class Functor>
void parallel_reduce(const RangePolicy<ExecSpace>& p, const Functor& f,
                     typename Reducer::value_type& result) {
  parallel_reduce<Reducer>(nullptr, p, f, result);
}

/// Sum-reduction convenience, mirroring Kokkos' default reducer.
template <class ExecSpace, class Functor, class T>
void parallel_reduce(const char* name, const RangePolicy<ExecSpace>& p,
                     const Functor& f, T& result) {
  parallel_reduce<Sum<T>>(name, p, f, result);
}

template <class ExecSpace, class Functor, class T>
void parallel_reduce(const RangePolicy<ExecSpace>& p, const Functor& f,
                     T& result) {
  parallel_reduce<Sum<T>>(nullptr, p, f, result);
}

template <class Functor, class T>
void parallel_reduce(const char* name, index_t n, const Functor& f,
                     T& result) {
  parallel_reduce<Sum<T>>(name, RangePolicy<DefaultExecSpace>(n), f, result);
}

template <class Functor, class T>
void parallel_reduce(index_t n, const Functor& f, T& result) {
  parallel_reduce<Sum<T>>(nullptr, RangePolicy<DefaultExecSpace>(n), f,
                          result);
}

// ----------------------------------------------------------------------
// parallel_scan (exclusive prefix sum; functor form and array form)
// ----------------------------------------------------------------------

namespace detail {

/// Kokkos-style scan functor contract: f(i, partial, final_pass).
template <class Functor, class T>
PK_INLINE void scan_impl(const RangePolicy<Serial>& p, const Functor& f,
                         T& total) {
  T acc{};
  for (index_t i = p.begin; i < p.end; ++i) f(i, acc, true);
  total = acc;
}

template <class Functor, class T>
PK_INLINE void scan_impl(const RangePolicy<OpenMP>& p, const Functor& f,
                         T& total) {
#if PK_HAVE_OPENMP
  const int nt = OpenMP::concurrency();
  const index_t n = p.count();
  if (n == 0) {
    total = T{};
    return;
  }
  std::vector<T> chunk_sum(static_cast<std::size_t>(nt) + 1, T{});
#pragma omp parallel num_threads(nt)
  {
    const int tid = omp_get_thread_num();
    const index_t lo = p.begin + n * tid / nt;
    const index_t hi = p.begin + n * (tid + 1) / nt;
    T acc{};
    for (index_t i = lo; i < hi; ++i) f(i, acc, false);
    chunk_sum[static_cast<std::size_t>(tid) + 1] = acc;
#pragma omp barrier
#pragma omp single
    {
      for (int t = 1; t <= nt; ++t)
        chunk_sum[static_cast<std::size_t>(t)] +=
            chunk_sum[static_cast<std::size_t>(t) - 1];
    }
    T acc2 = chunk_sum[static_cast<std::size_t>(tid)];
    for (index_t i = lo; i < hi; ++i) f(i, acc2, true);
  }
  total = chunk_sum[static_cast<std::size_t>(nt)];
#else
  scan_impl(RangePolicy<Serial>(p.begin, p.end), f, total);
#endif
}

}  // namespace detail

template <class ExecSpace, class Functor, class T>
void parallel_scan(const char* name, const RangePolicy<ExecSpace>& p,
                   const Functor& f, T& total) {
  const std::uint64_t kid = prof::begin_parallel(
      "parallel_scan", name, ExecSpace::name(), detail::policy_work(p));
  detail::scan_impl(p, f, total);
  prof::end_parallel("parallel_scan", kid);
}

template <class ExecSpace, class Functor, class T>
void parallel_scan(const RangePolicy<ExecSpace>& p, const Functor& f,
                   T& total) {
  parallel_scan(nullptr, p, f, total);
}

}  // namespace vpic::pk
