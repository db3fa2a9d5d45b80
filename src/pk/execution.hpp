// pk/execution.hpp
//
// Execution spaces and policies, modeled on Kokkos. Two host backends are
// provided: Serial and OpenMP. Kernels take a policy tagged with a space and
// are dispatched by pk::parallel_for / parallel_reduce / parallel_scan
// (pk/parallel.hpp). TeamPolicy provides the hierarchical parallelism used
// by the "auto" vectorization strategy (Section 4.2: league -> threads,
// vector ranges -> compiler-vectorized inner loops).
#pragma once

#include <cassert>

#include "pk/config.hpp"
#include "pk/layout.hpp"

namespace vpic::pk {

struct Serial {
  static constexpr const char* name() noexcept { return "Serial"; }
  static int concurrency() noexcept { return 1; }
};

struct OpenMP {
  static constexpr const char* name() noexcept { return "OpenMP"; }
  /// Team size of every OpenMP kernel, on whichever thread launches it.
  static int concurrency() noexcept {
#if PK_HAVE_OPENMP
    return pk::concurrency();
#else
    return 1;
#endif
  }
};

#if PK_HAVE_OPENMP
using DefaultExecSpace = OpenMP;
#else
using DefaultExecSpace = Serial;
#endif

/// 1-D iteration range [begin, end).
template <class ExecSpace = DefaultExecSpace>
struct RangePolicy {
  using execution_space = ExecSpace;
  index_t begin = 0;
  index_t end = 0;

  RangePolicy(index_t b, index_t e) : begin(b), end(e) { assert(e >= b); }
  explicit RangePolicy(index_t n) : RangePolicy(0, n) {}
  [[nodiscard]] index_t count() const noexcept { return end - begin; }
};

/// 2-D rectangular iteration (subset of Kokkos MDRangePolicy).
template <class ExecSpace = DefaultExecSpace>
struct MDRangePolicy2 {
  using execution_space = ExecSpace;
  index_t begin0 = 0, end0 = 0;
  index_t begin1 = 0, end1 = 0;

  MDRangePolicy2(index_t b0, index_t e0, index_t b1, index_t e1)
      : begin0(b0), end0(e0), begin1(b1), end1(e1) {
    assert(e0 >= b0 && e1 >= b1);
  }
};

/// 3-D rectangular iteration (subset of Kokkos MDRangePolicy<Rank<3>>).
template <class ExecSpace = DefaultExecSpace>
struct MDRangePolicy3 {
  using execution_space = ExecSpace;
  index_t begin0 = 0, end0 = 0;
  index_t begin1 = 0, end1 = 0;
  index_t begin2 = 0, end2 = 0;

  MDRangePolicy3(index_t b0, index_t e0, index_t b1, index_t e1, index_t b2,
                 index_t e2)
      : begin0(b0), end0(e0), begin1(b1), end1(e1), begin2(b2), end2(e2) {
    assert(e0 >= b0 && e1 >= b1 && e2 >= b2);
  }
};

/// Hierarchical (league-of-teams) policy. On the host a team is one thread;
/// vector-level parallelism maps to compiler-vectorized loops, mirroring how
/// Kokkos maps TeamThreadRange/ThreadVectorRange on CPU backends.
template <class ExecSpace = DefaultExecSpace>
struct TeamPolicy {
  using execution_space = ExecSpace;
  index_t league_size = 0;
  int team_size = 1;
  int vector_length = 1;

  TeamPolicy(index_t league, int team, int vlen = 1)
      : league_size(league), team_size(team), vector_length(vlen) {
    assert(league >= 0 && team >= 1 && vlen >= 1);
  }
};

/// Handle passed to team-policy kernels (subset of Kokkos team member API).
class TeamMember {
 public:
  TeamMember(index_t league_rank, index_t league_size, int team_rank,
             int team_size) noexcept
      : league_rank_(league_rank),
        league_size_(league_size),
        team_rank_(team_rank),
        team_size_(team_size) {}

  [[nodiscard]] index_t league_rank() const noexcept { return league_rank_; }
  [[nodiscard]] index_t league_size() const noexcept { return league_size_; }
  [[nodiscard]] int team_rank() const noexcept { return team_rank_; }
  [[nodiscard]] int team_size() const noexcept { return team_size_; }

  /// Host teams are a single thread; barrier is a no-op but kept so kernels
  /// written against the portable API read identically to Kokkos code.
  void team_barrier() const noexcept {}

 private:
  index_t league_rank_;
  index_t league_size_;
  int team_rank_;
  int team_size_;
};

/// Nested range executed by the threads of one team.
struct TeamThreadRange {
  const TeamMember& member;
  index_t begin;
  index_t end;
  TeamThreadRange(const TeamMember& m, index_t n)
      : member(m), begin(0), end(n) {}
  TeamThreadRange(const TeamMember& m, index_t b, index_t e)
      : member(m), begin(b), end(e) {}
};

/// Innermost vector range: the loop the compiler is asked to vectorize.
struct ThreadVectorRange {
  const TeamMember& member;
  index_t begin;
  index_t end;
  ThreadVectorRange(const TeamMember& m, index_t n)
      : member(m), begin(0), end(n) {}
  ThreadVectorRange(const TeamMember& m, index_t b, index_t e)
      : member(m), begin(b), end(e) {}
};

}  // namespace vpic::pk
