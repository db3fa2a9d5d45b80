#include "pk/config.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>

namespace vpic::pk {

namespace {
std::atomic<int> g_threads{0};  // 0 = uninitialized
thread_local int t_threads = 0;  // 0 = no ThreadConcurrency binding
}

int concurrency() noexcept {
  if (t_threads > 0) return t_threads;
#if PK_HAVE_OPENMP
  // An initialized count binds every thread's kernels, not only the
  // caller's: OpenMP keeps omp_set_num_threads per thread, so farm
  // workers and minimpi ranks would otherwise size their teams from the
  // environment.
  const int bound = g_threads.load(std::memory_order_relaxed);
  return bound > 0 ? bound : omp_get_max_threads();
#else
  return std::max(1u, std::thread::hardware_concurrency());
#endif
}

void initialize() noexcept {
  if (g_threads.load(std::memory_order_relaxed) > 0) return;
  // Honor OMP_NUM_THREADS if set; else use all hardware threads.
  const char* env = std::getenv("OMP_NUM_THREADS");
  int nt = env ? std::atoi(env) : 0;
  if (nt <= 0) nt = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  initialize(nt);
}

void initialize(int num_threads) noexcept {
  const int nt = std::max(1, num_threads);
  g_threads.store(nt, std::memory_order_relaxed);
#if PK_HAVE_OPENMP
  omp_set_num_threads(nt);
#endif
}

void finalize() noexcept { g_threads.store(0, std::memory_order_relaxed); }

ThreadConcurrency::ThreadConcurrency(int num_threads) noexcept
    : prev_(t_threads) {
  if (num_threads > 0) t_threads = num_threads;
}

ThreadConcurrency::~ThreadConcurrency() { t_threads = prev_; }

}  // namespace vpic::pk
