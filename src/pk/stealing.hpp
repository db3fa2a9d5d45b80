#pragma once
// Work-stealing task rounds on the calling thread's OpenMP team.
//
// Each member of a round owns a LIFO deque: the owner pops at the back
// (hot in cache, depth-first), idle members steal *half* a victim's deque
// from the front (breadth-first, coarsest tasks first — the classic
// Cilk/ABP split that bounds steal traffic to O(workers * log(tasks))).
// Victims are picked by a per-deque xorshift RNG so no two thieves convoy
// on the same queue.
//
// The pool owns deques, not threads. run() opens one OpenMP parallel
// region from the calling thread, as wide as workers() or the caller's
// kernel team, whichever is wider: member w < workers() drains deque w,
// the caller is member 0, and members past workers() take no deque. A
// round thus runs on the threads of the caller's kernels and the process
// holds one set of threads. A thief probes every other deque before it
// idles, so a round completes even when the runtime grants fewer members
// than asked (inside an active parallel region it grants one). Kernels a
// task launches run on its member alone: nested OpenMP regions are
// inactive. Without OpenMP, members 1..n-1 of each round are
// std::threads started and joined by run().
//
// The pool is built for core::StepGraph's tiled step, which hands it one
// round per level of mutually unordered tile tasks: tasks are seeded onto
// specific deques by a cost model (measured s/particle * tile population)
// so the *expected* load starts balanced, and stealing only pays for the
// residual imbalance the model missed. A run() round ends when every
// seeded task has finished.
//
// Determinism note: the pool never promises an execution *order* — tiled
// physics stays bit-deterministic because deposits go to tile-private
// accumulator blocks merged in fixed tile order, not because of anything
// the scheduler does. The untiled step runs without a pool
// (StepGraph::execute).
//
// Every member runs under the caller's prof counter prefix and region
// path for the round, so a task's counters land where the caller's own do
// (a farm job's "job.<name>." namespace) and its regions nest under the
// caller's open region ("step/push[electron.t0]") whichever member runs
// it. Counters fired from run() on the calling thread: steal.attempts,
// steal.hits, steal.tasks_moved, steal.idle_us, steal.tasks_run.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

namespace vpic::pk {

struct StealStats {
  std::uint64_t tasks_run = 0;      // tasks executed this round
  std::uint64_t steal_attempts = 0; // lock-and-look probes of a victim
  std::uint64_t steal_hits = 0;     // probes that moved >= 1 task
  std::uint64_t tasks_stolen = 0;   // tasks moved across deques
  std::uint64_t idle_us = 0;        // summed member wait time (all members)

  StealStats& operator+=(const StealStats& o) noexcept {
    tasks_run += o.tasks_run;
    steal_attempts += o.steal_attempts;
    steal_hits += o.steal_hits;
    tasks_stolen += o.tasks_stolen;
    idle_us += o.idle_us;
    return *this;
  }
};

namespace detail {

/// Initial victim-RNG state of worker `w` under pool seed `seed`:
/// splitmix64 of `seed + w`, so nearby workers draw unrelated streams.
/// Never 0: a zero xorshift state stays 0 and would pin every draw.
std::uint64_t steal_rng_state(std::uint64_t seed, int w) noexcept;

/// Draw the next victim for worker `self` of an `n`-worker pool (n >= 2),
/// advancing `state`. Never returns `self`.
int steal_victim(std::uint64_t& state, int self, int n) noexcept;

}  // namespace detail

/// `workers` deques of std::function tasks, drained by the members of a
/// round with randomized steal-half balancing.
class StealPool {
 public:
  /// `workers` (>= 1) deques, one per member of a round. `seed` fixes
  /// the victim-selection RNG streams so runs are reproducible
  /// scheduler-wise too.
  explicit StealPool(int workers, std::uint64_t seed = 0x9e3779b97f4a7c15ull);
  ~StealPool();

  StealPool(const StealPool&) = delete;
  StealPool& operator=(const StealPool&) = delete;

  int workers() const;

  /// Enqueue a task on worker `home`'s deque (cost-model seeding) for
  /// the next run().
  void seed(int home, std::function<void()> task);

  /// Execute every seeded task to completion on a round of workers()
  /// members, the caller being member 0.
  /// Returns per-round stats and fires the prof counters listed above on
  /// the calling thread. Rethrows the first task exception after the
  /// round drains (remaining tasks are still executed).
  StealStats run();

  /// Stats from the last completed run().
  const StealStats& last_stats() const;

  /// Worker index of the calling thread while inside a round, -1 outside.
  /// Schedulers use it to attribute phase placement in their telemetry.
  static int current_worker() noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace vpic::pk
