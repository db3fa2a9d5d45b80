#pragma once
// Work-stealing task pool on top of pk::Instance worker threads.
//
// Each worker owns a LIFO deque: the owner pushes/pops at the back (hot
// in cache, depth-first), idle workers steal *half* a victim's deque from
// the front (breadth-first, coarsest tasks first — the classic Cilk/ABP
// split that bounds steal traffic to O(workers * log(tasks))). Victims
// are picked by a per-worker xorshift RNG so no two thieves convoy on the
// same queue.
//
// The pool is built for core::StepGraph's tiled step: tasks are seeded
// onto specific deques by a cost model (measured s/particle * tile
// population) so the *expected* load starts balanced, and stealing only
// pays for the residual imbalance the model missed. Tasks may spawn
// further tasks from inside a task (dependency-graph continuations); a
// run() round terminates when every spawned task has finished.
//
// Determinism note: the pool never promises an execution *order* — tiled
// physics stays bit-deterministic because deposits go to tile-private
// accumulator blocks merged in fixed tile order, not because of anything
// the scheduler does. The untiled step bypasses this pool entirely
// (StepGraph::execute_serial).
//
// Counters (fired from run(), on the caller's thread, so a farm job's
// prof::CounterScope prefix applies): steal.attempts, steal.hits,
// steal.tasks_moved, steal.idle_us, steal.tasks_run. Tasks run under the
// caller's counter prefix too, for the duration of the round.

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
  std::uint64_t idle_us = 0;        // summed worker wait time (all workers)
};

/// Persistent pool of `workers` threads executing std::function tasks
/// with per-worker deques and randomized steal-half balancing.
class StealPool {
 public:
  /// Spawns `workers` threads (>= 1). `seed` fixes the victim-selection
  /// RNG streams so runs are reproducible scheduler-wise too.
  explicit StealPool(int workers, std::uint64_t seed = 0x9e3779b97f4a7c15ull);
  ~StealPool();

  StealPool(const StealPool&) = delete;
  StealPool& operator=(const StealPool&) = delete;

  int workers() const;

  /// Enqueue a task on worker `home`'s deque (cost-model seeding).
  /// Thread-safe and callable from inside a running task too — the
  /// dependency-graph executor uses that to LPT-spread a wave of
  /// newly-ready tasks instead of piling them on one deque.
  void seed(int home, std::function<void()> task);

  /// Enqueue a task from *inside* a running task: lands on the back of
  /// the calling worker's own deque (LIFO, cache-warm continuation).
  /// Falls back to deque 0 when called from a non-worker thread.
  void spawn(std::function<void()> task);

  /// Execute every seeded task (plus anything they spawn) to completion.
  /// Returns per-round stats and fires the prof counters listed above on
  /// the calling thread. Rethrows the first task exception after the
  /// round drains (remaining tasks are still executed).
  StealStats run();

  /// Stats from the last completed run().
  const StealStats& last_stats() const;

  /// Worker index of the calling thread while inside a task, -1 outside.
  /// Schedulers use it to attribute phase placement in their telemetry.
  static int current_worker() noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace vpic::pk
