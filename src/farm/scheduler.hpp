// farm/scheduler.hpp
//
// vpic::farm — a multi-tenant simulation run farm (docs/FARM.md): a job
// queue of decks multiplexed onto a fixed worker budget with weighted
// fair time-slicing in units of simulation steps, strict priority
// classes, and cooperative checkpoint-based preemption on the vpic::ckpt
// generation ring.
//
// Scheduling policy:
//   * `max_concurrent` worker threads each run one job at a time — the
//     farm's concurrency budget. Decks typically pin small kernel-thread
//     counts (pk::initialize) so N tenants spread across cores instead of
//     oversubscribing one kernel's team.
//   * A quantum is `slice_steps` whole simulation steps. After a slice
//     the job goes back to the queue and the worker picks the runnable
//     job with the highest priority, ties broken by lowest virtual time.
//     Virtual time advances by steps/weight, so equal-priority jobs
//     converge to step shares proportional to their weights (weighted
//     fair queueing). A newly submitted job starts at the minimum live
//     vtime: it gets service promptly but cannot monopolize the farm.
//   * Preemption is cooperative and checkpoint-based: when a runnable
//     job outranks every running one and no worker is idle, the
//     lowest-priority running job is asked to yield. It stops at the next
//     step boundary, checkpoints to its per-job generation ring,
//     releases the engine (freeing its memory), and requeues as
//     Preempted; the resume path rebuilds the deck and restores
//     bit-identically (the vpic::ckpt guarantee).
//   * An ordinary end-of-slice yield keeps the Simulation resident —
//     checkpoint cost is only paid when the slot or the memory is
//     actually needed (preempt/pause) or on explicit request.
//
// Thread-safety: every public method may be called from any thread
// (the StatusBus serves them over the wire). JobSpec callbacks run on
// worker threads and must not call back into the Scheduler.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "farm/job.hpp"

namespace vpic::farm {

struct SliceOutcome;

class Scheduler {
 public:
  struct Options {
    /// Worker threads == maximum concurrently stepping jobs.
    int max_concurrent = 2;
    /// Scheduling quantum in simulation steps.
    std::int64_t slice_steps = 8;
    /// Directory for per-job checkpoint rings when JobSpec::ckpt_base is
    /// empty (created on first use; rings are siblings, one per job name).
    std::string ring_dir = ".vpic_farm";
  };

  Scheduler();  // default Options
  explicit Scheduler(Options opt);
  /// Stops accepting work, asks running slices to yield at the next step
  /// boundary, and joins the workers. Non-terminal jobs are left as-is
  /// (their rings persist; a future Scheduler can resubmit and resume).
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Enqueue a job. Throws std::invalid_argument on a duplicate or empty
  /// name, a missing factory, or total_steps < 1. If the job's ring
  /// already holds generations (a previous farm run), the first slice
  /// restores from it and continues — submit-with-existing-ring IS the
  /// farm's crash-recovery path.
  void submit(JobSpec spec);

  // ---- steering (all return false for an unknown name or a state the
  // ---- transition does not apply to) --------------------------------
  /// Park a job: running → yields at the next step boundary, checkpoints
  /// to its ring and releases the engine; queued → parks immediately.
  bool pause(const std::string& name);
  /// Make a Paused job runnable again.
  bool resume(const std::string& name);
  /// Terminal stop. `drop_checkpoints` purges the job's ring too.
  bool cancel(const std::string& name, bool drop_checkpoints = false);
  /// Force an immediate checkpoint-and-release yield (running jobs) or
  /// park-to-ring of a resident queued job. The job stays runnable.
  bool preempt(const std::string& name);
  /// Re-prioritize; may trigger a preemption of a lower-priority runner.
  bool set_priority(const std::string& name, int priority);
  /// Elastic rescale (docs/ELASTIC.md): from the job's next slice on,
  /// its kernels run on `threads` OpenMP threads, whatever the process-wide
  /// pk::initialize count (pk::ThreadConcurrency on the slice's worker
  /// thread). A running job is preempted so the new width takes effect
  /// promptly; a resident queued job is parked. The override persists
  /// across further preemptions until the next rescale. `threads` outside
  /// [1, kMaxRescaleWorkers] or an unknown / terminal job returns false.
  bool rescale(const std::string& name, int threads);
  /// Most kernel threads a rescale may ask for: the count arrives over
  /// the StatusBus socket, and each kernel opens that many threads.
  static constexpr int kMaxRescaleWorkers = 256;

  /// Status of every job ever submitted, in submission order.
  [[nodiscard]] std::vector<JobStatus> snapshot() const;
  /// Status of one job; nullopt for an unknown name.
  [[nodiscard]] std::optional<JobStatus> status(const std::string& name) const;

  /// Block until `name` reaches a terminal state (Completed / Cancelled /
  /// Failed). Returns its final status; nullopt for an unknown name.
  std::optional<JobStatus> wait(const std::string& name);
  /// Block until no job is runnable or running (Paused jobs do not hold
  /// wait_idle open — they only move on explicit resume()).
  void wait_idle();

  [[nodiscard]] const Options& options() const noexcept { return opt_; }

 private:
  struct Job;

  void worker_loop();
  /// Highest priority, then lowest vtime, then submission order; nullptr
  /// when nothing is runnable. Caller holds mu_.
  Job* pick_runnable_locked();
  /// If a runnable job outranks a running one and no worker is idle, flag
  /// the weakest runner to yield-and-checkpoint. Caller holds mu_.
  void maybe_preempt_locked();
  /// Checkpoint `j`'s resident engine to its ring and release it. The
  /// engine must be quiescent (between slices / inline under mu_).
  void park_to_ring(Job& j);
  /// One scheduling quantum, run with mu_ dropped: build/restore the
  /// engine if needed, step to the slice target or an early yield, sample
  /// energies. Returns what happened; the caller applies it under mu_.
  /// `threads` is the job's rescale override, snapshotted under mu_ by
  /// the caller (0 = the process-wide count).
  SliceOutcome run_slice(Job& j, bool restore_from_ring, int threads);
  void finalize_locked(Job& j, JobState terminal, const std::string& error);
  [[nodiscard]] JobStatus status_of_locked(const Job& j) const;

  Options opt_;
  mutable std::mutex mu_;
  std::condition_variable cv_work_;   // workers: runnable job / stop
  std::condition_variable cv_state_;  // wait()/wait_idle() watchers
  std::vector<std::unique_ptr<Job>> jobs_;  // stable addresses
  int running_ = 0;                   // jobs in state Running
  bool stop_ = false;
  std::vector<std::thread> workers_;  // last member: joined first
};

}  // namespace vpic::farm
