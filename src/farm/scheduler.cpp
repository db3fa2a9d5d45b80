// farm/scheduler.cpp — worker pool, weighted fair queueing, and the
// checkpoint-based preemption lifecycle (docs/FARM.md).
//
// Locking model: one mutex (mu_) guards the job table and every status
// field. Workers step simulations with the lock dropped; a job's engine
// (Job::sim) is touched only by the worker that owns it while the job is
// Running, or inline under mu_ for jobs that are provably not running
// (queued-resident pause/preempt). The per-step yield flag is the only
// cross-thread signal read without the lock — an atomic the engine polls
// between steps via Simulation::run_until.

#include "farm/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <stdexcept>

#include "ckpt/ring.hpp"
#include "prof/prof.hpp"

namespace vpic::farm {

namespace fs = std::filesystem;
using clock_t_ = std::chrono::steady_clock;

const char* to_string(JobState s) noexcept {
  switch (s) {
    case JobState::Queued:
      return "queued";
    case JobState::Running:
      return "running";
    case JobState::Preempted:
      return "preempted";
    case JobState::Paused:
      return "paused";
    case JobState::Completed:
      return "completed";
    case JobState::Cancelled:
      return "cancelled";
    case JobState::Failed:
      return "failed";
  }
  return "?";
}

namespace {

bool is_terminal(JobState s) noexcept {
  return s == JobState::Completed || s == JobState::Cancelled ||
         s == JobState::Failed;
}

bool is_runnable(JobState s) noexcept {
  return s == JobState::Queued || s == JobState::Preempted;
}

}  // namespace

struct Scheduler::Job {
  JobSpec spec;
  std::size_t index = 0;  // submission order (final fairness tiebreak)
  std::string ring_base;
  JobState state = JobState::Queued;
  std::int64_t step = 0;
  double vtime = 0;
  std::int64_t slices = 0;
  std::int64_t preemptions = 0;
  std::int64_t restores = 0;
  std::int64_t checkpoints = 0;
  // Set by steering calls, polled by the engine between steps
  // (Simulation::run_until); cleared by the owning worker at slice start.
  std::atomic<bool> yield{false};
  // Steering intents, guarded by mu_; applied by the owning worker after
  // the slice for Running jobs, inline otherwise.
  bool cancel_req = false;
  bool pause_req = false;
  bool preempt_req = false;
  bool drop_ckpt_on_cancel = false;
  bool has_ckpt = false;  // the ring holds at least one generation
  // Elastic rescale overrides (docs/ELASTIC.md), guarded by mu_; 0 means
  // "deck default". Snapshotted by the owning worker before the slice and
  // applied to the freshly built engine's TileConfig ahead of restore.
  int workers_override = 0;
  int tiles_override = 0;
  std::int64_t rescales = 0;
  std::optional<core::Simulation> sim;  // resident engine (may be parked)
  double field_energy = 0;
  std::vector<double> kinetic;
  std::string error;
  clock_t_::time_point submitted{};
  double latency_s = 0;
};

/// Everything a slice produced, applied to the job under mu_ afterwards
/// (keeps worker-side writes to shared fields lock-protected for TSan).
struct SliceOutcome {
  std::int64_t step = 0;
  std::int64_t taken = 0;
  std::int64_t restores = 0;
  double field_energy = 0;
  std::vector<double> kinetic;
  bool failed = false;
  std::string error;
};

Scheduler::Scheduler() : Scheduler(Options{}) {}

Scheduler::Scheduler(Options opt) : opt_(std::move(opt)) {
  opt_.max_concurrent = std::max(1, opt_.max_concurrent);
  opt_.slice_steps = std::max<std::int64_t>(1, opt_.slice_steps);
  if (opt_.ring_dir.empty()) opt_.ring_dir = ".vpic_farm";
  workers_.reserve(static_cast<std::size_t>(opt_.max_concurrent));
  for (int i = 0; i < opt_.max_concurrent; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

Scheduler::~Scheduler() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
    // Running slices end at the next step boundary and park to their
    // rings, so in-flight progress survives a farm shutdown.
    for (auto& j : jobs_)
      if (j->state == JobState::Running)
        j->yield.store(true, std::memory_order_relaxed);
    cv_work_.notify_all();
  }
  for (auto& w : workers_) w.join();
}

void Scheduler::submit(JobSpec spec) {
  if (spec.name.empty())
    throw std::invalid_argument("farm: job name must not be empty");
  if (!spec.make)
    throw std::invalid_argument("farm: job '" + spec.name +
                                "' has no deck factory");
  if (spec.total_steps < 1)
    throw std::invalid_argument("farm: job '" + spec.name +
                                "' must run at least one step");
  std::lock_guard lk(mu_);
  if (stop_)
    throw std::runtime_error("farm: scheduler is shutting down");
  for (const auto& j : jobs_)
    if (j->spec.name == spec.name)
      throw std::invalid_argument("farm: duplicate job name '" + spec.name +
                                  "'");
  auto job = std::make_unique<Job>();
  job->index = jobs_.size();
  job->ring_base = spec.ckpt_base.empty() ? opt_.ring_dir + "/" + spec.name
                                          : spec.ckpt_base;
  job->spec = std::move(spec);
  job->submitted = clock_t_::now();
  // A ring with committed generations means a previous farm (or run) was
  // interrupted: the first slice restores and continues from it.
  job->has_ckpt = !ckpt::GenerationRing(job->ring_base,
                                        job->spec.ckpt_keep_last)
                       .generations()
                       .empty();
  // Start at the minimum live virtual time: prompt service without
  // letting a latecomer replay the head start others already consumed.
  double vmin = std::numeric_limits<double>::infinity();
  for (const auto& j : jobs_)
    if (!is_terminal(j->state) && j->state != JobState::Paused)
      vmin = std::min(vmin, j->vtime);
  job->vtime = std::isinf(vmin) ? 0.0 : vmin;
  jobs_.push_back(std::move(job));
  maybe_preempt_locked();
  cv_work_.notify_one();
}

Scheduler::Job* Scheduler::pick_runnable_locked() {
  Job* best = nullptr;
  for (const auto& j : jobs_) {
    if (!is_runnable(j->state)) continue;
    if (!best || j->spec.priority > best->spec.priority ||
        (j->spec.priority == best->spec.priority && j->vtime < best->vtime))
      best = j.get();
  }
  return best;
}

void Scheduler::maybe_preempt_locked() {
  int running = 0;
  for (const auto& j : jobs_)
    if (j->state == JobState::Running) ++running;
  if (running < opt_.max_concurrent) return;  // an idle worker exists
  const Job* waiting = pick_runnable_locked();
  if (!waiting) return;
  // Weakest runner: lowest priority, then largest vtime (most served).
  Job* victim = nullptr;
  for (const auto& j : jobs_) {
    if (j->state != JobState::Running) continue;
    if (j->preempt_req || j->pause_req || j->cancel_req) continue;
    if (!victim || j->spec.priority < victim->spec.priority ||
        (j->spec.priority == victim->spec.priority &&
         j->vtime > victim->vtime))
      victim = j.get();
  }
  if (victim && waiting->spec.priority > victim->spec.priority) {
    victim->preempt_req = true;
    victim->yield.store(true, std::memory_order_relaxed);
  }
}

void Scheduler::park_to_ring(Job& j) {
  if (!j.sim) return;
  const fs::path base(j.ring_base);
  if (base.has_parent_path()) {
    std::error_code ec;
    fs::create_directories(base.parent_path(), ec);
  }
  ckpt::GenerationRing ring(j.ring_base, j.spec.ckpt_keep_last);
  j.sim->checkpoint(ring.path_for(ring.next_generation()));
  ring.prune();
  j.sim.reset();
}

SliceOutcome Scheduler::run_slice(Job& j, bool restore_from_ring,
                                  int workers, int tiles) {
  SliceOutcome out;
  try {
    // Every engine counter fired during this slice (sort/push dispatch,
    // checkpoint events, ...) lands under the job's namespace.
    prof::CounterScope scope("job." + j.spec.name + ".");
    if (!j.sim) {
      j.sim.emplace(j.spec.make());
      // Elastic rescale: the override reshapes the fresh engine before the
      // restore. Legal because TileConfig is excluded from the checkpoint
      // fingerprint — the parked state is shape-agnostic (docs/ELASTIC.md).
      if (workers > 0) {
        auto& t = j.sim->config().tiles;
        t.enabled = true;
        t.workers = workers;
        if (tiles > 0) t.count = tiles;
        prof::counter_add("farm.rescale_applied");
      }
      if (restore_from_ring) {
        j.sim->restore_latest(j.ring_base);
        out.restores = 1;
        prof::counter_add("farm.restore");
      }
      // Tile-granular preemption observation (docs/TILES.md): a tiled
      // step polls between every (phase x tile) task, so a yield raised
      // mid-step is noticed within one tile's worth of work instead of a
      // whole step. The job still exits at the step boundary (the ckpt
      // ring needs a quiescent engine); the counter's value is the number
      // of phase polls that ran with a yield pending — a direct measure
      // of how quickly a preempt is seen. Untiled sims ignore the poll.
      j.sim->set_phase_poll([&j] {
        if (j.yield.load(std::memory_order_relaxed))
          prof::counter_add("farm.yield_seen_midstep");
      });
    }
    prof::counter_add("farm.slice");
    const std::int64_t target = std::min(
        j.sim->step_count() + opt_.slice_steps, j.spec.total_steps);
    out.taken = j.sim->run_until(target, [&j] {
      return j.yield.load(std::memory_order_relaxed);
    });
    out.step = j.sim->step_count();
    // Slice-boundary in-situ sample: the engine is quiescent here, so the
    // StatusBus never reads fields/particles racing a step.
    const auto e = j.sim->energies();
    out.field_energy = e.field;
    out.kinetic = e.species;
    if (j.spec.on_slice) j.spec.on_slice(*j.sim);
  } catch (const std::exception& e) {
    out.failed = true;
    out.error = e.what();
  } catch (...) {
    out.failed = true;
    out.error = "unknown error";
  }
  return out;
}

void Scheduler::worker_loop() {
  std::unique_lock lk(mu_);
  for (;;) {
    Job* j = nullptr;
    cv_work_.wait(lk, [&] {
      if (stop_) return true;
      j = pick_runnable_locked();
      return j != nullptr;
    });
    if (stop_) return;
    j->state = JobState::Running;
    ++running_;
    j->yield.store(false, std::memory_order_relaxed);
    j->preempt_req = false;
    const bool restore_from_ring = j->has_ckpt && !j->sim;
    const int workers = j->workers_override;
    const int tiles = j->tiles_override;
    lk.unlock();
    SliceOutcome out = run_slice(*j, restore_from_ring, workers, tiles);
    lk.lock();
    if (out.failed) {
      --running_;
      finalize_locked(*j, JobState::Failed, out.error);
      continue;
    }
    j->step = out.step;
    j->vtime += static_cast<double>(out.taken) /
                static_cast<double>(std::max(1, j->spec.weight));
    ++j->slices;
    j->restores += out.restores;
    j->field_energy = out.field_energy;
    j->kinetic = std::move(out.kinetic);
    const bool completed = out.step >= j->spec.total_steps;
    if (completed) {
      std::string cb_err;
      if (j->spec.on_complete) {
        lk.unlock();
        try {
          j->spec.on_complete(*j->sim);
        } catch (const std::exception& e) {
          cb_err = std::string("on_complete: ") + e.what();
        } catch (...) {
          cb_err = "on_complete: unknown error";
        }
        lk.lock();
      }
      --running_;
      finalize_locked(*j, cb_err.empty() ? JobState::Completed
                                         : JobState::Failed,
                      cb_err);
    } else if (j->cancel_req) {
      --running_;
      finalize_locked(*j, JobState::Cancelled, "");
    } else if (j->pause_req || j->preempt_req ||
               j->yield.load(std::memory_order_relaxed)) {
      // Preempt or pause: park the quiescent engine to the per-job ring
      // and release its memory; state survives on disk.
      const bool pausing = j->pause_req;
      lk.unlock();
      std::string park_err;
      try {
        park_to_ring(*j);
      } catch (const std::exception& e) {
        park_err = std::string("park: ") + e.what();
      } catch (...) {
        park_err = "park: unknown error";
      }
      lk.lock();
      --running_;
      if (!park_err.empty()) {
        finalize_locked(*j, JobState::Failed, park_err);
        continue;
      }
      j->has_ckpt = true;
      ++j->checkpoints;
      if (pausing) {
        j->state = JobState::Paused;
        j->pause_req = false;
      } else {
        j->state = JobState::Preempted;
        ++j->preemptions;
      }
      cv_work_.notify_all();
      cv_state_.notify_all();
    } else {
      // Ordinary end of quantum: requeue with the engine resident.
      --running_;
      j->state = JobState::Queued;
      cv_work_.notify_all();
      cv_state_.notify_all();
    }
  }
}

void Scheduler::finalize_locked(Job& j, JobState terminal,
                                const std::string& error) {
  j.sim.reset();
  j.state = terminal;
  j.error = error;
  j.latency_s =
      std::chrono::duration<double>(clock_t_::now() - j.submitted).count();
  if (terminal == JobState::Cancelled && j.drop_ckpt_on_cancel) {
    ckpt::GenerationRing(j.ring_base, j.spec.ckpt_keep_last).purge();
    j.has_ckpt = false;
  }
  cv_state_.notify_all();
  cv_work_.notify_all();
}

bool Scheduler::pause(const std::string& name) {
  std::lock_guard lk(mu_);
  for (const auto& jp : jobs_) {
    if (jp->spec.name != name) continue;
    Job& j = *jp;
    if (is_terminal(j.state) || j.state == JobState::Paused) return false;
    if (j.state == JobState::Running) {
      j.pause_req = true;
      j.yield.store(true, std::memory_order_relaxed);
      return true;  // applied by the owning worker at the step boundary
    }
    // Queued/Preempted: park inline (the engine is provably not stepping).
    const bool had_sim = j.sim.has_value();
    try {
      park_to_ring(j);
    } catch (const std::exception& e) {
      finalize_locked(j, JobState::Failed, std::string("park: ") + e.what());
      return false;
    }
    if (had_sim) {
      j.has_ckpt = true;
      ++j.checkpoints;
    }
    j.state = JobState::Paused;
    cv_state_.notify_all();
    return true;
  }
  return false;
}

bool Scheduler::resume(const std::string& name) {
  std::lock_guard lk(mu_);
  for (const auto& jp : jobs_) {
    if (jp->spec.name != name) continue;
    if (jp->state != JobState::Paused) return false;
    jp->state = jp->has_ckpt && !jp->sim ? JobState::Preempted
                                         : JobState::Queued;
    cv_work_.notify_all();
    cv_state_.notify_all();
    return true;
  }
  return false;
}

bool Scheduler::cancel(const std::string& name, bool drop_checkpoints) {
  std::lock_guard lk(mu_);
  for (const auto& jp : jobs_) {
    if (jp->spec.name != name) continue;
    Job& j = *jp;
    if (is_terminal(j.state)) return false;
    j.drop_ckpt_on_cancel = drop_checkpoints;
    if (j.state == JobState::Running) {
      j.cancel_req = true;
      j.yield.store(true, std::memory_order_relaxed);
      return true;
    }
    finalize_locked(j, JobState::Cancelled, "");
    return true;
  }
  return false;
}

bool Scheduler::preempt(const std::string& name) {
  std::lock_guard lk(mu_);
  for (const auto& jp : jobs_) {
    if (jp->spec.name != name) continue;
    Job& j = *jp;
    if (j.state == JobState::Running) {
      j.preempt_req = true;
      j.yield.store(true, std::memory_order_relaxed);
      return true;
    }
    if (is_runnable(j.state) && j.sim) {
      try {
        park_to_ring(j);
      } catch (const std::exception& e) {
        finalize_locked(j, JobState::Failed,
                        std::string("park: ") + e.what());
        return false;
      }
      j.has_ckpt = true;
      ++j.checkpoints;
      ++j.preemptions;
      j.state = JobState::Preempted;
      cv_state_.notify_all();
      return true;
    }
    return false;
  }
  return false;
}

bool Scheduler::set_priority(const std::string& name, int priority) {
  std::lock_guard lk(mu_);
  for (const auto& jp : jobs_) {
    if (jp->spec.name != name) continue;
    if (is_terminal(jp->state)) return false;
    jp->spec.priority = priority;
    maybe_preempt_locked();
    cv_work_.notify_all();
    return true;
  }
  return false;
}

bool Scheduler::rescale(const std::string& name, int workers, int tiles) {
  if (workers < 1 || workers > kMaxRescaleWorkers) return false;
  std::lock_guard lk(mu_);
  for (const auto& jp : jobs_) {
    if (jp->spec.name != name) continue;
    Job& j = *jp;
    if (is_terminal(j.state)) return false;
    j.workers_override = workers;
    j.tiles_override = tiles;
    ++j.rescales;
    if (j.state == JobState::Running) {
      // Checkpoint-and-release at the next step boundary; the rebuild
      // picks up the new shape before restoring.
      j.preempt_req = true;
      j.yield.store(true, std::memory_order_relaxed);
      return true;
    }
    if (is_runnable(j.state) && j.sim) {
      // Resident but not stepping: park inline so the next slice rebuilds
      // at the new shape instead of continuing the warm engine.
      try {
        park_to_ring(j);
      } catch (const std::exception& e) {
        finalize_locked(j, JobState::Failed,
                        std::string("park: ") + e.what());
        return false;
      }
      j.has_ckpt = true;
      ++j.checkpoints;
      j.state = JobState::Preempted;
      cv_work_.notify_all();
      cv_state_.notify_all();
    }
    // Paused or already-parked jobs: the override simply applies when the
    // engine is next rebuilt.
    return true;
  }
  return false;
}

JobStatus Scheduler::status_of_locked(const Job& j) const {
  JobStatus s;
  s.name = j.spec.name;
  s.state = j.state;
  s.step = j.step;
  s.total_steps = j.spec.total_steps;
  s.priority = j.spec.priority;
  s.weight = j.spec.weight;
  s.slices = j.slices;
  s.preemptions = j.preemptions;
  s.restores = j.restores;
  s.checkpoints = j.checkpoints;
  s.rescales = j.rescales;
  s.rescale_workers = j.workers_override;
  s.rescale_tiles = j.tiles_override;
  s.vtime = j.vtime;
  s.field_energy = j.field_energy;
  s.kinetic = j.kinetic;
  s.latency_s = j.latency_s;
  s.error = j.error;
  return s;
}

std::vector<JobStatus> Scheduler::snapshot() const {
  std::lock_guard lk(mu_);
  std::vector<JobStatus> out;
  out.reserve(jobs_.size());
  for (const auto& j : jobs_) out.push_back(status_of_locked(*j));
  return out;
}

std::optional<JobStatus> Scheduler::status(const std::string& name) const {
  std::lock_guard lk(mu_);
  for (const auto& j : jobs_)
    if (j->spec.name == name) return status_of_locked(*j);
  return std::nullopt;
}

std::optional<JobStatus> Scheduler::wait(const std::string& name) {
  std::unique_lock lk(mu_);
  Job* j = nullptr;
  for (const auto& jp : jobs_)
    if (jp->spec.name == name) j = jp.get();
  if (!j) return std::nullopt;
  cv_state_.wait(lk, [&] { return is_terminal(j->state); });
  return status_of_locked(*j);
}

void Scheduler::wait_idle() {
  std::unique_lock lk(mu_);
  cv_state_.wait(lk, [&] {
    for (const auto& j : jobs_)
      if (is_runnable(j->state) || j->state == JobState::Running) return false;
    return true;
  });
}

}  // namespace vpic::farm
