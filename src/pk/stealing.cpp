#include "pk/stealing.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <vector>

#include "pk/instance.hpp"
#include "prof/prof.hpp"

namespace vpic::pk {

namespace {

// Which deque the current thread owns during a run() round (-1 off the
// pool). Instance worker threads persist across rounds, so the index is
// stable for the pool's lifetime once set.
thread_local int t_worker = -1;

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

}  // namespace

struct StealPool::Impl {
  struct Worker {
    std::mutex mu;
    std::deque<std::function<void()>> dq;
    std::uint64_t rng = 0;
    // Per-round tallies, written only by the owning worker thread during
    // a round and read by run() after the fences.
    std::uint64_t tasks_run = 0;
    std::uint64_t steal_attempts = 0;
    std::uint64_t steal_hits = 0;
    std::uint64_t tasks_stolen = 0;
    std::uint64_t idle_us = 0;
  };

  std::vector<std::unique_ptr<Worker>> workers;
  std::vector<Instance<>> instances;
  std::atomic<std::uint64_t> pending{0};
  std::mutex cv_mu;
  std::condition_variable cv;
  std::mutex err_mu;
  std::exception_ptr first_error;
  StealStats last;

  explicit Impl(int n, std::uint64_t seed) {
    if (n < 1) n = 1;
    workers.reserve(static_cast<std::size_t>(n));
    instances.reserve(static_cast<std::size_t>(n));
    for (int w = 0; w < n; ++w) {
      workers.push_back(std::make_unique<Worker>());
      // splitmix-style stream separation so victim sequences differ.
      workers.back()->rng =
          seed ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(w + 1));
      instances.emplace_back();
    }
  }

  void push(int home, std::function<void()> task) {
    Worker& wk = *workers[static_cast<std::size_t>(home)];
    {
      std::lock_guard<std::mutex> lk(wk.mu);
      wk.dq.push_back(std::move(task));
    }
    pending.fetch_add(1, std::memory_order_release);
    cv.notify_one();
  }

  /// Steal ~half of some victim's deque (front = oldest = coarsest).
  /// Returns one task to run now; the rest land on the thief's own deque.
  std::function<void()> try_steal(int self) {
    const int n = static_cast<int>(workers.size());
    if (n < 2) return nullptr;
    Worker& me = *workers[static_cast<std::size_t>(self)];
    for (int probe = 0; probe + 1 < n; ++probe) {
      int victim =
          static_cast<int>(xorshift(me.rng) % static_cast<std::uint64_t>(n));
      if (victim == self) victim = (victim + 1) % n;
      Worker& vk = *workers[static_cast<std::size_t>(victim)];
      std::vector<std::function<void()>> loot;
      {
        std::lock_guard<std::mutex> lk(vk.mu);
        ++me.steal_attempts;
        const std::size_t have = vk.dq.size();
        if (have == 0) continue;
        const std::size_t take = (have + 1) / 2;
        loot.reserve(take);
        for (std::size_t i = 0; i < take; ++i) {
          loot.push_back(std::move(vk.dq.front()));
          vk.dq.pop_front();
        }
      }
      ++me.steal_hits;
      me.tasks_stolen += loot.size();
      std::function<void()> now = std::move(loot.front());
      if (loot.size() > 1) {
        std::lock_guard<std::mutex> lk(me.mu);
        for (std::size_t i = 1; i < loot.size(); ++i)
          me.dq.push_back(std::move(loot[i]));
      }
      return now;
    }
    return nullptr;
  }

  void drain(int self) {
    t_worker = self;
    Worker& me = *workers[static_cast<std::size_t>(self)];
    for (;;) {
      std::function<void()> task;
      {
        std::lock_guard<std::mutex> lk(me.mu);
        if (!me.dq.empty()) {
          task = std::move(me.dq.back());
          me.dq.pop_back();
        }
      }
      if (!task) task = try_steal(self);
      if (task) {
        ++me.tasks_run;
        try {
          task();
        } catch (...) {
          std::lock_guard<std::mutex> lk(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
        if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
          cv.notify_all();
        continue;
      }
      if (pending.load(std::memory_order_acquire) == 0) break;
      // Nothing runnable but tasks are in flight elsewhere and may spawn
      // more: nap on the cv (short timeout bounds any missed wakeup) and
      // charge the wait to this worker's idle account.
      const auto t0 = std::chrono::steady_clock::now();
      {
        std::unique_lock<std::mutex> lk(cv_mu);
        if (pending.load(std::memory_order_acquire) != 0)
          cv.wait_for(lk, std::chrono::microseconds(200));
      }
      me.idle_us += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
    }
  }
};

StealPool::StealPool(int workers, std::uint64_t seed)
    : impl_(std::make_unique<Impl>(workers, seed)) {}

StealPool::~StealPool() {
  // Instances fence-and-join on destruction; nothing queued outside run().
}

int StealPool::workers() const {
  return static_cast<int>(impl_->workers.size());
}

int StealPool::current_worker() noexcept { return t_worker; }

void StealPool::seed(int home, std::function<void()> task) {
  const int n = workers();
  if (home < 0 || home >= n) home = 0;
  impl_->push(home, std::move(task));
}

void StealPool::spawn(std::function<void()> task) {
  const int w = (t_worker >= 0 && t_worker < workers()) ? t_worker : 0;
  impl_->push(w, std::move(task));
}

StealStats StealPool::run() {
  Impl& im = *impl_;
  for (auto& wk : im.workers) {
    wk->tasks_run = wk->steal_attempts = wk->steal_hits = 0;
    wk->tasks_stolen = wk->idle_us = 0;
  }
  im.first_error = nullptr;

  // Tasks run under the caller's prof counter prefix, so counters fired
  // inside them land where the caller's own do (a farm job's
  // "job.<name>." namespace).
  const std::string prefix = vpic::prof::counter_prefix();
  const int n = workers();
  for (int w = 0; w < n; ++w)
    pk::async(im.instances[static_cast<std::size_t>(w)], "steal.drain",
              [&im, &prefix, w] {
                const vpic::prof::CounterScope scope(prefix);
                im.drain(w);
              });
  for (int w = 0; w < n; ++w) im.instances[static_cast<std::size_t>(w)].fence();

  StealStats s;
  for (auto& wk : im.workers) {
    s.tasks_run += wk->tasks_run;
    s.steal_attempts += wk->steal_attempts;
    s.steal_hits += wk->steal_hits;
    s.tasks_stolen += wk->tasks_stolen;
    s.idle_us += wk->idle_us;
  }
  im.last = s;

  // Fired here (not on the workers) so a farm job's CounterScope prefix
  // on the caller applies.
  vpic::prof::counter_add("steal.tasks_run", s.tasks_run);
  vpic::prof::counter_add("steal.attempts", s.steal_attempts);
  vpic::prof::counter_add("steal.hits", s.steal_hits);
  vpic::prof::counter_add("steal.tasks_moved", s.tasks_stolen);
  vpic::prof::counter_add("steal.idle_us", s.idle_us);

  if (im.first_error) {
    std::exception_ptr e = im.first_error;
    im.first_error = nullptr;
    std::rethrow_exception(e);
  }
  return s;
}

const StealStats& StealPool::last_stats() const { return impl_->last; }

}  // namespace vpic::pk
