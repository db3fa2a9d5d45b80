#include "pk/stealing.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <vector>

#include "pk/execution.hpp"
#include "prof/prof.hpp"

#if !PK_HAVE_OPENMP
#include <thread>
#endif

namespace vpic::pk {

namespace {

// Which deque the current thread owns during a run() round (-1 outside
// one). Each member sets it on entry and restores it on exit.
thread_local int t_worker = -1;

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

// splitmix64 (Steele, Lea and Flood): a bijection on 64-bit words whose
// outputs for consecutive inputs are statistically independent.
std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

namespace detail {

std::uint64_t steal_rng_state(std::uint64_t seed, int w) noexcept {
  const std::uint64_t s = splitmix64(seed + static_cast<std::uint64_t>(w));
  // splitmix64 is a bijection, so exactly one input maps to 0.
  return s != 0 ? s : 0x9e3779b97f4a7c15ull;
}

int steal_victim(std::uint64_t& state, int self, int n) noexcept {
  const int victim =
      static_cast<int>(xorshift(state) % static_cast<std::uint64_t>(n));
  return victim == self ? (victim + 1) % n : victim;
}

}  // namespace detail

struct StealPool::Impl {
  struct Worker {
    std::mutex mu;
    std::deque<std::function<void()>> dq;
    std::uint64_t rng = 0;
    // Per-round tallies, written only by the member that owns the deque
    // during a round and read by run() after the round.
    std::uint64_t tasks_run = 0;
    std::uint64_t steal_attempts = 0;
    std::uint64_t steal_hits = 0;
    std::uint64_t tasks_stolen = 0;
    std::uint64_t idle_us = 0;
  };

  std::vector<std::unique_ptr<Worker>> workers;
  std::atomic<std::uint64_t> pending{0};
  std::mutex cv_mu;
  std::condition_variable cv;
  std::mutex err_mu;
  std::exception_ptr first_error;
  StealStats last;

  explicit Impl(int n, std::uint64_t seed) {
    if (n < 1) n = 1;
    workers.reserve(static_cast<std::size_t>(n));
    for (int w = 0; w < n; ++w) {
      workers.push_back(std::make_unique<Worker>());
      workers.back()->rng = detail::steal_rng_state(seed, w);
    }
  }

  void push(int home, std::function<void()> task) {
    Worker& wk = *workers[static_cast<std::size_t>(home)];
    pending.fetch_add(1, std::memory_order_release);
    std::lock_guard<std::mutex> lk(wk.mu);
    wk.dq.push_back(std::move(task));
  }

  /// Steal ~half of some victim's deque (front = oldest = coarsest).
  /// Returns one task to run now; the rest land on the thief's own deque.
  /// Probes every other deque once, starting at a random victim: thieves
  /// do not convoy on one queue, and the deques of members the runtime
  /// did not grant are always found.
  std::function<void()> try_steal(int self) {
    const int n = static_cast<int>(workers.size());
    if (n < 2) return nullptr;
    Worker& me = *workers[static_cast<std::size_t>(self)];
    const int first = detail::steal_victim(me.rng, self, n);
    for (int k = 0; k < n; ++k) {
      const int victim = (first + k) % n;
      if (victim == self) continue;
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
          record_error();
        }
        if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
          cv.notify_all();
        continue;
      }
      if (pending.load(std::memory_order_acquire) == 0) break;
      // Nothing runnable but tasks are in flight elsewhere (running, or
      // between deques in another member's steal): nap on the cv (short
      // timeout bounds any missed wakeup) and charge the wait to this
      // member's idle account.
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

  void record_error() {
    std::lock_guard<std::mutex> lk(err_mu);
    if (!first_error) first_error = std::current_exception();
  }

  /// One member's share of a round, under the caller's counter prefix
  /// and region path. Never throws: an OpenMP region must not be left by
  /// an exception.
  void member(int self, const std::string& prefix,
              const std::string& region) noexcept {
    const int outer = t_worker;
    t_worker = self;
    try {
      const vpic::prof::CounterScope counters(prefix);
      const vpic::prof::RegionBase regions(region);
      drain(self);
    } catch (...) {
      record_error();
    }
    t_worker = outer;
  }
};

StealPool::StealPool(int workers, std::uint64_t seed)
    : impl_(std::make_unique<Impl>(workers, seed)) {}

StealPool::~StealPool() = default;

int StealPool::workers() const {
  return static_cast<int>(impl_->workers.size());
}

int StealPool::current_worker() noexcept { return t_worker; }

void StealPool::seed(int home, std::function<void()> task) {
  const int n = workers();
  if (home < 0 || home >= n) home = 0;
  impl_->push(home, std::move(task));
}

StealStats StealPool::run() {
  Impl& im = *impl_;
  for (auto& wk : im.workers) {
    wk->tasks_run = wk->steal_attempts = wk->steal_hits = 0;
    wk->tasks_stolen = wk->idle_us = 0;
  }
  im.first_error = nullptr;

  const std::string prefix = vpic::prof::counter_prefix();
  const std::string region = vpic::prof::region_path();
  const int n = workers();
#if PK_HAVE_OPENMP
  // The region is as wide as the caller's kernel team when that is wider,
  // and the members past n take no deque: libgomp reshapes its thread
  // pool whenever the team width changes, so alternating a 2-member round
  // with 4-thread kernels would cost 0.5-0.8 ms per pair on the reference
  // host.
#pragma omp parallel num_threads(std::max(n, OpenMP::concurrency()))
  {
    const int w = omp_get_thread_num();
    if (w < n) im.member(w, prefix, region);
  }
#else
  std::vector<std::thread> members;
  members.reserve(static_cast<std::size_t>(n - 1));
  for (int w = 1; w < n; ++w) {
    try {
      members.emplace_back(
          [&im, &prefix, &region, w] { im.member(w, prefix, region); });
    } catch (...) {
      break;  // fewer members: the ones started steal the rest
    }
  }
  im.member(0, prefix, region);
  for (std::thread& t : members) t.join();
#endif

  StealStats s;
  for (auto& wk : im.workers) {
    s.tasks_run += wk->tasks_run;
    s.steal_attempts += wk->steal_attempts;
    s.steal_hits += wk->steal_hits;
    s.tasks_stolen += wk->tasks_stolen;
    s.idle_us += wk->idle_us;
  }
  im.last = s;

  // Fired once per round on the caller, from the summed tallies.
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
