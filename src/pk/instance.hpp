// pk/instance.hpp
//
// Asynchronous execution-space instances, modeled on Kokkos' execution
// space instances (and, below them, CUDA streams): an Instance<ExecSpace>
// is an independent FIFO work queue backed by a dedicated worker thread.
// A task submitted with pk::async returns to the caller immediately and
// executes in submission order on the instance's worker; two different
// instances execute concurrently with each other and with the submitting
// thread. Its two users are the StealPool workers (pk/stealing.hpp) and
// the background checkpoint writer (core/checkpoint.cpp).
//
//   pk::Instance<> a, b;
//   pk::async(a, "pack", [&] { pack(); });      // returns immediately
//   pk::async(b, "encode", [&] { encode(); });  // runs concurrently
//   a.fence();                                  // wait for the pack
//   pk::fence();                                // wait for everything
//
// Semantics mirrored from Kokkos:
//   * FIFO per instance — tasks on one instance never reorder or overlap.
//   * fence() waits for everything previously submitted to that instance;
//     the free pk::fence() waits on every live instance (config.hpp).
//   * Instances are cheap shareable handles (shared_ptr semantics); the
//     last handle fences the queue and joins the worker on destruction.
//   * everything a task captures by reference must stay alive (and must
//     not be read) until the instance is fenced.
//
// Exceptions thrown by asynchronous work are captured and rethrown from
// the next fence() on that instance (or from the global pk::fence()),
// like asynchronous CUDA errors surfacing at the next synchronization.
//
// Observability: every asynchronous submission fires an async_dispatch
// event with the instance id and queue depth, kernels a task dispatches
// fire the usual begin/end_parallel events on the worker, and fences fire
// begin/end_fence — so a trace shows both the submit timeline and the
// per-instance execution timeline (docs/ASYNC.md, docs/PROFILING.md).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "pk/execution.hpp"
#include "pk/prof_hooks.hpp"

namespace vpic::pk {

namespace detail {

/// Type-erased FIFO worker queue behind Instance<ExecSpace>. Non-template
/// so the queue/worker machinery lives in instance.cpp; pk::async below
/// enqueues closures.
class InstanceImpl {
 public:
  explicit InstanceImpl(const char* space_name);
  ~InstanceImpl();
  InstanceImpl(const InstanceImpl&) = delete;
  InstanceImpl& operator=(const InstanceImpl&) = delete;

  /// Append a task; returns the queue depth including the new task (the
  /// async_dispatch event's occupancy sample).
  std::uint64_t enqueue(std::function<void()> task);

  /// Block until every previously enqueued task has finished. Rethrows the
  /// first exception thrown by an asynchronous task since the last fence.
  /// `what` labels the begin_fence prof event.
  void fence(const char* what);

  /// Tasks enqueued but not yet finished (includes the running one).
  [[nodiscard]] std::size_t pending() const;

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] const char* space_name() const noexcept {
    return space_name_;
  }

 private:
  void worker_loop();

  const char* space_name_;
  const std::uint32_t id_;
  mutable std::mutex mu_;
  std::condition_variable cv_work_;   // worker waits for tasks / stop
  std::condition_variable cv_idle_;   // fencers wait for an empty queue
  std::deque<std::function<void()>> queue_;
  bool running_ = false;  // worker is inside a task
  bool stop_ = false;
  std::exception_ptr error_;  // first deferred task failure
  std::thread worker_;        // last: joined before members die
};

/// Create a registered impl (global-fence registry; see config.cpp notes
/// in instance.cpp).
std::shared_ptr<InstanceImpl> create_instance(const char* space_name);

}  // namespace detail

template <class ExecSpace = DefaultExecSpace>
class Instance {
 public:
  using execution_space = ExecSpace;

  Instance() : impl_(detail::create_instance(ExecSpace::name())) {}

  /// Wait for all work previously submitted to this instance; rethrows
  /// deferred task exceptions (Kokkos/CUDA-style deferred error surfacing).
  void fence() const { impl_->fence("pk::Instance::fence"); }

  /// Stable nonzero id (0 is reserved for the global fence scope).
  [[nodiscard]] std::uint32_t id() const noexcept { return impl_->id(); }

  /// Queue occupancy snapshot (racy by nature; for tests/telemetry).
  [[nodiscard]] std::size_t pending() const { return impl_->pending(); }

  [[nodiscard]] detail::InstanceImpl& impl() const noexcept {
    return *impl_;
  }

 private:
  std::shared_ptr<detail::InstanceImpl> impl_;
};

/// Run an arbitrary host task on the instance's queue. Fires an
/// async_dispatch event with the instance id and the queue depth.
template <class ExecSpace>
void async(const Instance<ExecSpace>& inst, const char* name,
           std::function<void()> task) {
  detail::InstanceImpl& q = inst.impl();
  const std::uint64_t depth = q.enqueue(std::move(task));
  prof::notify_async_dispatch("async", name, q.id(), depth);
}

}  // namespace vpic::pk
