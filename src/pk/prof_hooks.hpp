// pk/prof_hooks.hpp
//
// Profiling hook table for the portability layer, modeled on the Kokkos
// Tools callback interface (kokkosp_*). The dispatch sites in
// pk/parallel.hpp and the View allocation paths in pk/view.hpp fire
// begin/end events through this table; consumers (normally the built-in
// tool in src/prof, but any handler can register) observe every kernel
// launch and every View allocation without touching kernel code.
//
// Cost model: when no handler is registered the per-dispatch cost is one
// relaxed atomic load and a predictable branch — the compiled-in hooks are
// branch-predicted away (tests/test_prof.cpp asserts <1% dispatch
// overhead). Registration is not thread-safe against concurrent dispatch:
// install handlers before spawning parallel work, as Kokkos Tools does.
#pragma once

#include <atomic>
#include <cstdint>

#include "pk/config.hpp"

namespace vpic::pk::prof {

/// Callback table (all pointers optional). `kind` is the dispatch flavor:
/// "parallel_for" | "parallel_reduce" | "parallel_scan". `work` is the
/// iteration count (league size for team policies). The begin callback may
/// write a cookie through `kernel_id`; it is handed back to the matching
/// end callback, mirroring kokkosp_begin_parallel_for's kID.
struct EventHooks {
  void (*begin_parallel)(const char* kind, const char* name,
                         const char* exec_space, std::uint64_t work,
                         std::uint64_t* kernel_id) = nullptr;
  void (*end_parallel)(const char* kind, std::uint64_t kernel_id) = nullptr;
  void (*push_region)(const char* name) = nullptr;
  void (*pop_region)() = nullptr;
  void (*allocate)(const char* space, const char* label, const void* ptr,
                   std::uint64_t bytes) = nullptr;
  void (*deallocate)(const char* space, const char* label, const void* ptr,
                     std::uint64_t bytes) = nullptr;

  [[nodiscard]] bool any() const noexcept {
    return begin_parallel || end_parallel || push_region || pop_region ||
           allocate || deallocate;
  }
};

inline EventHooks& hooks() noexcept {
  static EventHooks h;
  return h;
}

/// Fast-path guard: true iff any handler is registered. Relaxed is enough —
/// registration happens-before dispatch by contract (see header comment).
inline std::atomic<bool>& hooks_active() noexcept {
  static std::atomic<bool> active{false};
  return active;
}

inline bool active() noexcept {
  return hooks_active().load(std::memory_order_relaxed);
}

/// Install a handler table (replaces any previous one).
inline void set_event_hooks(const EventHooks& h) noexcept {
  hooks() = h;
  hooks_active().store(h.any(), std::memory_order_release);
}

inline void clear_event_hooks() noexcept {
  hooks() = EventHooks{};
  hooks_active().store(false, std::memory_order_release);
}

/// Process-wide count of View buffer allocations (allocating constructors
/// only; unmanaged wrappers and aliases don't count). Always maintained,
/// handler or not — the zero-allocation sort pipeline asserts on it
/// (tests/test_sort_pipeline.cpp). Atomic so concurrent View construction
/// under OpenMP counts correctly.
inline std::atomic<std::int64_t>& alloc_count() noexcept {
  static std::atomic<std::int64_t> count{0};
  return count;
}

// ----------------------------------------------------------------------
// Inline emit helpers used by the instrumented pk entry points.
// ----------------------------------------------------------------------

inline std::uint64_t begin_parallel(const char* kind, const char* name,
                                    const char* exec_space,
                                    std::uint64_t work) noexcept {
  if (active()) [[unlikely]] {
    std::uint64_t id = 0;
    if (auto* cb = hooks().begin_parallel)
      cb(kind, name ? name : "<unlabeled>", exec_space, work, &id);
    return id;
  }
  return 0;
}

inline void end_parallel(const char* kind, std::uint64_t kernel_id) noexcept {
  if (active()) [[unlikely]] {
    if (auto* cb = hooks().end_parallel) cb(kind, kernel_id);
  }
}

inline void region_push(const char* name) noexcept {
  if (active()) [[unlikely]] {
    if (auto* cb = hooks().push_region) cb(name);
  }
}

inline void region_pop() noexcept {
  if (active()) [[unlikely]] {
    if (auto* cb = hooks().pop_region) cb();
  }
}

inline void notify_allocate(const char* space, const char* label,
                            const void* ptr, std::uint64_t bytes) noexcept {
  alloc_count().fetch_add(1, std::memory_order_relaxed);
  if (active()) [[unlikely]] {
    if (auto* cb = hooks().allocate) cb(space, label, ptr, bytes);
  }
}

inline void notify_deallocate(const char* space, const char* label,
                              const void* ptr, std::uint64_t bytes) noexcept {
  if (active()) [[unlikely]] {
    if (auto* cb = hooks().deallocate) cb(space, label, ptr, bytes);
  }
}

}  // namespace vpic::pk::prof
