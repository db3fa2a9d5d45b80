// prof/prof.hpp
//
// vpic::prof — the observability subsystem (docs/PROFILING.md). Modeled on
// the Kokkos Tools architecture: the portability layer fires events
// through a registrable hook table (pk/prof_hooks.hpp); this module is the
// built-in tool that consumes them. It provides
//
//  * a hierarchical region profiler: push_region/pop_region (or RAII
//    ScopedRegion) aggregate count / total / min / max / self time per
//    region *path* ("step/push/advance_p[auto]"), with kernel dispatches
//    appearing as child regions of whatever region was open;
//  * a chrome://tracing JSON trace writer (load the file in
//    chrome://tracing or https://ui.perfetto.dev);
//  * an allocation tracker pairing pk::View allocate/deallocate events
//    (live/peak bytes, unmatched frees) that subsumes the
//    pk::view_alloc_count counter.
//
// Activation: set VPIC_PROF=summary or VPIC_PROF=trace in the environment
// (any binary linking this library auto-enables at startup and emits the
// summary table / trace file at exit), or call prof::enable(Mode)
// programmatically. When off, annotated code costs one predictable branch
// per region or dispatch.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace vpic::prof {

enum class Mode : std::uint8_t { Off, Summary, Trace };

const char* to_string(Mode m) noexcept;

/// Parse VPIC_PROF (off|summary|trace, default off; unknown values warn on
/// stderr and resolve to off), mirroring how pk::initialize reads
/// OMP_NUM_THREADS.
Mode mode_from_env() noexcept;

/// Install (or, with Mode::Off, remove) the built-in handlers on the
/// pk::prof hook table. Not thread-safe against in-flight dispatch:
/// enable/disable from serial code, as with Kokkos Tools.
void enable(Mode m);
void disable();

[[nodiscard]] Mode mode() noexcept;
[[nodiscard]] bool enabled() noexcept;

/// Open / close a named region on the calling thread. Pops without a
/// matching push are counted (Report::unbalanced_pops) and otherwise
/// ignored; regions never closed are visible as Report::open_regions.
void push_region(const char* name);
void pop_region();

/// Named event counters. Unlike regions these are *always on* (a counter
/// costs one short critical section, and callers fire them per dispatch
/// decision, not per particle), so rare events — which path the push
/// dispatcher chose, whether the sort went counting or radix — stay
/// observable even with VPIC_PROF unset. Counters appear in Report::counters, to_json() and the summary
/// table; reset() clears them.
void counter_add(const char* name, std::uint64_t delta = 1) noexcept;
[[nodiscard]] std::uint64_t counter_value(const std::string& name);

/// Thread-local counter namespace: while set, every counter_add on the
/// calling thread records under "<prefix><name>". This is how the farm
/// scheduler scopes the engine's dispatch counters per job — a worker
/// sets "job.<name>." around each slice, so one global counter table keeps
/// per-tenant columns without threading a context handle through every
/// call site (docs/FARM.md). Empty string (the default) means unscoped.
void set_counter_prefix(std::string prefix);
[[nodiscard]] const std::string& counter_prefix() noexcept;

/// RAII form: installs `prefix` on this thread, restores the previous
/// prefix on destruction (scopes nest by replacement, not concatenation).
class CounterScope {
 public:
  explicit CounterScope(std::string prefix) : prev_(counter_prefix()) {
    set_counter_prefix(std::move(prefix));
  }
  ~CounterScope() { set_counter_prefix(std::move(prev_)); }
  CounterScope(const CounterScope&) = delete;
  CounterScope& operator=(const CounterScope&) = delete;

 private:
  std::string prev_;
};

/// Path of the innermost region open on the calling thread, else its
/// region base (below); "" when profiling is off.
[[nodiscard]] std::string region_path();

/// Thread-local region base, installed for this object's lifetime (the
/// previous base is restored on destruction): a region opened on the
/// calling thread with no region open nests under `base`
/// ("<base>/<name>") instead of starting a top-level path. pk::StealPool
/// gives every member of a round the caller's region_path(), so a round
/// task records under one path whichever thread runs it. Empty (the
/// default) means top level.
class RegionBase {
 public:
  explicit RegionBase(std::string base);
  ~RegionBase();
  RegionBase(const RegionBase&) = delete;
  RegionBase& operator=(const RegionBase&) = delete;

 private:
  std::string prev_;
};

/// RAII region: push_region on construction, pop_region on destruction.
class ScopedRegion {
 public:
  explicit ScopedRegion(const char* name) { push_region(name); }
  ~ScopedRegion() { pop_region(); }
  ScopedRegion(const ScopedRegion&) = delete;
  ScopedRegion& operator=(const ScopedRegion&) = delete;
};

/// Aggregated statistics for one region path.
struct RegionStats {
  std::string path;        // "a/b/c" — '/'-joined nesting
  std::uint64_t count = 0; // times the region closed
  double total_s = 0;      // inclusive wall time
  double min_s = 0;
  double max_s = 0;
  double child_s = 0;      // time attributed to child regions/kernels
  [[nodiscard]] double self_s() const noexcept { return total_s - child_s; }
  [[nodiscard]] double mean_s() const noexcept {
    return count ? total_s / static_cast<double>(count) : 0.0;
  }
};

/// View allocation accounting (fed by pk::View allocate/deallocate events).
struct AllocStats {
  std::int64_t allocs = 0;
  std::int64_t deallocs = 0;
  std::int64_t unmatched_deallocs = 0;  // frees with no observed allocation
  std::int64_t live_bytes = 0;
  std::int64_t peak_bytes = 0;
  std::int64_t total_bytes = 0;  // cumulative allocated
};

struct Report {
  Mode mode = Mode::Off;
  std::vector<RegionStats> regions;  // sorted by path
  std::vector<std::pair<std::string, std::uint64_t>> counters;  // by name
  AllocStats alloc;
  std::uint64_t open_regions = 0;      // pushed but not yet popped
  std::uint64_t unbalanced_pops = 0;   // pops with empty stack
  std::uint64_t dropped_trace_events = 0;

  /// Machine-readable form (schema "vpic-prof-v1").
  [[nodiscard]] std::string to_json() const;
  /// Human-readable fixed-width table (the VPIC_PROF=summary exit output).
  [[nodiscard]] std::string human_table() const;
};

/// Snapshot of everything accumulated since enable()/reset().
[[nodiscard]] Report report();

/// Clear accumulated regions, allocation stats and trace events. Does NOT
/// reset pk::view_alloc_count (that counter is cumulative by contract).
void reset();

/// Total inclusive seconds of every region whose path's last segment (or
/// whole path) equals `name`.
[[nodiscard]] double region_total_seconds(const std::string& name);

/// Serialize the collected trace in chrome://tracing "Trace Event" JSON.
/// Only populated in Mode::Trace.
[[nodiscard]] std::string trace_json();

/// Write trace_json() to `path`; returns false on I/O failure.
bool write_chrome_trace(const std::string& path);

}  // namespace vpic::prof
