#include "prof/prof.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include "pk/prof_hooks.hpp"

namespace vpic::prof {

namespace {

using steady = std::chrono::steady_clock;

double seconds_between(steady::time_point a, steady::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct RegionAccum {
  std::uint64_t count = 0;
  double total_s = 0;
  double min_s = 0;
  double max_s = 0;
  double child_s = 0;
};

struct TraceEvent {
  std::string name;      // region path (or kernel label)
  const char* cat;       // "region" | "parallel_for" | ...
  const char* space;     // exec/memory space name, may be null
  int tid;
  double ts_us;
  double dur_us;
  std::uint64_t work;    // iteration count for kernels, 0 for regions
};

// Cap on retained trace events; beyond it events are counted as dropped
// rather than growing without bound in long runs.
constexpr std::size_t kMaxTraceEvents = 1u << 20;

struct State {
  std::mutex mu;
  Mode mode = Mode::Off;
  steady::time_point base = steady::now();

  std::unordered_map<std::string, RegionAccum> regions;
  std::atomic<std::uint64_t> open_regions{0};
  std::uint64_t unbalanced_pops = 0;

  std::vector<TraceEvent> trace;
  std::uint64_t dropped_trace = 0;

  std::unordered_map<const void*, std::uint64_t> live_allocs;
  AllocStats alloc;

  std::unordered_map<std::string, std::uint64_t> counters;

  std::atomic<int> next_tid{0};
};

State& S() {
  static State s;
  return s;
}

/// One stack frame per open region (or in-flight kernel dispatch) on the
/// calling thread. Kernel dispatches happen on the thread that calls
/// pk::parallel_*, so nesting composes naturally with explicit regions.
struct Frame {
  std::string path;
  const char* cat;
  const char* space;
  std::uint64_t work;
  steady::time_point start;
  double child_s;
};

thread_local std::vector<Frame> t_frames;
// Parent path of a region opened with no frame open (RegionBase).
thread_local std::string t_region_base;

/// Path a region opened now on this thread nests under ("" = top level).
const std::string& open_path() {
  return t_frames.empty() ? t_region_base : t_frames.back().path;
}

int thread_tid() {
  thread_local int tid = S().next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void open_frame(const char* name, const char* cat, const char* space,
                std::uint64_t work) {
  const std::string& parent = open_path();
  std::string path = parent.empty() ? std::string(name) : parent + "/" + name;
  t_frames.push_back(
      {std::move(path), cat, space, work, steady::now(), 0.0});
  S().open_regions.fetch_add(1, std::memory_order_relaxed);
}

void close_frame() {
  const auto now = steady::now();
  State& s = S();
  if (t_frames.empty()) {
    std::lock_guard lk(s.mu);
    ++s.unbalanced_pops;
    return;
  }
  Frame f = std::move(t_frames.back());
  t_frames.pop_back();
  s.open_regions.fetch_sub(1, std::memory_order_relaxed);
  const double dur = seconds_between(f.start, now);
  if (!t_frames.empty()) t_frames.back().child_s += dur;
  const int tid = thread_tid();
  std::lock_guard lk(s.mu);
  RegionAccum& acc = s.regions[f.path];
  if (acc.count == 0) {
    acc.min_s = dur;
    acc.max_s = dur;
  } else {
    acc.min_s = std::min(acc.min_s, dur);
    acc.max_s = std::max(acc.max_s, dur);
  }
  ++acc.count;
  acc.total_s += dur;
  acc.child_s += f.child_s;
  if (s.mode == Mode::Trace) {
    if (s.trace.size() < kMaxTraceEvents) {
      s.trace.push_back({std::move(f.path), f.cat, f.space, tid,
                         seconds_between(s.base, f.start) * 1e6, dur * 1e6,
                         f.work});
    } else {
      ++s.dropped_trace;
    }
  }
}

// ---------------------------------------------------------------------
// pk hook-table handlers (the built-in tool).
// ---------------------------------------------------------------------

void handle_begin_parallel(const char* kind, const char* name,
                           const char* exec_space, std::uint64_t work,
                           std::uint64_t* kernel_id) {
  open_frame(name, kind, exec_space, work);
  // Cookie = nesting depth; stack discipline makes it redundant but it lets
  // a future out-of-order end detect mismatches, as kokkosp kIDs do.
  *kernel_id = t_frames.size();
}

void handle_end_parallel(const char* /*kind*/, std::uint64_t /*kernel_id*/) {
  close_frame();
}

void handle_push_region(const char* name) {
  open_frame(name, "region", nullptr, 0);
}

void handle_pop_region() { close_frame(); }

void handle_allocate(const char* /*space*/, const char* /*label*/,
                     const void* ptr, std::uint64_t bytes) {
  State& s = S();
  std::lock_guard lk(s.mu);
  ++s.alloc.allocs;
  s.alloc.total_bytes += static_cast<std::int64_t>(bytes);
  s.alloc.live_bytes += static_cast<std::int64_t>(bytes);
  s.alloc.peak_bytes = std::max(s.alloc.peak_bytes, s.alloc.live_bytes);
  s.live_allocs[ptr] = bytes;
}

void handle_deallocate(const char* /*space*/, const char* /*label*/,
                       const void* ptr, std::uint64_t /*bytes*/) {
  State& s = S();
  std::lock_guard lk(s.mu);
  ++s.alloc.deallocs;
  auto it = s.live_allocs.find(ptr);
  if (it == s.live_allocs.end()) {
    ++s.alloc.unmatched_deallocs;
    return;
  }
  s.alloc.live_bytes -= static_cast<std::int64_t>(it->second);
  s.live_allocs.erase(it);
}

// ---------------------------------------------------------------------
// JSON helpers.
// ---------------------------------------------------------------------

void json_escape_into(std::string& out, const std::string& in) {
  for (char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

const char* to_string(Mode m) noexcept {
  switch (m) {
    case Mode::Off: return "off";
    case Mode::Summary: return "summary";
    case Mode::Trace: return "trace";
  }
  return "?";
}

Mode mode_from_env() noexcept {
  const char* v = std::getenv("VPIC_PROF");
  if (!v || !*v) return Mode::Off;
  if (!std::strcmp(v, "off") || !std::strcmp(v, "0")) return Mode::Off;
  if (!std::strcmp(v, "summary") || !std::strcmp(v, "on") ||
      !std::strcmp(v, "1"))
    return Mode::Summary;
  if (!std::strcmp(v, "trace") || !std::strcmp(v, "2")) return Mode::Trace;
  std::fprintf(stderr,
               "[vpic::prof] unknown VPIC_PROF value '%s' "
               "(expected off|summary|trace); profiling stays off\n",
               v);
  return Mode::Off;
}

void enable(Mode m) {
  State& s = S();
  {
    std::lock_guard lk(s.mu);
    s.mode = m;
    if (m != Mode::Off && s.regions.empty() && s.trace.empty())
      s.base = steady::now();
  }
  if (m == Mode::Off) {
    pk::prof::clear_event_hooks();
    return;
  }
  pk::prof::EventHooks h;
  h.begin_parallel = &handle_begin_parallel;
  h.end_parallel = &handle_end_parallel;
  h.push_region = &handle_push_region;
  h.pop_region = &handle_pop_region;
  h.allocate = &handle_allocate;
  h.deallocate = &handle_deallocate;
  pk::prof::set_event_hooks(h);
}

void disable() { enable(Mode::Off); }

Mode mode() noexcept {
  State& s = S();
  std::lock_guard lk(s.mu);
  return s.mode;
}

bool enabled() noexcept { return mode() != Mode::Off; }

void push_region(const char* name) { pk::prof::region_push(name); }

void pop_region() { pk::prof::region_pop(); }

std::string region_path() { return open_path(); }

RegionBase::RegionBase(std::string base)
    : prev_(std::exchange(t_region_base, std::move(base))) {}

RegionBase::~RegionBase() { t_region_base = std::move(prev_); }

namespace {
// Per-thread counter namespace (CounterScope / set_counter_prefix).
thread_local std::string t_counter_prefix;
}  // namespace

void set_counter_prefix(std::string prefix) {
  t_counter_prefix = std::move(prefix);
}

const std::string& counter_prefix() noexcept { return t_counter_prefix; }

void counter_add(const char* name, std::uint64_t delta) noexcept {
  State& s = S();
  std::lock_guard lk(s.mu);
  if (t_counter_prefix.empty()) {
    s.counters[name] += delta;
  } else {
    s.counters[t_counter_prefix + name] += delta;
  }
}

std::uint64_t counter_value(const std::string& name) {
  State& s = S();
  std::lock_guard lk(s.mu);
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

Report report() {
  State& s = S();
  Report r;
  std::lock_guard lk(s.mu);
  r.mode = s.mode;
  r.regions.reserve(s.regions.size());
  for (const auto& [path, acc] : s.regions) {
    RegionStats st;
    st.path = path;
    st.count = acc.count;
    st.total_s = acc.total_s;
    st.min_s = acc.min_s;
    st.max_s = acc.max_s;
    st.child_s = acc.child_s;
    r.regions.push_back(std::move(st));
  }
  std::sort(r.regions.begin(), r.regions.end(),
            [](const RegionStats& a, const RegionStats& b) {
              return a.path < b.path;
            });
  r.counters.assign(s.counters.begin(), s.counters.end());
  std::sort(r.counters.begin(), r.counters.end());
  r.alloc = s.alloc;
  r.open_regions = s.open_regions.load(std::memory_order_relaxed);
  r.unbalanced_pops = s.unbalanced_pops;
  r.dropped_trace_events = s.dropped_trace;
  return r;
}

void reset() {
  State& s = S();
  std::lock_guard lk(s.mu);
  s.regions.clear();
  s.trace.clear();
  s.dropped_trace = 0;
  s.unbalanced_pops = 0;
  s.live_allocs.clear();
  s.alloc = AllocStats{};
  s.counters.clear();
  s.base = steady::now();
}

double region_total_seconds(const std::string& name) {
  State& s = S();
  std::lock_guard lk(s.mu);
  double total = 0;
  for (const auto& [path, acc] : s.regions) {
    if (path == name) {
      total += acc.total_s;
      continue;
    }
    const auto pos = path.rfind('/');
    if (pos != std::string::npos &&
        path.compare(pos + 1, std::string::npos, name) == 0)
      total += acc.total_s;
  }
  return total;
}

std::string Report::to_json() const {
  std::string j = "{\"schema\":\"vpic-prof-v1\",\"mode\":\"";
  j += prof::to_string(mode);
  j += "\",\"regions\":[";
  bool first = true;
  for (const auto& r : regions) {
    if (!first) j += ",";
    first = false;
    j += "{\"path\":\"";
    json_escape_into(j, r.path);
    j += "\",\"count\":" + std::to_string(r.count);
    j += ",\"total_s\":" + fmt_double(r.total_s);
    j += ",\"self_s\":" + fmt_double(r.self_s());
    j += ",\"min_s\":" + fmt_double(r.min_s);
    j += ",\"max_s\":" + fmt_double(r.max_s);
    j += ",\"mean_s\":" + fmt_double(r.mean_s());
    j += "}";
  }
  j += "],\"counters\":{";
  first = true;
  for (const auto& [name, value] : counters) {
    if (!first) j += ",";
    first = false;
    j += "\"";
    json_escape_into(j, name);
    j += "\":" + std::to_string(value);
  }
  j += "},\"alloc\":{\"allocs\":" + std::to_string(alloc.allocs);
  j += ",\"deallocs\":" + std::to_string(alloc.deallocs);
  j += ",\"unmatched_deallocs\":" + std::to_string(alloc.unmatched_deallocs);
  j += ",\"live_bytes\":" + std::to_string(alloc.live_bytes);
  j += ",\"peak_bytes\":" + std::to_string(alloc.peak_bytes);
  j += ",\"total_bytes\":" + std::to_string(alloc.total_bytes);
  j += "},\"open_regions\":" + std::to_string(open_regions);
  j += ",\"unbalanced_pops\":" + std::to_string(unbalanced_pops);
  j += ",\"dropped_trace_events\":" + std::to_string(dropped_trace_events);
  j += "}";
  return j;
}

std::string Report::human_table() const {
  // Column widths sized to content.
  std::size_t wpath = std::strlen("region");
  for (const auto& r : regions) wpath = std::max(wpath, r.path.size());
  std::string out;
  char line[512];
  std::snprintf(line, sizeof(line),
                "%-*s %10s %12s %12s %12s %12s\n",
                static_cast<int>(wpath), "region", "count", "total(ms)",
                "self(ms)", "min(ms)", "max(ms)");
  out += line;
  out += std::string(wpath + 10 + 12 * 4 + 5, '-') + "\n";
  for (const auto& r : regions) {
    std::snprintf(line, sizeof(line),
                  "%-*s %10llu %12.3f %12.3f %12.3f %12.3f\n",
                  static_cast<int>(wpath), r.path.c_str(),
                  static_cast<unsigned long long>(r.count), r.total_s * 1e3,
                  r.self_s() * 1e3, r.min_s * 1e3, r.max_s * 1e3);
    out += line;
  }
  for (const auto& [name, value] : counters) {
    std::snprintf(line, sizeof(line), "counter %-40s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "views: %lld alloc / %lld dealloc, live %lld B, peak %lld B"
                ", total %lld B\n",
                static_cast<long long>(alloc.allocs),
                static_cast<long long>(alloc.deallocs),
                static_cast<long long>(alloc.live_bytes),
                static_cast<long long>(alloc.peak_bytes),
                static_cast<long long>(alloc.total_bytes));
  out += line;
  if (open_regions || unbalanced_pops || dropped_trace_events) {
    std::snprintf(line, sizeof(line),
                  "warnings: %llu open regions, %llu unbalanced pops, "
                  "%llu dropped trace events\n",
                  static_cast<unsigned long long>(open_regions),
                  static_cast<unsigned long long>(unbalanced_pops),
                  static_cast<unsigned long long>(dropped_trace_events));
    out += line;
  }
  return out;
}

std::string trace_json() {
  State& s = S();
  std::lock_guard lk(s.mu);
  std::string j = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  j += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":"
       "{\"name\":\"vpic\"}}";
  for (const auto& e : s.trace) {
    j += ",{\"name\":\"";
    json_escape_into(j, e.name);
    j += "\",\"cat\":\"";
    j += e.cat;
    j += "\",\"ph\":\"X\",\"ts\":" + fmt_double(e.ts_us);
    j += ",\"dur\":" + fmt_double(e.dur_us);
    j += ",\"pid\":0,\"tid\":" + std::to_string(e.tid);
    j += ",\"args\":{";
    if (e.space) {
      j += "\"space\":\"";
      j += e.space;
      j += "\",";
    }
    j += "\"work\":" + std::to_string(e.work) + "}}";
  }
  j += "]}";
  return j;
}

bool write_chrome_trace(const std::string& path) {
  const std::string j = trace_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const bool ok = std::fwrite(j.data(), 1, j.size(), f) == j.size();
  return std::fclose(f) == 0 && ok;
}

namespace {

/// Startup/shutdown driver: reads VPIC_PROF at static-init time (so any
/// binary linking vpic_prof is profiled with zero code changes) and emits
/// the summary table / trace file at exit. Constructed after the State and
/// pk hook singletons it touches, so it is destroyed before them.
struct AutoInit {
  AutoInit() {
    (void)S();
    (void)pk::prof::hooks();
    (void)pk::prof::hooks_active();
    (void)pk::prof::alloc_count();
    const Mode m = mode_from_env();
    if (m != Mode::Off) enable(m);
  }
  ~AutoInit() {
    const Mode m = mode();
    if (m == Mode::Off) return;
    if (m == Mode::Trace) {
      const char* env = std::getenv("VPIC_PROF_TRACE");
      const std::string path = env && *env ? env : "vpic_prof_trace.json";
      if (write_chrome_trace(path))
        std::fprintf(stderr,
                     "[vpic::prof] chrome://tracing trace written to %s\n",
                     path.c_str());
      else
        std::fprintf(stderr, "[vpic::prof] failed to write trace to %s\n",
                     path.c_str());
    }
    std::fprintf(stderr, "[vpic::prof] %s summary:\n%s",
                 to_string(m), report().human_table().c_str());
  }
};

AutoInit g_auto_init;

}  // namespace

}  // namespace vpic::prof
