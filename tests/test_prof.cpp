// tests/test_prof.cpp — the vpic::prof observability subsystem:
// hierarchical region aggregation, kernel dispatches as child regions,
// unbalanced/open region accounting, chrome://tracing output
// well-formedness (parsed with a minimal JSON parser below), the <1%
// disabled-dispatch overhead contract of pk/prof_hooks.hpp, and View
// allocation event pairing / pk::view_alloc_count delegation, and the
// untiled step's phase regions nesting under "step".
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/decks.hpp"
#include "core/simulation.hpp"
#include "pk/pk.hpp"
#include "prof/prof.hpp"

namespace {

using namespace vpic;

// ---------------------------------------------------------------------
// Minimal strict JSON parser — just enough to verify that the trace and
// report emitters produce well-formed documents and to inspect them.
// ---------------------------------------------------------------------
struct JV {
  enum class T { Null, Bool, Num, Str, Arr, Obj };
  T t = T::Null;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<JV> arr;
  std::map<std::string, JV> obj;

  [[nodiscard]] bool has(const std::string& k) const {
    return t == T::Obj && obj.count(k) > 0;
  }
  [[nodiscard]] const JV& at(const std::string& k) const { return obj.at(k); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : p_(s.c_str()), end_(p_ + s.size()) {}

  bool parse(JV& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    return p_ == end_;  // no trailing garbage
  }

 private:
  const char* p_;
  const char* end_;

  void skip_ws() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r'))
      ++p_;
  }
  bool lit(const char* s, std::size_t n) {
    if (static_cast<std::size_t>(end_ - p_) < n) return false;
    if (std::string(p_, n) != s) return false;
    p_ += n;
    return true;
  }
  bool value(JV& v) {
    if (p_ >= end_) return false;
    switch (*p_) {
      case '{': return object(v);
      case '[': return array(v);
      case '"': v.t = JV::T::Str; return string(v.str);
      case 't': v.t = JV::T::Bool; v.b = true; return lit("true", 4);
      case 'f': v.t = JV::T::Bool; v.b = false; return lit("false", 5);
      case 'n': v.t = JV::T::Null; return lit("null", 4);
      default: return number(v);
    }
  }
  bool number(JV& v) {
    char* np = nullptr;
    v.num = std::strtod(p_, &np);
    if (np == p_) return false;
    v.t = JV::T::Num;
    p_ = np;
    return true;
  }
  bool string(std::string& out) {
    if (p_ >= end_ || *p_ != '"') return false;
    ++p_;
    out.clear();
    while (p_ < end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ >= end_) return false;
        switch (*p_) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (end_ - p_ < 5) return false;
            for (int k = 1; k <= 4; ++k)
              if (!std::isxdigit(static_cast<unsigned char>(p_[k]))) return false;
            out += '?';  // tests only check structure, not code points
            p_ += 4;
            break;
          }
          default: return false;
        }
        ++p_;
      } else {
        out += *p_++;
      }
    }
    if (p_ >= end_) return false;
    ++p_;  // closing quote
    return true;
  }
  bool array(JV& v) {
    v.t = JV::T::Arr;
    ++p_;  // '['
    skip_ws();
    if (p_ < end_ && *p_ == ']') { ++p_; return true; }
    while (true) {
      JV elem;
      skip_ws();
      if (!value(elem)) return false;
      v.arr.push_back(std::move(elem));
      skip_ws();
      if (p_ >= end_) return false;
      if (*p_ == ',') { ++p_; continue; }
      if (*p_ == ']') { ++p_; return true; }
      return false;
    }
  }
  bool object(JV& v) {
    v.t = JV::T::Obj;
    ++p_;  // '{'
    skip_ws();
    if (p_ < end_ && *p_ == '}') { ++p_; return true; }
    while (true) {
      skip_ws();
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (p_ >= end_ || *p_ != ':') return false;
      ++p_;
      skip_ws();
      JV val;
      if (!value(val)) return false;
      v.obj.emplace(std::move(key), std::move(val));
      skip_ws();
      if (p_ >= end_) return false;
      if (*p_ == ',') { ++p_; continue; }
      if (*p_ == '}') { ++p_; return true; }
      return false;
    }
  }
};

void busy_wait(double seconds) {
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() < seconds) {
  }
}

const prof::RegionStats* find_region(const prof::Report& r,
                                     const std::string& path) {
  for (const auto& s : r.regions)
    if (s.path == path) return &s;
  return nullptr;
}

/// RAII guard so a failed ASSERT can't leave handlers installed for the
/// next test.
struct ProfSession {
  explicit ProfSession(prof::Mode m) {
    prof::enable(m);
    prof::reset();
  }
  ~ProfSession() { prof::disable(); }
};

// ---------------------------------------------------------------------
// Region aggregation
// ---------------------------------------------------------------------
TEST(ProfRegions, NestedAggregation) {
  ProfSession session(prof::Mode::Summary);

  for (int i = 0; i < 3; ++i) {
    prof::ScopedRegion outer("outer");
    busy_wait(0.5e-3);
    {
      prof::ScopedRegion inner("inner");
      busy_wait(1e-3);
    }
  }

  const prof::Report r = prof::report();
  const auto* outer = find_region(r, "outer");
  const auto* inner = find_region(r, "outer/inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 3u);
  EXPECT_EQ(inner->count, 3u);

  // Inclusive/self accounting: outer contains inner entirely.
  EXPECT_GE(outer->total_s, inner->total_s);
  EXPECT_NEAR(outer->child_s, inner->total_s, 1e-9);
  EXPECT_GE(outer->self_s(), 0.0);
  EXPECT_GT(outer->self_s(), 1e-3);  // 3 × 0.5ms of its own busy-wait
  EXPECT_EQ(inner->child_s, 0.0);

  // min <= mean <= max, and every close was at least the busy-wait.
  EXPECT_LE(outer->min_s, outer->mean_s());
  EXPECT_LE(outer->mean_s(), outer->max_s);
  EXPECT_GE(inner->min_s, 0.9e-3);

  EXPECT_EQ(r.open_regions, 0u);
  EXPECT_EQ(r.unbalanced_pops, 0u);
}

TEST(ProfRegions, KernelDispatchBecomesChildRegion) {
  ProfSession session(prof::Mode::Summary);

  std::vector<float> a(1024, 1.0f);
  {
    prof::ScopedRegion host("host");
    pk::parallel_for("saxpyish", pk::index_t{1024},
                     [&](pk::index_t i) { a[static_cast<std::size_t>(i)] += 1.0f; });
    pk::parallel_for(pk::index_t{1024},
                     [&](pk::index_t i) { a[static_cast<std::size_t>(i)] += 1.0f; });
  }
  double sum = 0;
  pk::parallel_reduce("sum_a", pk::RangePolicy<>(0, 1024),
                      [&](pk::index_t i, double& acc) {
                        acc += a[static_cast<std::size_t>(i)];
                      },
                      sum);
  EXPECT_DOUBLE_EQ(sum, 3.0 * 1024);

  const prof::Report r = prof::report();
  const auto* named = find_region(r, "host/saxpyish");
  const auto* unnamed = find_region(r, "host/<unlabeled>");
  const auto* toplevel = find_region(r, "sum_a");
  ASSERT_NE(named, nullptr);
  ASSERT_NE(unnamed, nullptr);
  ASSERT_NE(toplevel, nullptr);
  EXPECT_EQ(named->count, 1u);
  EXPECT_EQ(unnamed->count, 1u);
  EXPECT_EQ(toplevel->count, 1u);
}

TEST(ProfRegions, UnbalancedPopIsCountedNotFatal) {
  ProfSession session(prof::Mode::Summary);

  prof::pop_region();  // nothing open
  prof::pop_region();
  const prof::Report r = prof::report();
  EXPECT_EQ(r.unbalanced_pops, 2u);
  EXPECT_EQ(r.open_regions, 0u);
}

TEST(ProfRegions, OpenRegionsAreReported) {
  ProfSession session(prof::Mode::Summary);

  prof::push_region("left_open");
  EXPECT_EQ(prof::report().open_regions, 1u);
  prof::pop_region();
  EXPECT_EQ(prof::report().open_regions, 0u);
}

TEST(ProfRegions, UntiledStepNestsPhasesUnderStep) {
  // The untiled step runs its phases on the calling thread, so each phase
  // region nests under the "step" region that opened it.
  vpic::core::decks::LpiParams p;
  p.nx = 8;
  p.ny = 4;
  p.nz = 4;
  p.ppc = 2;
  vpic::core::Simulation sim = vpic::core::decks::make_lpi(p);
  ProfSession session(prof::Mode::Summary);
  sim.step();
  const prof::Report r = prof::report();
  const auto* push = find_region(r, "step/push[electron]");
  ASSERT_NE(push, nullptr);
  EXPECT_EQ(push->count, 1u);
  EXPECT_NE(find_region(r, "step/field_advance"), nullptr);
}

TEST(ProfRegions, TiledStepNestsSinglePhaseLevelsUnderStep) {
  // The tiled step runs a level of one phase on the calling thread, so the
  // global phases nest under "step"; every member of a pool round opens
  // its tasks' regions under the caller's path, so each tile push records
  // as "step/push[<species>.t<k>]" whichever member ran it.
  vpic::core::decks::LpiParams p;
  p.nx = 8;
  p.ny = 4;
  p.nz = 4;
  p.ppc = 2;
  vpic::core::Simulation sim = vpic::core::decks::make_lpi(p);
  sim.config().tiles.enabled = true;
  sim.config().tiles.count = 2;
  sim.config().tiles.workers = 2;
  ProfSession session(prof::Mode::Summary);
  sim.step();
  const prof::Report r = prof::report();
  for (const char* phase : {"step/acc_merge", "step/accumulate",
                            "step/field_advance", "step/injection"})
    EXPECT_NE(find_region(r, phase), nullptr) << phase;
  EXPECT_EQ(find_region(r, "field_advance"), nullptr);
  for (std::size_t s = 0; s < sim.num_species(); ++s)
    for (int t = 0; t < 2; ++t) {
      const std::string tile =
          "push[" + sim.species(s).name + ".t" + std::to_string(t) + "]";
      EXPECT_NE(find_region(r, "step/" + tile), nullptr) << tile;
    }
  for (const auto& region : r.regions)
    EXPECT_NE(region.path.rfind("push[", 0), 0u) << region.path;
}

TEST(ProfRegions, RegionTotalSecondsMatchesLastSegment) {
  ProfSession session(prof::Mode::Summary);

  {
    prof::ScopedRegion a("rts_outer");
    prof::ScopedRegion b("rts_inner");
    busy_wait(1e-3);
  }
  const prof::Report r = prof::report();  // find_region points into it
  const auto* inner = find_region(r, "rts_outer/rts_inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_DOUBLE_EQ(prof::region_total_seconds("rts_inner"), inner->total_s);
  EXPECT_DOUBLE_EQ(prof::region_total_seconds("rts_outer/rts_inner"),
                   inner->total_s);
  EXPECT_EQ(prof::region_total_seconds("no_such_region"), 0.0);
}

// ---------------------------------------------------------------------
// Mode / env parsing
// ---------------------------------------------------------------------
TEST(ProfMode, EnvParsing) {
  auto with_env = [](const char* v) {
    if (v)
      setenv("VPIC_PROF", v, 1);
    else
      unsetenv("VPIC_PROF");
    return prof::mode_from_env();
  };
  EXPECT_EQ(with_env(nullptr), prof::Mode::Off);
  EXPECT_EQ(with_env("off"), prof::Mode::Off);
  EXPECT_EQ(with_env("summary"), prof::Mode::Summary);
  EXPECT_EQ(with_env("trace"), prof::Mode::Trace);
  EXPECT_EQ(with_env("bogus-mode"), prof::Mode::Off);
  unsetenv("VPIC_PROF");
}

// ---------------------------------------------------------------------
// Trace output
// ---------------------------------------------------------------------
TEST(ProfTrace, ChromeTraceIsWellFormedJson) {
  ProfSession session(prof::Mode::Trace);

  std::vector<float> a(256, 0.0f);
  {
    prof::ScopedRegion step("trace_step");
    pk::parallel_for("trace_kernel", pk::index_t{256},
                     [&](pk::index_t i) { a[static_cast<std::size_t>(i)] = 1; });
  }

  const std::string text = prof::trace_json();
  JV doc;
  ASSERT_TRUE(JsonParser(text).parse(doc)) << text.substr(0, 400);
  ASSERT_EQ(doc.t, JV::T::Obj);
  ASSERT_TRUE(doc.has("traceEvents"));
  const JV& evs = doc.at("traceEvents");
  ASSERT_EQ(evs.t, JV::T::Arr);
  ASSERT_FALSE(evs.arr.empty());

  bool saw_meta = false, saw_step = false, saw_kernel = false;
  for (const JV& e : evs.arr) {
    ASSERT_EQ(e.t, JV::T::Obj);
    ASSERT_TRUE(e.has("ph"));
    const std::string ph = e.at("ph").str;
    if (ph == "M") {
      saw_meta = true;
      continue;
    }
    ASSERT_EQ(ph, "X");  // complete events only
    ASSERT_TRUE(e.has("name"));
    ASSERT_TRUE(e.has("ts"));
    ASSERT_TRUE(e.has("dur"));
    ASSERT_TRUE(e.has("pid"));
    ASSERT_TRUE(e.has("tid"));
    EXPECT_GE(e.at("dur").num, 0.0);
    if (e.at("name").str == "trace_step") saw_step = true;
    if (e.at("name").str.find("trace_kernel") != std::string::npos) {
      saw_kernel = true;
      ASSERT_TRUE(e.has("args"));
      EXPECT_TRUE(e.at("args").has("space"));
      EXPECT_TRUE(e.at("args").has("work"));
      EXPECT_DOUBLE_EQ(e.at("args").at("work").num, 256.0);
    }
  }
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_step);
  EXPECT_TRUE(saw_kernel);

  // Round-trip through write_chrome_trace.
  const std::string path = "test_prof_trace_out.json";
  ASSERT_TRUE(prof::write_chrome_trace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  JV doc2;
  EXPECT_TRUE(JsonParser(ss.str()).parse(doc2));
  std::remove(path.c_str());
}

TEST(ProfTrace, SummaryModeCollectsNoTraceEvents) {
  ProfSession session(prof::Mode::Summary);

  {
    prof::ScopedRegion r("no_trace");
    busy_wait(1e-4);
  }
  JV doc;
  ASSERT_TRUE(JsonParser(prof::trace_json()).parse(doc));
  EXPECT_TRUE(doc.at("traceEvents").arr.empty() ||
              // metadata-only is also acceptable
              doc.at("traceEvents").arr.size() <= 1);
}

TEST(ProfReport, ReportJsonIsWellFormed) {
  ProfSession session(prof::Mode::Summary);

  {
    prof::ScopedRegion r(R"(weird "name"\with{json}chars)");
    busy_wait(1e-4);
  }
  const prof::Report rep = prof::report();
  JV doc;
  ASSERT_TRUE(JsonParser(rep.to_json()).parse(doc)) << rep.to_json();
  ASSERT_TRUE(doc.has("schema"));
  EXPECT_EQ(doc.at("schema").str, "vpic-prof-v1");
  ASSERT_TRUE(doc.has("regions"));
  EXPECT_EQ(doc.at("regions").arr.size(), rep.regions.size());
  EXPECT_FALSE(rep.human_table().empty());
}

// ---------------------------------------------------------------------
// Disabled-mode overhead: the contract in pk/prof_hooks.hpp is that an
// instrumented dispatch with no handlers costs one relaxed load and a
// predicted branch — <1% on any kernel with real work. Compare the public
// instrumented entry point against the raw detail:: dispatch it wraps,
// min-of-reps (alternating, so cache/frequency drift hits both equally),
// and keep the best of three such trials: one trial can lose its minimum
// to a neighbour on a shared host.
// ---------------------------------------------------------------------
TEST(ProfOverhead, DisabledDispatchUnderOnePercent) {
  prof::disable();
  ASSERT_FALSE(pk::prof::active());

  const pk::index_t n = 1 << 15;
  std::vector<float> a(static_cast<std::size_t>(n), 1.0f);
  auto body = [&](pk::index_t i) {
    const auto k = static_cast<std::size_t>(i);
    a[k] = a[k] * 1.000001f + 1e-7f;
  };
  const pk::RangePolicy<pk::Serial> policy(0, n);

  using clock = std::chrono::steady_clock;
  auto secs = [](clock::time_point t0, clock::time_point t1) {
    return std::chrono::duration<double>(t1 - t0).count();
  };

  for (int w = 0; w < 20; ++w) {  // warm-up both paths
    pk::detail::for_impl(policy, body);
    pk::parallel_for("overhead_probe", policy, body);
  }
  // <1% relative plus a 2us absolute slack floor for clock granularity;
  // the best trial is the one with the most room under that bound.
  double raw_best = 0, instr_best = 1e300;
  for (int trial = 0; trial < 3; ++trial) {
    double raw_min = 1e300, instr_min = 1e300;
    for (int r = 0; r < 400; ++r) {
      const auto t0 = clock::now();
      pk::detail::for_impl(policy, body);
      const auto t1 = clock::now();
      pk::parallel_for("overhead_probe", policy, body);
      const auto t2 = clock::now();
      raw_min = std::min(raw_min, secs(t0, t1));
      instr_min = std::min(instr_min, secs(t1, t2));
    }
    if (instr_min - (raw_min * 1.01 + 2e-6) <
        instr_best - (raw_best * 1.01 + 2e-6)) {
      raw_best = raw_min;
      instr_best = instr_min;
    }
  }
  EXPECT_LE(instr_best, raw_best * 1.01 + 2e-6)
      << "raw_min=" << raw_best << "s instr_min=" << instr_best << "s";
  EXPECT_GT(a[0], 1.0f);  // keep the workload observable
}

// ---------------------------------------------------------------------
// Allocation events
// ---------------------------------------------------------------------
TEST(ProfAlloc, AllocationEventsPair) {
  ProfSession session(prof::Mode::Summary);

  {
    pk::View<float, 1> v1("pair_a", 1000);
    pk::View<double, 2> v2("pair_b", 10, 10);
    v1(0) = 1;
    v2(0, 0) = 2;
  }
  const prof::AllocStats a = prof::report().alloc;
  EXPECT_EQ(a.allocs, 2);
  EXPECT_EQ(a.deallocs, 2);
  EXPECT_EQ(a.unmatched_deallocs, 0);
  EXPECT_EQ(a.live_bytes, 0);
  EXPECT_EQ(a.peak_bytes,
            static_cast<std::int64_t>(1000 * sizeof(float) +
                                      100 * sizeof(double)));
  EXPECT_EQ(a.total_bytes, a.peak_bytes);
}

TEST(ProfAlloc, UnmatchedDeallocIsCounted) {
  auto* orphan = new pk::View<float, 1>("orphan", 64);  // allocated pre-enable
  ProfSession session(prof::Mode::Summary);
  delete orphan;  // free observed, allocation wasn't

  const prof::AllocStats a = prof::report().alloc;
  EXPECT_EQ(a.allocs, 0);
  EXPECT_EQ(a.deallocs, 1);
  EXPECT_EQ(a.unmatched_deallocs, 1);
  EXPECT_EQ(a.live_bytes, 0);  // never goes negative on unmatched frees
}

TEST(ProfAlloc, ViewAllocCountDelegatesAndCountsWhenOff) {
  prof::disable();
  const std::int64_t before = pk::view_alloc_count().load();
  {
    pk::View<float, 1> v1("c1", 8);
    pk::View<float, 1> v2("c2", 8);
    pk::View<float, 1> copy = v1;  // shares storage: no new allocation
    (void)copy;
  }
  EXPECT_EQ(pk::view_alloc_count().load() - before, 2);
  // view_alloc_count and the prof hook counter are the same counter.
  EXPECT_EQ(&pk::view_alloc_count(), &pk::prof::alloc_count());
}

TEST(ProfAlloc, AllocCountExactUnderParallelConstruction) {
  prof::disable();
  const pk::index_t n = 512;
  const std::int64_t before = pk::view_alloc_count().load();
  // Each iteration constructs and destroys one View; with OpenMP enabled
  // this exercises the counter's atomicity across threads.
  pk::parallel_for(n, [](pk::index_t i) {
    pk::View<float, 1> scratch("scratch", 16);
    scratch(0) = static_cast<float>(i);
  });
  EXPECT_EQ(pk::view_alloc_count().load() - before,
            static_cast<std::int64_t>(n));
}

}  // namespace
