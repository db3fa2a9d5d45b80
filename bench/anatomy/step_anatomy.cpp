// bench/anatomy/step_anatomy.cpp
//
// One workload of the step-anatomy benchmark per process (README.md in this
// directory; run.py drives it).
//
//   step_anatomy --workload=<name> [--seed=<n>] [--seconds=<s>] [--traced]
//                [--smoke] [--dir=<run dir>] [--ref-energy=<E>]
//                [--trace-out=<chrome trace path>]
//
// Untraced, it times whole Simulation::step() calls back to back (a closed
// loop with one client) and reports set-up, ms/step, particles/s, per-step
// percentiles, peak RSS and, on lpi_ckpt, restart time. Traced, it measures
// the layers from outside the program: on untiled decks it replays the step
// by calling each layer's public entry point in step()'s order with a span
// around each call; on the tiled and checkpointing decks, whose executor and
// incremental ring have no outside entry point, it wraps step() and reads
// the per-step telemetry the Simulation publishes. The last line on stdout
// is one JSON object: metrics, the correctness ledger, and the energy at the
// check step.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/collide.hpp"
#include "core/decks.hpp"
#include "core/simulation.hpp"
#include "pk/config.hpp"
#include "tune/tune.hpp"

namespace {

using namespace vpic;
using core::index_t;
using core::Simulation;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// The highest sample with ten samples beyond it: the highest percentile a
/// run of `v.size()` samples can report with ten beyond it. With ten or
/// fewer samples (smoke runs only) it is the largest.
double tail(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() > 10 ? v.size() - 11 : v.size() - 1];
}

// ---- options and workloads ------------------------------------------------

struct Options {
  std::string workload;
  std::optional<std::uint64_t> seed;  // unset: each deck's default seed
  double seconds = 10;
  bool traced = false;
  bool smoke = false;
  std::string dir = ".";
  std::optional<double> ref_energy;
  std::string trace_out;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const auto eq = a.find('=');
    const std::string_view key = a.substr(0, eq);
    const std::string val =
        eq == std::string_view::npos ? "" : std::string(a.substr(eq + 1));
    if (a == "--traced") {
      o.traced = true;
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::stoull(val);
    } else if (key == "--seconds") {
      o.seconds = std::stod(val);
    } else if (key == "--dir") {
      o.dir = val;
    } else if (key == "--ref-energy") {
      o.ref_energy = std::stod(val);
    } else if (key == "--trace-out") {
      o.trace_out = val;
    } else {
      throw std::invalid_argument("unknown argument '" + std::string(a) + "'");
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload= is required");
  return o;
}

enum class Deck { Lpi, Weibel };

struct Workload {
  Deck deck = Deck::Lpi;
  core::decks::LpiParams lpi;
  core::decks::WeibelParams weibel;
  bool tiled = false;    // Stealing tiled step, 4 workers, auto tile count
  bool collide = false;  // CollisionModule over every species pair
  bool ckpt = false;     // async incremental DeltaPack checkpoint ring
  // Timed steps up to the energy check step. On the LPI decks 240 steps
  // hold 12 sort steps (and 24 checkpoint steps on lpi_ckpt), so the tail
  // step, with ten slower ones beyond it, lies among the sort or checkpoint
  // steps however fast the host runs, never on the boundary between them and
  // the slowest ordinary step. On weibel_collide a sort is lost in the
  // collision time, so a shorter floor does.
  int min_steps = 240;
};

// The timed window and the probe chunks span whole sort periods
// (sort_interval = 20 on every deck), so each holds the same mix of sort and
// non-sort steps; the checkpoint interval divides the period so a window also
// ends on a checkpoint step.
constexpr int kWarmupSteps = 20;
constexpr int kSetupReps = 5;
constexpr int kRestores = 3;
constexpr int kStealWorkers = 4;
int period(const Options& o) { return o.smoke ? 5 : 20; }
int ckpt_every(const Options& o) { return o.smoke ? 5 : 10; }
int probe_steps(const Options& o) { return o.smoke ? 5 : 40; }

Workload make_workload(const Options& o) {
  Workload w;
  const bool s = o.smoke;
  auto& l = w.lpi;
  if (o.workload == "lpi" || o.workload == "lpi_ckpt") {
    l.nx = s ? 16 : 48;
    l.ny = s ? 8 : 24;
    l.nz = s ? 8 : 24;
    l.ppc = s ? 4 : 16;
    w.ckpt = o.workload == "lpi_ckpt";
  } else if (o.workload == "clumped_tiled") {
    l.nx = s ? 16 : 32;
    l.ny = s ? 8 : 16;
    l.nz = s ? 16 : 32;
    l.ppc = s ? 4 : 16;
    l.clump_factor = 8;
    w.tiled = true;
  } else if (o.workload == "weibel_collide") {
    w.deck = Deck::Weibel;
    w.weibel.nx = w.weibel.ny = w.weibel.nz = s ? 8 : 20;
    w.weibel.ppc = s ? 8 : 16;
    w.collide = true;
    w.min_steps = 60;
  } else {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }
  if (o.seed) l.seed = w.weibel.seed = *o.seed;
  if (s) w.min_steps = period(o);
  return w;
}

core::CollisionParams collision_params() {
  core::CollisionParams p;
  p.nu0 = 0.05;
  p.interval = 1;
  return p;
}

Simulation build_deck(const Workload& w, const Options& o,
                      const std::string& ckpt_base) {
  Simulation sim = w.deck == Deck::Lpi ? core::decks::make_lpi(w.lpi)
                                       : core::decks::make_weibel(w.weibel);
  auto& cfg = sim.config();
  if (w.tiled) {
    cfg.tiles.enabled = true;
    cfg.tiles.exec = core::TileExec::Stealing;
    cfg.tiles.workers = kStealWorkers;
    if (o.seed) cfg.tiles.steal_seed = *o.seed;
  }
  if (w.ckpt) {
    cfg.checkpoint_every = ckpt_every(o);
    cfg.checkpoint_path = ckpt_base;
    cfg.checkpoint_async = true;
    cfg.checkpoint_incremental = true;
    cfg.checkpoint_codec = 1;  // DeltaPack
    cfg.checkpoint_keep_last = 3;
  }
  if (w.collide) sim.add_module<core::CollisionModule>(collision_params());
  return sim;
}

// ---- correctness ledger ---------------------------------------------------

/// Every operation the run attempts (timed step, committed checkpoint,
/// restore, correctness check) and the ones that failed.
struct Ledger {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;

  void op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

std::vector<index_t> particle_counts(Simulation& sim) {
  std::vector<index_t> np;
  for (std::size_t s = 0; s < sim.num_species(); ++s)
    np.push_back(sim.species(s).np);
  return np;
}

/// Particle counts conserved (every boundary is periodic) and every energy
/// finite. Returns the energies it checked.
core::EnergyReport check_state(Simulation& sim, const std::vector<index_t>& np0,
                               Ledger& led, const std::string& where) {
  led.op(particle_counts(sim) == np0, "particle count changed at " + where);
  const core::EnergyReport e = sim.energies();
  bool finite = std::isfinite(e.field);
  for (double k : e.species) finite = finite && std::isfinite(k);
  led.op(finite, "non-finite energy at " + where);
  return e;
}

bool same_energies(const core::EnergyReport& a, const core::EnergyReport& b) {
  return a.field == b.field && a.species == b.species;
}

// ---- spans ----------------------------------------------------------------

/// One bench-side span: the step number is the id shared by a step's spans.
struct Span {
  std::string name;
  double t0 = 0, t1 = 0;  // seconds since the run started
  int parent = -1;        // index into the span list; -1 for a root
  std::int64_t step = 0;
  std::string args;       // extra JSON members for the event's args
};

/// Spans kept in memory and written once, at exit, in chrome://tracing
/// format.
class Trace {
 public:
  explicit Trace(Clock::time_point origin) : origin_(origin) {}

  [[nodiscard]] double now() const { return since(origin_); }

  int open(std::string name, std::int64_t step, int parent = -1) {
    spans_.push_back({std::move(name), now(), -1, parent, step, {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].t1 = now(); }
  void add(Span s) { spans_.push_back(std::move(s)); }

  /// Run `f` inside a span; returns its duration in seconds.
  template <class F>
  double span(std::string name, std::int64_t step, int parent, F&& f) {
    const int id = open(std::move(name), step, parent);
    f();
    close(id);
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.t1 - s.t0;
  }

  /// Complete ("X") events; args carry the step id, the parent span's name
  /// and the self time (duration minus the time covered by child spans).
  /// Returns false when the file cannot be written.
  [[nodiscard]] bool write_chrome(const std::string& path) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const char* parent =
          s.parent >= 0 ? spans_[static_cast<std::size_t>(s.parent)].name.c_str()
                        : "";
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"step\":%lld,"
                   "\"parent\":\"%s\",\"self_us\":%.3f%s%s}}%s\n",
                   s.name.c_str(), s.t0 * 1e6, (s.t1 - s.t0) * 1e6,
                   static_cast<long long>(s.step), parent,
                   (s.t1 - s.t0 - child[i]) * 1e6, s.args.empty() ? "" : ",",
                   s.args.c_str(), i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---- per-step layer accounting ---------------------------------------------

/// Seconds each layer was busy during one step, plus its counts.
struct Layers {
  double interp = 0, acc = 0, merge = 0, field = 0, inject = 0, collide = 0,
         sort = 0, ckpt = 0;
  std::vector<double> push;       // per species
  std::vector<double> tile_push;  // per tile, all species (tiled step only)
  std::uint64_t pairs = 0;        // collision pairs scattered
  int run_aware = 0;              // species pushed on the run-aware path
  bool sorted = false;            // the step re-sorted its species

  explicit Layers(std::size_t species = 0, std::size_t tiles = 0)
      : push(species, 0.0), tile_push(tiles, 0.0) {}

  [[nodiscard]] double push_total() const {
    double t = 0;
    for (double p : push) t += p;
    return t;
  }
};

std::uint64_t pairs_so_far(Simulation& sim) {
  auto* cm = dynamic_cast<core::CollisionModule*>(sim.find_module("collide"));
  return cm ? cm->pairs_scattered() : 0;
}

/// Read the telemetry the Simulation publishes for its most recent step:
/// per-phase busy seconds (phase names from core/pipeline_modules.cpp and
/// core/collide.cpp), push paths and collision pairs.
Layers read_telemetry(Simulation& sim, std::uint64_t pairs_before) {
  const std::size_t ns = sim.num_species();
  const auto tiles = static_cast<std::size_t>(sim.tile_map().count());
  Layers l(ns, tiles);
  const auto species_of = [&](std::string_view name) {
    for (std::size_t s = 0; s < ns; ++s)
      if (sim.species(s).name == name) return s;
    throw std::logic_error("phase names unknown species");
  };
  for (const core::PhaseStats& st : sim.last_phase_stats()) {
    const std::string_view n = st.name;
    const double sec = st.seconds;
    if (n.starts_with("push[")) {
      // "push[<species>]" untiled, "push[<species>.t<tile>]" tiled.
      const std::string_view inner = n.substr(5, n.size() - 6);
      const auto dot = inner.find(".t");
      l.push[species_of(inner.substr(0, dot))] += sec;
      if (dot != std::string_view::npos) {
        std::size_t t = 0;
        std::from_chars(inner.data() + dot + 2, inner.data() + inner.size(), t);
        if (t < tiles) l.tile_push[t] += sec;
      }
    } else if (n.starts_with("interp")) {
      l.interp += sec;
    } else if (n == "acc_merge") {
      l.acc += sec;
      l.merge += sec;
    } else if (n.starts_with("acc")) {
      l.acc += sec;
    } else if (n == "field_advance") {
      l.field += sec;
    } else if (n == "injection") {
      l.inject += sec;
    } else if (n.starts_with("collide[")) {
      l.collide += sec;
    } else if (n.starts_with("sort")) {
      l.sort += sec;
      l.sorted = true;
    } else if (n == "ckpt") {
      l.ckpt += sec;
    }
  }
  for (core::PushPath p : sim.last_push_paths())
    l.run_aware += p == core::PushPath::RunAware;
  l.pairs = pairs_so_far(sim) - pairs_before;
  return l;
}

// ---- the replayed step -----------------------------------------------------

/// Bench-side copy of make_lpi's laser antenna (core/decks.cpp), driven by
/// the replay's step counter instead of Simulation::step_count().
void lpi_antenna(Simulation& s, const core::decks::LpiParams& p,
                 std::int64_t n) {
  core::Grid& g = s.grid();
  const auto t = static_cast<float>(n) * g.dt;
  float envelope = 1.0f;
  if (p.laser_ramp_steps > 0) {
    const float r =
        static_cast<float>(n) / static_cast<float>(p.laser_ramp_steps);
    envelope = r < 1.0f ? r : 1.0f;
  }
  const float drive = p.laser_amplitude * envelope * std::sin(p.laser_omega * t);
  auto& ey = s.fields().ey;
  for (int iz = 1; iz <= g.nz; ++iz)
    for (int iy = 1; iy <= g.ny; ++iy) ey(g.voxel(1, iy, iz)) = drive;
  s.fields().update_ghosts_periodic();
}

/// The untiled step, replayed through each layer's public entry point in the
/// order the registered pipeline modules compose step(): interpolate,
/// accumulator clear, push per species, accumulate, field advance,
/// injection, collide per pair, sort. `n` is the bench's step counter,
/// standing in for the Simulation's private one wherever a phase reads it
/// (antenna phase, sort and collision schedules, collision RNG keys).
class Replay {
 public:
  Replay(Simulation& sim, const Workload& w)
      : sim_(sim), w_(w), rng_(sim.module_rng("collide")) {
    for (std::size_t s = 0; s < sim.num_species(); ++s)
      push_names_.push_back("push." + sim.species(s).name);
    if (w.collide)
      for (std::size_t a = 0; a < sim.num_species(); ++a)
        for (std::size_t b = a; b < sim.num_species(); ++b)
          pairs_.emplace_back(a, b);
  }

  /// One step. With `tr` set every layer call gets a span under a
  /// "replay.step" root and its time lands in the returned Layers; without
  /// it the calls run bare.
  Layers step(std::int64_t n, Trace* tr) {
    const std::size_t ns = sim_.num_species();
    Layers l(ns);
    auto& cfg = sim_.config();
    const core::Grid& g = sim_.grid();
    const int root = tr ? tr->open("replay.step", n) : -1;
    const auto layer = [&](const std::string& name, double& slot, auto&& f) {
      if (tr) {
        slot += tr->span(name, n, root, f);
      } else {
        f();
      }
    };
    layer("interp.load", l.interp,
          [&] { sim_.interpolator().load(sim_.fields()); });
    layer("acc.clear", l.acc, [&] { sim_.accumulator().clear(); });
    for (std::size_t s = 0; s < ns; ++s) {
      core::PushPath path = core::PushPath::Generic;
      layer(push_names_[s], l.push[s], [&] {
        path = core::advance_species(sim_.species(s), sim_.interpolator(),
                                     sim_.accumulator(), g, cfg.strategy, {},
                                     cfg.push_path);
      });
      l.run_aware += path == core::PushPath::RunAware;
    }
    layer("acc.unload", l.acc, [&] {
      sim_.accumulator().reduce_ghosts_periodic();
      sim_.accumulator().unload(sim_.fields());
    });
    layer("field.advance", l.field, [&] {
      core::FieldArray& f = sim_.fields();
      f.advance_b_half();
      f.update_ghosts_periodic();
      f.advance_e();
      f.update_ghosts_periodic();
      f.advance_b_half();
      f.update_ghosts_periodic();
    });
    if (w_.deck == Deck::Lpi)
      layer("antenna", l.inject, [&] { lpi_antenna(sim_, w_.lpi, n); });
    const core::CollisionParams prm = collision_params();
    for (const auto& [a, b] : pairs_) {
      layer("collide", l.collide, [&] {
        core::Species& sa = sim_.species(a);
        core::Species& sb = sim_.species(b);
        l.pairs += core::collide_range(sa, sb, g, prm, 0, sa.np, 0, sb.np,
                                       static_cast<std::uint64_t>(n),
                                       a * 1024 + b, rng_)
                       .pairs;
      });
    }
    if (cfg.sort_interval > 0 && n % cfg.sort_interval == 0) {
      l.sorted = true;
      const std::uint32_t tile =
          cfg.sort_tile ? cfg.sort_tile
                        : static_cast<std::uint32_t>(
                              pk::DefaultExecSpace::concurrency());
      for (std::size_t s = 0; s < ns; ++s)
        layer("sort", l.sort, [&] {
          core::sort_particles(sim_.species(s), cfg.sort_order, tile,
                               cfg.seed + static_cast<std::uint64_t>(n),
                               g.nv());
        });
    }
    if (tr) tr->close(root);
    return l;
  }

 private:
  Simulation& sim_;
  const Workload& w_;
  core::ModuleRng rng_;
  std::vector<std::string> push_names_;
  std::vector<std::pair<std::size_t, std::size_t>> pairs_;
};

// ---- aggregation -----------------------------------------------------------

/// Layer totals over the traced steps of a run.
struct LayerTotals {
  int steps = 0;
  double wall = 0;  // summed wall time of those steps
  Layers sum;
  int sort_steps = 0;
  int species_steps = 0;   // species x steps pushed
  double imbalance = 0;    // summed per-step particle imbalance
  pk::StealStats steal;    // summed
  // Push seconds of traced steps among the first and the last five of each
  // sort period: right after one sort, and right before the next.
  double early_push = 0, late_push = 0;
  int early_n = 0, late_n = 0;

  void add(const Layers& l, double wall_s, int pos, int period) {
    if (sum.push.size() < l.push.size()) sum.push.resize(l.push.size(), 0.0);
    if (sum.tile_push.size() < l.tile_push.size())
      sum.tile_push.resize(l.tile_push.size(), 0.0);
    ++steps;
    wall += wall_s;
    sum.interp += l.interp;
    sum.acc += l.acc;
    sum.merge += l.merge;
    sum.field += l.field;
    sum.collide += l.collide;
    sum.sort += l.sort;
    for (std::size_t s = 0; s < l.push.size(); ++s) sum.push[s] += l.push[s];
    for (std::size_t t = 0; t < l.tile_push.size(); ++t)
      sum.tile_push[t] += l.tile_push[t];
    sum.pairs += l.pairs;
    sum.run_aware += l.run_aware;
    species_steps += static_cast<int>(l.push.size());
    sort_steps += l.sorted;
    if (pos < 5) {
      early_push += l.push_total();
      ++early_n;
    }
    if (pos >= period - 5) {
      late_push += l.push_total();
      ++late_n;
    }
  }
};

// ---- metrics output --------------------------------------------------------

struct Metric {
  std::string name;
  std::optional<double> value;  // unset: the layer does no work here
  std::string unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c >= 0x20 ? c : ' ';
  }
  return out;
}

void print_result(const Options& o, const std::vector<Metric>& metrics,
                  const Ledger& led, std::optional<double> energy_check,
                  std::int64_t check_step) {
  std::printf("{\"workload\":\"%s\",\"traced\":%s,\"smoke\":%s,",
              json_escape(o.workload).c_str(), o.traced ? "true" : "false",
              o.smoke ? "true" : "false");
  std::printf("\"attempted\":%lld,\"failed\":%lld,\"failures\":[",
              static_cast<long long>(led.attempted),
              static_cast<long long>(led.failed));
  for (std::size_t i = 0; i < led.failures.size(); ++i)
    std::printf("%s\"%s\"", i ? "," : "", json_escape(led.failures[i]).c_str());
  std::printf("],\"check_step\":%lld,\"energy_check\":",
              static_cast<long long>(check_step));
  if (energy_check) {
    std::printf("%.17g", *energy_check);
  } else {
    std::printf("null");
  }
  std::printf(",\"metrics\":{");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\":{\"value\":", i ? "," : "", m.name.c_str());
    if (m.value && std::isfinite(*m.value)) {
      std::printf("%.17g", *m.value);
    } else {
      std::printf("null");
    }
    std::printf(",\"unit\":\"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void set_threads(int n) {
#if PK_HAVE_OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

// Bytes a push moves per particle, computed from the record sizes: the
// 32-byte particle read and written, the 72-byte interpolator record
// gathered and the 48-byte accumulator record scattered. Labelled computed:
// the working sets fit in the last-level cache, so this is not DRAM traffic.
constexpr double kPushBytesPerParticle = 32 + 32 + 72 + 48;

// ---- the run ---------------------------------------------------------------

class Run {
 public:
  explicit Run(Options o)
      : o_(std::move(o)),
        w_(make_workload(o_)),
        trace_(Clock::now()),
        ckpt_base_(o_.dir + "/ckpt") {}

  int execute() {
    try {
      body();
    } catch (const std::exception& e) {
      led_.op(false, std::string("exception: ") + e.what());
    }
    metric("peak_rss_end_mb", peak_rss_mb(), "MB");
    print_result(o_, metrics_, led_, energy_check_, check_step());
    if (o_.traced && !o_.trace_out.empty() &&
        !trace_.write_chrome(o_.trace_out)) {
      std::fprintf(stderr, "step_anatomy: cannot write %s\n",
                   o_.trace_out.c_str());
      return 1;
    }
    return led_.failed == 0 ? 0 : 1;
  }

 private:
  [[nodiscard]] std::int64_t check_step() const {
    return kWarmupSteps + w_.min_steps;
  }

  void metric(std::string name, std::optional<double> v, std::string unit) {
    metrics_.push_back({std::move(name), v, std::move(unit)});
  }

  void body() {
    setup();
    Simulation& sim = *sim_;
    for (std::size_t s = 0; s < sim.num_species(); ++s)
      species_.push_back(sim.species(s).name);
    np0_ = particle_counts(sim);
    for (index_t n : np0_) np_total_ += static_cast<double>(n);
    while (sim.step_count() < kWarmupSteps) sim.step();
    // The gated peak RSS is taken here, after the set-ups and a warm-up that
    // has sorted and (on lpi_ckpt) checkpointed: every lazily sized buffer
    // exists by now. Later growth, from the window's checkpoint buffers and
    // the restores, is reported as peak_rss_end_mb.
    metric("peak_rss_mb", peak_rss_mb(), "MB");

    Replay replay(sim, w_);
    const std::int64_t ckpts_before = sim.checkpoints_written();
    window(sim, replay);

    // The checkpointing deck's window ended on a checkpoint step, so its
    // newest generation holds the state the restores must reproduce. The
    // other decks write no checkpoint and report the neutral values.
    double bytes = 0, incremental = 1, codec = 1;
    std::optional<double> drain_ms;
    if (w_.ckpt) {
      drain_ms = 1e3 * trace_.span("checkpoint_wait", sim.step_count(), -1,
                                   [&] { sim.checkpoint_wait(); });
      const std::int64_t gens = sim.checkpoints_written() - ckpts_before;
      led_.op(gens > 0, "no checkpoint committed in the window");
      for (std::int64_t g = 1; g < gens; ++g) led_.op(true, "checkpoint");
      const core::ElasticCkptStats st = sim.elastic_ckpt_stats();
      const auto files =
          static_cast<double>(st.full_generations + st.delta_generations);
      if (files > 0)
        bytes = static_cast<double>(st.full_file_bytes + st.delta_file_bytes) /
                files;
      if (st.stored_raw_bytes > 0)
        incremental = static_cast<double>(st.logical_bytes) /
                      static_cast<double>(st.stored_raw_bytes);
      if (st.stored_bytes > 0)
        codec = static_cast<double>(st.stored_raw_bytes) /
                static_cast<double>(st.stored_bytes);
    }
    const core::EnergyReport final_e = check_state(sim, np0_, led_, "the end");
    if (o_.traced) {
      metric("ckpt.bytes_per_gen", bytes, "B");
      metric("ckpt.incremental_ratio", incremental, "ratio");
      metric("ckpt.codec_ratio", codec, "ratio");
      metric("ckpt.drain_ms", drain_ms, "ms");
      probes(sim, replay);
      verify_replay();
    }
    sim_.reset();
    if (w_.ckpt) restores(final_e);
  }

  /// Tune calibration + deck build + module registration + the first step,
  /// repeated kSetupReps times, each against a fresh tune cache file so
  /// every repetition pays the same calibration. The last deck is kept.
  void setup() {
    std::vector<double> total, tune_ms, build_ms;
    for (int r = 0; r < kSetupReps; ++r) {
      sim_.reset();
      const std::string cache = o_.dir + "/tune" + std::to_string(r) + ".json";
      setenv("VPIC_TUNE", cache.c_str(), 1);
      tune::reset_for_testing();
      const auto t0 = Clock::now();
      tune::ensure_initialized();
      const double t_tune = since(t0);
      sim_.emplace(build_deck(w_, o_, ckpt_base_));
      const double t_build = since(t0) - t_tune;
      sim_->step();
      total.push_back(since(t0));
      tune_ms.push_back(1e3 * t_tune);
      build_ms.push_back(1e3 * t_build);
    }
    metric("setup_s", median(total), "s");
    metric("tune.init_ms", median(tune_ms), "ms");
    metric("deck.build_ms", median(build_ms), "ms");
  }

  /// One timed step that counts in the ledger. An exception propagates to
  /// execute(), which records it as the failed operation.
  template <class F>
  double timed_step(F&& f) {
    const auto t0 = Clock::now();
    f();
    const double s = since(t0);
    led_.op(true, "step");
    return s;
  }

  /// Energy at the check step: counts conserved, energies finite, and the
  /// total within 1% of the reference when one is given.
  void check_energy(Simulation& sim, std::int64_t n) {
    const core::EnergyReport e =
        check_state(sim, np0_, led_, "step " + std::to_string(n));
    energy_check_ = e.total();
    if (!o_.ref_energy) return;
    const double rel =
        std::abs(e.total() - *o_.ref_energy) / std::abs(*o_.ref_energy);
    led_.op(rel <= 0.01, "energy " + std::to_string(e.total()) +
                             " is more than 1% from the reference " +
                             std::to_string(*o_.ref_energy));
  }

  /// The timed window: steps back to back from the end of the warm-up until
  /// at least `seconds` have passed, at least min_steps were taken, and the
  /// count is a whole number of sort periods. The energy check is paused out
  /// of the window's wall time.
  ///
  /// Traced, every second step is traced and the others run bare. The
  /// tracing overhead is the median ratio of a traced step to the bare step
  /// one sort period away, at the same place in the sort and checkpoint
  /// cycles, over steps that neither sort nor checkpoint: the two share the
  /// cycle's costs, and the host's slow drifts mostly. Untiled decks are
  /// replayed layer by layer; the others step() and have their telemetry
  /// read after each traced step.
  void window(Simulation& sim, Replay& replay) {
    const bool replayed = o_.traced && !w_.tiled && !w_.ckpt;
    const int per = period(o_);
    const auto special = [&](std::int64_t n) {
      return n % per == 0 || (w_.ckpt && n % ckpt_every(o_) == 0);
    };
    const std::int64_t first = sim.step_count() + 1;
    std::vector<double> step_s, overhead;
    std::vector<std::int64_t> step_n;
    double paused = 0, wall = 0;
    const auto t_start = Clock::now();
    for (std::int64_t n = first;; ++n) {
      const std::int64_t taken = n - first + 1;
      const int pos = static_cast<int>((taken - 1) % per);
      // Which parity is traced flips every sort period, so no position in
      // the sort or checkpoint cycle is always traced or always bare.
      const auto block = static_cast<int>((taken - 1) / per);
      const bool traced = o_.traced && (pos + block) % 2 == 1;
      Layers l;
      double s = 0;
      if (replayed) {
        s = timed_step([&] { l = replay.step(n, traced ? &trace_ : nullptr); });
      } else {
        const std::uint64_t pairs0 = traced ? pairs_so_far(sim) : 0;
        const double t0 = trace_.now();
        s = timed_step([&] { sim.step(); });
        if (traced) {
          l = read_telemetry(sim, pairs0);
          add_tile_stats(sim);
          trace_.add({"step", t0, t0 + s, -1, n, phase_args(l)});
        }
      }
      if (traced) totals_.add(l, s, pos, per);
      if (o_.traced && taken > per && !special(n)) {
        const double other = step_s[step_s.size() - per];  // step n - per
        overhead.push_back(traced ? s / other : other / s);
      }
      step_s.push_back(s);
      step_n.push_back(n);
      if (n == check_step()) {
        const auto tp = Clock::now();
        check_energy(sim, n);
        paused += since(tp);
      }
      wall = since(t_start) - paused;
      if (taken >= w_.min_steps && wall >= o_.seconds && taken % per == 0)
        break;
    }
    end_step_ = step_n.back();

    const auto steps = static_cast<double>(step_s.size());
    metric("ms_per_step", 1e3 * wall / steps, "ms");
    metric("particles_per_s", np_total_ * steps / wall, "1/s");
    metric("step_ms_p50", 1e3 * median(step_s), "ms");
    metric("step_ms_p_hi", 1e3 * tail(step_s), "ms");
    metric("step_p_hi", steps > 10 ? 100.0 * (steps - 10) / steps : 100.0,
           "percentile");
    metric("step_samples", steps, "count");
    if (!o_.traced) return;

    // Checkpoint stall: checkpoint steps that are not sort steps against
    // steps that are neither.
    std::vector<double> ck, plain;
    for (std::size_t i = 0; i < step_n.size(); ++i) {
      if (step_n[i] % per == 0) continue;
      (special(step_n[i]) ? ck : plain).push_back(step_s[i]);
    }
    std::optional<double> stall_ms;
    if (!ck.empty() && !plain.empty())
      stall_ms = 1e3 * (median(ck) - median(plain));
    metric("ckpt.stall_ms", stall_ms, "ms");
    metric("ckpt.stall_frac",
           stall_ms ? *stall_ms / (1e3 * median(plain)) : 0.0, "ratio");
    metric("trace.overhead_frac", overhead.empty() ? 0.0 : median(overhead) - 1,
           "ratio");
  }

  void add_tile_stats(Simulation& sim) {
    if (!w_.tiled) return;
    const core::TileStepStats& ts = sim.last_tile_stats();
    totals_.imbalance += ts.imbalance;
    totals_.steal.steal_attempts += ts.steal.steal_attempts;
    totals_.steal.steal_hits += ts.steal.steal_hits;
    totals_.steal.tasks_stolen += ts.steal.tasks_stolen;
    totals_.steal.idle_us += ts.steal.idle_us;
  }

  /// Per-phase busy ms of a wrapped step, for the trace viewer.
  [[nodiscard]] std::string phase_args(const Layers& l) const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"interp_ms\":%.4f,\"push_ms\":%.4f,\"acc_ms\":%.4f,"
                  "\"field_ms\":%.4f,\"inject_ms\":%.4f,\"collide_ms\":%.4f,"
                  "\"sort_ms\":%.4f,\"ckpt_ms\":%.4f",
                  1e3 * l.interp, 1e3 * l.push_total(), 1e3 * l.acc,
                  1e3 * l.field, 1e3 * l.inject, 1e3 * l.collide, 1e3 * l.sort,
                  1e3 * l.ckpt);
    return buf;
  }

  /// Post-window probes of a traced run, taken after the final state was
  /// recorded, in chunks of one sort period:
  ///   A  step() bare: the driver side of the driver overhead, and the
  ///      concurrency peak;
  ///   B  the replay with spans: the direct-call side, and the push at the
  ///      default thread count;
  ///   C  the replay at one OpenMP thread, with voxel crossings counted
  ///      outside the spans on non-sort steps (a sort reorders particles).
  /// A and B chunks alternate on untiled decks so slow drifts of the host
  /// hit both sides; the tiled deck runs its A chunks first, because the
  /// replay's global sort leaves the tile ranges stale for a tiled step.
  void probes(Simulation& sim, Replay& replay) {
    const int per = period(o_);
    const int chunks = probe_steps(o_) / per;
    sim.config().checkpoint_every = 0;  // keep the window's last generation
    std::vector<double> a_s, b_s;
    std::size_t peak = 0;
    double b_push = 0;
    std::int64_t n = end_step_;
    for (int c = 0; c < 2 * chunks; ++c) {
      const bool a = w_.tiled ? c < chunks : c % 2 == 0;
      for (int i = 0; i < per; ++i) {
        if (a) {
          a_s.push_back(timed_step([&] { sim.step(); }));
          peak = std::max(peak, sim.last_concurrency_peak());
        } else {
          Layers l;
          b_s.push_back(timed_step([&] { l = replay.step(++n, &trace_); }));
          b_push += l.push_total();
        }
      }
    }
    const int threads = pk::DefaultExecSpace::concurrency();
    set_threads(1);
    double c_push = 0, crossed = 0, moved = 0;
    for (int i = 0; i < chunks * per; ++i) {
      std::vector<std::vector<std::int32_t>> before;
      for (std::size_t s = 0; s < sim.num_species(); ++s)
        before.push_back(cells(sim.species(s)));
      const Layers l = replay.step(++n, &trace_);
      c_push += l.push_total();
      if (l.sorted) continue;
      for (std::size_t s = 0; s < sim.num_species(); ++s) {
        const std::vector<std::int32_t> after = cells(sim.species(s));
        for (std::size_t k = 0; k < after.size(); ++k)
          crossed += after[k] != before[s][k];
        moved += static_cast<double>(after.size());
      }
    }
    set_threads(threads);

    metric("push.crossing_frac", moved > 0 ? crossed / moved : 0.0, "ratio");
    metric("push.speedup_4t", b_push > 0 ? c_push / b_push : 0.0, "ratio");
    metric("step.driver_overhead_ms", 1e3 * (median(a_s) - median(b_s)), "ms");
    metric("step.concurrency_peak", static_cast<double>(peak), "count");
    layer_metrics();
  }

  static std::vector<std::int32_t> cells(const core::Species& sp) {
    std::vector<std::int32_t> v(static_cast<std::size_t>(sp.np));
    core::dispatch_layout(sp.p, [&](auto a) {
      for (index_t i = 0; i < sp.np; ++i)
        v[static_cast<std::size_t>(i)] = a.cell(i);
    });
    return v;
  }

  /// The replay must drive the same program as step(). Two fresh copies of
  /// this workload's smoke-sized deck, untiled and without checkpoints, take
  /// two sort periods from step 0, one by step() and one by the replay, at
  /// one OpenMP thread: with more, the float-atomic deposits land in an
  /// order that differs from run to run. step() runs the Sequential
  /// scheduler, which keeps every phase on this thread and is bit-identical
  /// to the Graph one (tests/test_step_graph.cpp). Every particle count and
  /// every energy must then agree bit for bit.
  void verify_replay() {
    Options so = o_;
    so.smoke = true;
    Workload cw = make_workload(so);
    cw.tiled = cw.ckpt = false;
    const int threads = pk::DefaultExecSpace::concurrency();
    set_threads(1);
    Simulation by_step = build_deck(cw, so, "");
    by_step.config().scheduler = core::StepScheduler::Sequential;
    Simulation by_replay = build_deck(cw, so, "");
    Replay replay(by_replay, cw);
    const std::int64_t steps = 2 * by_step.config().sort_interval;
    for (std::int64_t n = 1; n <= steps; ++n) {
      by_step.step();
      replay.step(n, nullptr);
    }
    set_threads(threads);
    led_.op(steps > 0 &&
                particle_counts(by_step) == particle_counts(by_replay) &&
                same_energies(by_step.energies(), by_replay.energies()),
            "the replay does not reproduce step() bit for bit");
  }

  /// Per-layer metrics from the traced window steps.
  void layer_metrics() {
    const LayerTotals& t = totals_;
    const double steps = std::max(1, t.steps);
    const double per_step_ms = 1e3 / steps;
    const double push = t.sum.push_total();
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const auto only_if = [](bool on, double v) {
      return on ? std::optional<double>(v) : std::nullopt;
    };
    metric("push.ms_per_step", push * per_step_ms, "ms");
    for (std::size_t s = 0; s < species_.size(); ++s)
      metric("push." + species_[s] + ".ns_per_particle",
             1e9 * t.sum.push[s] / (steps * static_cast<double>(np0_[s])),
             "ns");
    metric("push.run_aware_frac",
           ratio(t.sum.run_aware, t.species_steps), "ratio");
    metric("push.computed_gbs",
           ratio(np_total_ * steps * kPushBytesPerParticle, push) / 1e9,
           "GB/s");
    metric("sort.ms_per_call",
           1e3 * ratio(t.sum.sort, static_cast<double>(t.sort_steps) *
                                       static_cast<double>(species_.size())),
           "ms");
    metric("sort.push_decay_ratio",
           ratio(ratio(t.late_push, t.late_n), ratio(t.early_push, t.early_n)),
           "ratio");
    metric("interp.ms_per_step", t.sum.interp * per_step_ms, "ms");
    metric("acc.ms_per_step", t.sum.acc * per_step_ms, "ms");
    metric("field.ms_per_step", t.sum.field * per_step_ms, "ms");
    const auto pairs = static_cast<double>(t.sum.pairs);
    metric("collide.step_frac", ratio(t.sum.collide, t.wall), "ratio");
    metric("collide.pairs_per_step", pairs / steps, "count");
    metric("collide.ms_per_step", only_if(w_.collide, t.sum.collide * per_step_ms),
           "ms");
    metric("collide.ns_per_pair",
           only_if(pairs > 0, 1e9 * ratio(t.sum.collide, pairs)), "ns");
    double max_tile = 0, sum_tile = 0;
    for (double c : t.sum.tile_push) {
      max_tile = std::max(max_tile, c);
      sum_tile += c;
    }
    const auto tiles = static_cast<double>(t.sum.tile_push.size());
    metric("tiles.particle_imbalance", w_.tiled ? t.imbalance / steps : 1.0,
           "ratio");
    metric("tiles.cost_imbalance",
           sum_tile > 0 ? max_tile / (sum_tile / tiles) : 1.0, "ratio");
    metric("tiles.merge_frac", ratio(t.sum.merge, t.wall), "ratio");
    metric("tiles.merge_ms_per_step",
           only_if(w_.tiled, t.sum.merge * per_step_ms), "ms");
    metric("steal.tasks_stolen_per_step",
           static_cast<double>(t.steal.tasks_stolen) / steps, "count");
    metric("steal.hit_ratio",
           ratio(static_cast<double>(t.steal.steal_hits),
                 static_cast<double>(t.steal.steal_attempts)),
           "ratio");
    metric("steal.idle_frac",
           ratio(1e-6 * static_cast<double>(t.steal.idle_us),
                 w_.tiled ? kStealWorkers * t.wall : 0.0),
           "ratio");
  }

  /// Restart: kRestores fresh decks, each restored from the newest
  /// generation. Only restore_latest() is timed, and each restore must
  /// reproduce the final energies exactly.
  void restores(const core::EnergyReport& final_e) {
    std::vector<double> secs;
    for (int r = 0; r < kRestores; ++r) {
      Simulation fresh = build_deck(w_, o_, ckpt_base_);
      try {
        secs.push_back(trace_.span("restore_latest", r, -1, [&] {
          fresh.restore_latest(ckpt_base_);
        }));
      } catch (const std::exception& e) {
        led_.op(false, std::string("restore threw: ") + e.what());
        continue;
      }
      led_.op(true, "restore");
      led_.op(same_energies(fresh.energies(), final_e),
              "restore " + std::to_string(r) +
                  " does not reproduce the checkpointed energies");
    }
    if (secs.empty()) return;
    metric("restart_s", median(secs), "s");
    if (o_.traced) metric("restore.ms", 1e3 * median(secs), "ms");
  }

  Options o_;
  Workload w_;
  Trace trace_;
  std::string ckpt_base_;
  std::optional<Simulation> sim_;
  std::vector<std::string> species_;
  std::vector<index_t> np0_;
  double np_total_ = 0;
  std::int64_t end_step_ = 0;
  LayerTotals totals_;
  std::optional<double> energy_check_;
  Ledger led_;
  std::vector<Metric> metrics_;
};

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
    make_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "step_anatomy: %s\n", e.what());
    return 2;
  }
  return Run(std::move(o)).execute();
}
