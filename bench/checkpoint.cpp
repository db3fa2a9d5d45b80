// bench/checkpoint.cpp — per-step cost of checkpointing (docs/CHECKPOINT.md,
// docs/ELASTIC.md): the same LPI run stepped three ways — no checkpoints
// (baseline), periodic synchronous checkpoints (the step blocks for encode +
// file commit), and periodic asynchronous checkpoints (the step pays only the
// deep-copy encode; the commit runs on the simulation's writer thread). The
// headline numbers are the per-checkpoint overhead of each mode over the
// baseline and the fraction of the sync cost the async path hides.
//
// The elastic extension measures the incremental delta path on a slow-churn
// deck (cold plasma, no laser): full-vs-delta generation size ratio, the
// DeltaPack particle-payload compression ratio and its encode overhead
// against a full checkpoint commit, the async hidden fraction of the delta
// path, and an in-process N→M proof — a 4-rank distributed checkpoint
// redecomposed and restored on 1, 2, 3 and 8 ranks.
//
// The timed modes step one step at a time, so each checkpointing mode also
// reports its checkpoint steps on their own: `ckpt_phase_ms`, the median
// over checkpoint steps of the "ckpt" phase's wall time
// (Simulation::last_phase_stats()), and `ckpt_minflt`, the most minor page
// faults the stepping thread takes in one checkpoint step
// (getrusage(RUSAGE_THREAD)): a run's first checkpoint stages its
// snapshot afresh and later ones reuse it, so the median read 0 whether
// or not the staging churned. Unlike the whole-run differences above,
// these leave out the fsync and the steps between checkpoints.
// `stage_alloc` counts how often a timed run's snapshots allocated a
// payload buffer (the "ckpt.stage_alloc" prof counter), and `peak_rss_mb`
// is the largest resident set sampled after each timed step of the mode
// (VmRSS; free heap is trimmed before each mode). The async modes also
// report `post_ckpt_step_ms`, what the commit running behind the step
// after a checkpoint costs it: how much longer the steps right after a
// checkpoint took than the same steps of the run without checkpoints
// ("none", or "slow-none" for "inc-async"), less how much longer the
// steps that neither checkpoint nor follow one took than theirs (the two
// runs' drift). Against the same steps, not the run's other steps,
// because the deck sorts every 10 steps: at --every=10 each checkpoint
// step is a sort step, and the step after a sort pushes faster.
//
//   ./checkpoint --nx=16 --ny=8 --nz=8 --ppc=4 --steps=40 --every=5 --reps=3
//   ./checkpoint --smoke        # CI-sized run, bars recorded but not enforced
//
// Emits BENCH_checkpoint.json (schema vpic-bench-v1) and self-validates it
// with the shared validator before exiting. Full (non-smoke) runs also
// enforce the elastic bars: incremental ratio >= 3x, codec ratio >= 1.5x at
// < 10% encode overhead.
#include <sys/resource.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ckpt/ckpt.hpp"
#include "core/core.hpp"
#include "elastic/elastic.hpp"
#include "minimpi/minimpi.hpp"
#include "prof/prof.hpp"

namespace core = vpic::core;
namespace ckpt = vpic::ckpt;
namespace bench = vpic::bench;
namespace elastic = vpic::elastic;
namespace mpi = vpic::mpi;
namespace fs = std::filesystem;

namespace {

struct Params {
  int nx, ny, nz, ppc, steps, every, full_every, reps;
};

core::Simulation make_sim(const Params& p, bool slow_churn = false) {
  core::decks::LpiParams lpi;
  lpi.nx = p.nx;
  lpi.ny = p.ny;
  lpi.nz = p.nz;
  lpi.ppc = p.ppc;
  lpi.sort_interval = 10;
  if (slow_churn) {
    // Cold plasma at rest, antenna off: between generations almost no
    // section content changes, which is the regime the incremental delta
    // path exists for (docs/ELASTIC.md). The sort is pushed past the run
    // so it never rewrites the (unchanged) particle chunks.
    lpi.uth_e = 0;
    lpi.uth_i = 0;
    lpi.laser_amplitude = 0;
    lpi.sort_interval = 1000000;
  }
  auto sim = core::decks::make_lpi(lpi);
  sim.config().energy_interval = 10;
  return sim;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

enum StepKind { kPlain, kCkpt, kPost };

struct ModeResult {
  bench::Timing timing;
  std::int64_t checkpoints = 0;
  std::uint64_t file_bytes = 0;
  core::ElasticCkptStats stats;  // zeroed unless the mode is incremental
  // Over the timed reps' checkpoint steps (0 without checkpoints): the
  // median phase time and the most faults in one step.
  double ckpt_phase_ms = 0;
  double ckpt_minflt = 0;
  double stage_alloc = 0;        // payload-buffer allocations per timed run
  double peak_rss_mb = 0;        // largest VmRSS after a timed step
  double post_ckpt_step_ms = 0;  // set in main(), from step_ms
  // Per step of a timed run: the median over the timed reps of its wall
  // time, and whether it checkpoints, follows a checkpoint step or neither.
  std::vector<double> step_ms;
  std::vector<StepKind> kind;
};

/// `r`'s post-checkpoint steps against the same steps of `base`, a run of
/// the same deck without checkpoints, less its plain steps against
/// theirs: the median excess of a step that follows a checkpoint.
double post_ckpt_step_ms(const ModeResult& r, const ModeResult& base) {
  std::vector<double> post, post_base, plain, plain_base;
  for (std::size_t i = 0; i < r.step_ms.size() && i < base.step_ms.size();
       ++i) {
    if (r.kind[i] == kPost) {
      post.push_back(r.step_ms[i]);
      post_base.push_back(base.step_ms[i]);
    } else if (r.kind[i] == kPlain) {
      plain.push_back(r.step_ms[i]);
      plain_base.push_back(base.step_ms[i]);
    }
  }
  if (post.empty() || plain.empty()) return 0;
  return (median(post) - median(post_base)) -
         (median(plain) - median(plain_base));
}

/// The process's resident set now, in MB (VmRSS), or 0 if unreadable.
double rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    double kb = 0;
    if (key == "VmRSS:" && in >> kb) return kb / 1024.0;
    in.ignore(1 << 12, '\n');
  }
  return 0;
}

/// Minor page faults the calling thread has taken so far.
double thread_minflt() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<double>(ru.ru_minflt);
}

/// Time `steps` steps under one checkpoint mode: "none", "sync", "async"
/// on the regular deck; "slow-none", "inc", "inc-async" on the slow-churn
/// deck (incremental generations for the latter two). Steps run one at a
/// time; each checkpoint step of a timed rep records its "ckpt" phase
/// time and the stepping thread's minor faults, every timed step its wall
/// time and the resident set after it.
ModeResult run_mode(const Params& p, const std::string& mode) {
  const bool slow = mode == "slow-none" || mode == "inc" ||
                    mode == "inc-async";
  const bool inc = mode == "inc" || mode == "inc-async";
  const bool checkpoints = mode != "none" && mode != "slow-none";
  const fs::path dir =
      fs::temp_directory_path() / ("vpic_ckpt_bench_" + mode);
  ModeResult out;
  std::optional<core::Simulation> sim;
  bool timed = false;
  std::vector<double> phase_ms, minflt;
  std::vector<std::vector<double>> step_ms(static_cast<std::size_t>(p.steps));
  out.kind.assign(static_cast<std::size_t>(p.steps), kPlain);
  std::uint64_t alloc0 = 0;  // ckpt.stage_alloc before the first timed rep
#if defined(__GLIBC__)
  malloc_trim(0);  // a mode's peak is its own, not a freed earlier one's
#endif
  out.timing = bench::time_reps(
      p.reps, /*warmup=*/1,
      [&] {
        for (int i = 0; i < p.steps; ++i) {
          const std::int64_t n = sim->step_count() + 1;
          const bool ckpt_step = checkpoints && n % p.every == 0;
          const bool post_step =
              checkpoints && n > 1 && (n - 1) % p.every == 0;
          const double flt0 = ckpt_step ? thread_minflt() : 0;
          const auto t0 = std::chrono::steady_clock::now();
          sim->step();
          const double ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
          if (!timed) continue;
          out.peak_rss_mb = std::max(out.peak_rss_mb, rss_mb());
          step_ms[static_cast<std::size_t>(i)].push_back(ms);
          out.kind[static_cast<std::size_t>(i)] =
              ckpt_step ? kCkpt : post_step ? kPost : kPlain;
          if (!ckpt_step) continue;
          minflt.push_back(thread_minflt() - flt0);
          for (const core::PhaseStats& ph : sim->last_phase_stats())
            if (ph.name == "ckpt") phase_ms.push_back(ph.seconds * 1e3);
        }
        sim->checkpoint_wait();
      },
      [&](int rep) {
        timed = rep >= 0;
        if (rep == 0) alloc0 = vpic::prof::counter_value("ckpt.stage_alloc");
        fs::remove_all(dir);
        fs::create_directories(dir);
        sim.emplace(make_sim(p, slow));
        if (checkpoints) {
          sim->config().checkpoint_every = p.every;
          sim->config().checkpoint_path = (dir / "ck").string();
          sim->config().checkpoint_async =
              mode == "async" || mode == "inc-async";
          if (inc) {
            sim->config().checkpoint_incremental = true;
            sim->config().checkpoint_full_every = p.full_every;
            sim->config().checkpoint_keep_last = 64;  // keep every chain
          }
        }
      });
  out.checkpoints = sim->checkpoints_written();
  out.stats = sim->elastic_ckpt_stats();
  out.ckpt_phase_ms = median(phase_ms);
  if (!minflt.empty())
    out.ckpt_minflt = *std::max_element(minflt.begin(), minflt.end());
  out.stage_alloc =
      static_cast<double>(vpic::prof::counter_value("ckpt.stage_alloc") -
                          alloc0) /
      std::max(1, p.reps);
  for (std::vector<double>& v : step_ms) out.step_ms.push_back(median(v));
  ckpt::GenerationRing ring((dir / "ck").string(), 3);
  for (std::uint64_t g : ring.generations())
    out.file_bytes = fs::file_size(ring.path_for(g));
  fs::remove_all(dir);
  return out;
}

/// In-process N→M proof: a 4-rank distributed checkpoint restored through
/// the rescale path on 1, 2, 3 and 8 ranks (minimpi ranks are threads).
/// Returns how many target shapes restored with the right step count and
/// globally conserved particle count.
int verify_nm_restart() {
  core::DomainConfig cfg;
  cfg.nx = 4;
  cfg.ny = 4;
  cfg.nz = 24;  // divisible by every tested rank count
  cfg.lx = 4;
  cfg.ly = 4;
  cfg.lz = 24;
  cfg.seed = 7;
  cfg.overlap = false;
  const fs::path dir = fs::temp_directory_path() / "vpic_ckpt_bench_nm";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string ck = (dir / "set").string();
  std::int64_t np4 = 0;
  mpi::run(4, [&](mpi::Comm& comm) {
    core::DistributedSimulation sim(cfg, comm);
    sim.add_species("e", -1.0f, 1.0f, 8000);
    sim.load_uniform_plasma(0, 2, 0.2f, 0.0f, 0.0f, 0.1f);
    sim.run(4);
    sim.checkpoint(ck);
    const std::int64_t np = sim.global_np(0);
    if (comm.rank() == 0) np4 = np;
  });
  int verified = 0;
  for (const int m : {1, 2, 3, 8}) {
    std::int64_t good = 0;
    try {
      mpi::run(m, [&](mpi::Comm& comm) {
        core::DistributedSimulation sim(cfg, comm);
        sim.add_species("e", -1.0f, 1.0f, 8000);
        sim.restore_rescaled(ck);
        const std::int64_t np = sim.global_np(0);
        if (comm.rank() == 0 && sim.step_count() == 4 && np == np4)
          good = 1;
      });
    } catch (...) {
      good = 0;
    }
    verified += static_cast<int>(good);
  }
  fs::remove_all(dir);
  return verified;
}

}  // namespace

int main(int argc, char** argv) {
  Params p;
  p.nx = static_cast<int>(bench::flag(argc, argv, "nx", 16));
  p.ny = static_cast<int>(bench::flag(argc, argv, "ny", 8));
  p.nz = static_cast<int>(bench::flag(argc, argv, "nz", 8));
  p.ppc = static_cast<int>(bench::flag(argc, argv, "ppc", 4));
  p.steps = static_cast<int>(bench::flag(argc, argv, "steps", 40));
  p.every = static_cast<int>(bench::flag(argc, argv, "every", 5));
  p.full_every = static_cast<int>(bench::flag(argc, argv, "full_every", 4));
  p.reps = static_cast<int>(bench::flag(argc, argv, "reps", 3));
  const bool smoke = bench::has_flag(argc, argv, "smoke");
  if (smoke) {
    p.steps = std::min(p.steps, 20);
    p.reps = 1;
  }

  std::printf(
      "checkpoint bench: %dx%dx%d ppc=%d, %d steps, checkpoint every %d "
      "(full every %d), %d reps%s\n\n",
      p.nx, p.ny, p.nz, p.ppc, p.steps, p.every, p.full_every, p.reps,
      smoke ? " [smoke]" : "");

  const ModeResult none = run_mode(p, "none");
  const ModeResult sync = run_mode(p, "sync");
  ModeResult async_ = run_mode(p, "async");
  const ModeResult slow_none = run_mode(p, "slow-none");
  const ModeResult inc = run_mode(p, "inc");
  ModeResult inc_async = run_mode(p, "inc-async");
  async_.post_ckpt_step_ms = post_ckpt_step_ms(async_, none);
  inc_async.post_ckpt_step_ms = post_ckpt_step_ms(inc_async, slow_none);

  bench::Table t({"mode", "total ms", "ms/step", "ckpts", "file KiB",
                  "ckpt phase ms", "ckpt minflt", "stage allocs",
                  "peak RSS MB", "post-ckpt ms"});
  const auto row = [&](const char* mode, const ModeResult& r) {
    t.row({mode, bench::fmt("%.3f", r.timing.min_s * 1e3),
           bench::fmt("%.4f", r.timing.min_s * 1e3 / p.steps),
           std::to_string(r.checkpoints),
           bench::fmt("%.1f", static_cast<double>(r.file_bytes) / 1024.0),
           bench::fmt("%.3f", r.ckpt_phase_ms),
           bench::fmt("%.0f", r.ckpt_minflt),
           bench::fmt("%.0f", r.stage_alloc),
           bench::fmt("%.1f", r.peak_rss_mb),
           bench::fmt("%.3f", r.post_ckpt_step_ms)});
    auto j = vpic::bench::Json("checkpoint");
    j.field("mode", mode)
        .field("steps", p.steps)
        .field("every", p.every)
        .field("checkpoints", r.checkpoints)
        .field("file_bytes", static_cast<std::int64_t>(r.file_bytes))
        .field("peak_rss_mb", r.peak_rss_mb);
    if (r.checkpoints > 0)
      j.field("ckpt_phase_ms", r.ckpt_phase_ms)
          .field("ckpt_minflt", r.ckpt_minflt)
          .field("stage_alloc", r.stage_alloc);
    if (std::string(mode) == "async" || std::string(mode) == "inc-async")
      j.field("post_ckpt_step_ms", r.post_ckpt_step_ms);
    if (r.stats.full_generations + r.stats.delta_generations > 0) {
      j.field("full_generations", r.stats.full_generations)
          .field("delta_generations", r.stats.delta_generations)
          .field("full_file_bytes",
                 static_cast<std::int64_t>(r.stats.full_file_bytes))
          .field("delta_file_bytes",
                 static_cast<std::int64_t>(r.stats.delta_file_bytes))
          .field("logical_bytes",
                 static_cast<std::int64_t>(r.stats.logical_bytes))
          .field("stored_bytes",
                 static_cast<std::int64_t>(r.stats.stored_bytes));
    }
    j.timing("total", r.timing).print();
  };
  row("none", none);
  row("sync", sync);
  row("async", async_);
  row("slow-none", slow_none);
  row("inc", inc);
  row("inc-async", inc_async);
  t.print();

  const double nckpt = static_cast<double>(std::max<std::int64_t>(
      1, sync.checkpoints));
  const double sync_per_ckpt_ms =
      (sync.timing.min_s - none.timing.min_s) * 1e3 / nckpt;
  const double async_per_ckpt_ms =
      (async_.timing.min_s - none.timing.min_s) * 1e3 / nckpt;
  // Fraction of the sync snapshot cost the background writer hides; can
  // be noisy-negative on loaded machines, which is still informative.
  const double hidden =
      sync_per_ckpt_ms > 0 ? 1.0 - async_per_ckpt_ms / sync_per_ckpt_ms : 0;
  std::printf("\nper-checkpoint overhead: sync %.3f ms, async %.3f ms "
              "(%.0f%% hidden)\n",
              sync_per_ckpt_ms, async_per_ckpt_ms, hidden * 100.0);

  // Incremental ratio: how much smaller an average delta generation file
  // is than an average full generation file over the slow-churn run.
  const auto& st = inc.stats;
  double incremental_ratio = 0;
  if (st.full_generations > 0 && st.delta_generations > 0 &&
      st.delta_file_bytes > 0) {
    incremental_ratio =
        (static_cast<double>(st.full_file_bytes) / st.full_generations) /
        (static_cast<double>(st.delta_file_bytes) / st.delta_generations);
  }

  // Async hidden fraction of the delta path, over the slow-churn baseline.
  const double n_inc = static_cast<double>(std::max<std::int64_t>(
      1, inc.checkpoints));
  const double inc_per_ckpt_ms =
      (inc.timing.min_s - slow_none.timing.min_s) * 1e3 / n_inc;
  const double inc_async_per_ckpt_ms =
      (inc_async.timing.min_s - slow_none.timing.min_s) * 1e3 / n_inc;
  const double hidden_delta =
      inc_per_ckpt_ms > 0 ? 1.0 - inc_async_per_ckpt_ms / inc_per_ckpt_ms : 0;

  // DeltaPack particle-payload compression, measured directly: encode the
  // slow-churn electron payload and time it against a full synchronous
  // checkpoint commit of the same state.
  auto codec_sim = make_sim(p, /*slow_churn=*/true);
  codec_sim.run(p.steps);
  const auto& sp = codec_sim.species(0);
  const std::vector<core::Particle> parts(sp.p.data(), sp.p.data() + sp.np);
  const auto* raw = reinterpret_cast<const std::byte*>(parts.data());
  const std::size_t raw_bytes = parts.size() * sizeof(core::Particle);
  // Into one buffer sized once, as a chain snapshot encodes into its
  // staged payloads.
  std::vector<std::byte> pack(
      elastic::deltapack_bound(raw_bytes, sizeof(core::Particle)));
  std::size_t packed = 0;
  const auto enc = bench::time_reps(p.reps, 1, [&] {
    packed = elastic::deltapack_encode(raw, raw_bytes, sizeof(core::Particle),
                                       pack.data(), pack.size());
  });
  const double codec_ratio =
      packed == 0 ? 1.0
                  : static_cast<double>(raw_bytes) /
                        static_cast<double>(packed);
  const fs::path cdir = fs::temp_directory_path() / "vpic_ckpt_bench_codec";
  fs::remove_all(cdir);
  fs::create_directories(cdir);
  const auto full_commit = bench::time_reps(p.reps, 1, [&] {
    codec_sim.checkpoint((cdir / "full.ckpt").string());
  });
  fs::remove_all(cdir);
  const double codec_overhead_frac =
      full_commit.min_s > 0 ? enc.min_s / full_commit.min_s : 0;

  const int nm_ranks_verified = verify_nm_restart();

  std::printf("elastic: incremental ratio %.1fx, codec %.2fx at %.1f%% "
              "encode overhead, delta hidden %.0f%%, N->M shapes verified "
              "%d/4\n",
              incremental_ratio, codec_ratio, codec_overhead_frac * 100.0,
              hidden_delta * 100.0, nm_ranks_verified);

  vpic::bench::Json("checkpoint")
      .field("mode", "summary")
      .field("sync_ckpt_ms", sync_per_ckpt_ms)
      .field("async_ckpt_ms", async_per_ckpt_ms)
      .field("hidden_frac", hidden)
      .field("inc_ckpt_ms", inc_per_ckpt_ms)
      .field("inc_async_ckpt_ms", inc_async_per_ckpt_ms)
      .field("hidden_frac_delta", hidden_delta)
      .field("incremental_ratio", incremental_ratio)
      .field("codec_ratio", codec_ratio)
      .field("codec_overhead_frac", codec_overhead_frac)
      .field("nm_ranks_verified", nm_ranks_verified)
      .print();

  const std::string report = bench::emit_bench_json("checkpoint");
  std::string err;
  if (report.empty() || !bench::validate_bench_report(report, &err)) {
    std::fprintf(stderr, "checkpoint: bench report invalid: %s\n",
                 err.c_str());
    return 1;
  }
  std::printf("report: %s\n", report.c_str());

  // The N→M proof is cheap and deterministic: enforce it even on smoke
  // runs. The size/timing bars are full-run only — the smoke deck is too
  // small for stable ratios; the checked-in baseline records them.
  if (nm_ranks_verified != 4) {
    std::fprintf(stderr, "checkpoint: N->M restart verified on %d/4 rank "
                         "shapes\n",
                 nm_ranks_verified);
    return 1;
  }
  if (!smoke) {
    if (incremental_ratio < 3.0) {
      std::fprintf(stderr, "checkpoint: incremental ratio %.2fx below the "
                           "3x bar\n",
                   incremental_ratio);
      return 1;
    }
    if (codec_ratio < 1.5 || codec_overhead_frac >= 0.10) {
      std::fprintf(stderr, "checkpoint: codec %.2fx at %.1f%% overhead "
                           "misses the 1.5x/<10%% bar\n",
                   codec_ratio, codec_overhead_frac * 100.0);
      return 1;
    }
  }
  return 0;
}
