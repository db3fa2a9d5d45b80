// push_pipeline — the sort→push synergy microbench (docs/PUSH.md): on a
// cell-sorted (Standard-order) LPI particle distribution, time each
// vectorization strategy's generic per-particle push against its
// run-aware variant (hoisted interpolator gathers + per-run batched
// current deposits). Emits one JSON record per strategy; BenchReport
// writes the aggregate BENCH_push_pipeline.json (schema vpic-bench-v1),
// which the CI perf-smoke step validates.
//
// Flags: --nx/--ny/--nz/--ppc (deck size), --reps, --min-speedup=<x100>
// (exit non-zero unless every strategy's run-aware speedup is at least
// value/100 — used for local acceptance runs, not CI smoke).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/core.hpp"
#include "sort/runs.hpp"

namespace {

namespace core = vpic::core;
namespace bench = vpic::bench;
namespace pk = vpic::pk;
using pk::index_t;

/// Each species' live particle records.
using Snapshot = std::vector<std::vector<core::Particle>>;

Snapshot take_snapshot(core::Simulation& sim) {
  Snapshot s;
  for (std::size_t i = 0; i < sim.num_species(); ++i) {
    const auto& sp = sim.species(i);
    s.emplace_back(sp.p.data(), sp.p.data() + sp.np);
  }
  return s;
}

void restore_snapshot(core::Simulation& sim, const Snapshot& s) {
  for (std::size_t i = 0; i < sim.num_species(); ++i) {
    auto& sp = sim.species(i);
    std::copy(s[i].begin(), s[i].end(), sp.p.data());
    sp.np = static_cast<index_t>(s[i].size());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int nx = static_cast<int>(bench::flag(argc, argv, "nx", 48));
  const int ny = static_cast<int>(bench::flag(argc, argv, "ny", 24));
  const int nz = static_cast<int>(bench::flag(argc, argv, "nz", 24));
  const int ppc = static_cast<int>(bench::flag(argc, argv, "ppc", 16));
  const int reps = static_cast<int>(bench::flag(argc, argv, "reps", 5));
  const double min_speedup =
      static_cast<double>(bench::flag(argc, argv, "min-speedup", 0)) / 100.0;

  std::printf(
      "== push_pipeline: generic vs run-aware push on cell-sorted input "
      "==\nLPI deck %dx%dx%d, ppc %d, %d reps\n\n",
      nx, ny, nz, ppc, reps);

  bench::Table t({"strategy", "particles", "runs", "mean run",
                  "generic (ms)", "run-aware (ms)", "speedup"});
  bool ok = true;

  for (const auto strat :
       {core::VectorStrategy::Auto, core::VectorStrategy::Guided,
        core::VectorStrategy::Manual}) {
    core::decks::LpiParams p;
    p.nx = nx;
    p.ny = ny;
    p.nz = nz;
    p.ppc = ppc;
    p.strategy = strat;
    p.sort_interval = 0;  // we sort explicitly below
    auto sim = core::decks::make_lpi(p);
    sim.run(2);  // realistic fields + phase-mixed distribution

    // Cell-sort every species (Standard order) and verify with the
    // order_checks oracle — the fast path's claimed precondition.
    index_t total_np = 0, total_runs = 0;
    for (std::size_t s = 0; s < sim.num_species(); ++s) {
      auto& sp = sim.species(s);
      core::sort_particles(sp, vpic::sort::SortOrder::Standard, 0, 1,
                           sim.grid().nv());
      const auto keys = sp.cell_keys();
      if (!vpic::sort::cell_sorted_exact(keys)) {
        std::fprintf(stderr, "input not cell-sorted after Standard sort\n");
        return 1;
      }
      std::vector<vpic::sort::CellRun> runs;
      const auto& pp = sp.p;
      vpic::sort::segment_runs(
          sp.np, [&pp](index_t i) { return pp.cell(i); }, runs);
      total_np += sp.np;
      total_runs += static_cast<index_t>(runs.size());
    }

    sim.interpolator().load(sim.fields());
    const Snapshot snap = take_snapshot(sim);
    auto& interp = sim.interpolator();
    auto& acc = sim.accumulator();

    auto time_path = [&](core::PushPath path) {
      return bench::time_reps(
          reps, 1,
          [&] {
            // The push alone: push_on plus the hint's aging, without
            // advance_species' re-sort.
            for (std::size_t s = 0; s < sim.num_species(); ++s) {
              auto& sp = sim.species(s);
              core::push_on<pk::DefaultExecSpace>(sp, interp, acc,
                                                  sim.grid(), strat, {}, path,
                                                  0, sp.np);
              sp.mark_order_degraded();
            }
          },
          [&](int) {
            restore_snapshot(sim, snap);
            acc.clear();
          });
    };

    const bench::Timing tg = time_path(core::PushPath::Generic);
    const bench::Timing tr = time_path(core::PushPath::RunAware);
    const double speedup = tg.min_s / tr.min_s;
    const double mean_run = static_cast<double>(total_np) /
                            static_cast<double>(total_runs);
    if (min_speedup > 0 && speedup < min_speedup) ok = false;

    t.row({core::to_string(strat), std::to_string(total_np),
           std::to_string(total_runs), bench::fmt("%.1f", mean_run),
           bench::fmt("%.3f", tg.min_s * 1e3),
           bench::fmt("%.3f", tr.min_s * 1e3),
           bench::fmt("%.2fx", speedup)});

    bench::Json j("push_pipeline");
    j.field("strategy", core::to_string(strat))
        .field("order", "standard")
        .field("particles", static_cast<std::int64_t>(total_np))
        .field("runs", static_cast<std::int64_t>(total_runs))
        .field("mean_run", mean_run)
        .timing("generic", tg)
        .timing("run_aware", tr)
        .field("speedup", speedup);
    j.print();
  }

  std::printf("\n");
  t.print();
  const std::string path = bench::emit_bench_json("push_pipeline");
  if (!path.empty()) std::printf("\nwrote %s\n", path.c_str());
  if (min_speedup > 0 && !ok) {
    std::fprintf(stderr, "FAIL: speedup below %.2fx\n", min_speedup);
    return 1;
  }
  return 0;
}
