// bench/tile_balance.cpp — tile-level work stealing vs static domain
// decomposition on a deliberately clumped deck (docs/TILES.md).
//
// The LPI deck's clump_factor concentrates particles (and therefore push
// cost) in the z-center cells while leaving the physical charge density
// uniform, so a static contiguous-tile partition hands one worker most of
// the work. Three measurements:
//
//  1. Bit-determinism self-check: the tiled step must produce identical
//     fields, particles and energy series at 1 and 4 stealing workers on
//     the clumped deck — the bench exits nonzero on any divergence, like
//     step_overlap's physics check.
//  2. Modeled makespans: per-tile task costs are *measured* serially
//     (one worker times each per-tile push phase alone), then replayed
//     deterministically through the two placement policies — a static
//     contiguous tile partition vs the pool round's LPT/greedy
//     placement — at several virtual worker counts. This is the repo's
//     modeled-metric idiom (cf. ext_batch_throughput): the schedule
//     quality is host-independent and reproducible on a 1-core CI box,
//     where real thread timings would measure the kernel scheduler, not
//     the balancer. The headline is speedup at 4 workers.
//  3. Measured speedups and real pool telemetry: the same deck runs
//     through the tiled step at 1, 2 and 4 workers. measured_speedup_2w
//     and measured_speedup_4w are the 1-worker wall ms/step over the 2-
//     and 4-worker ones; the 4-worker run records the steal/idle
//     counters and wall_ms_per_step.
//
//   ./tile_balance --nx=16 --ny=8 --nz=32 --ppc=8 --clump=8 --tiles=16
//   ./tile_balance --smoke          # CI-sized, no speedup threshold
//
// Emits BENCH_tile_balance.json (schema vpic-bench-v1) and self-validates
// it. Outside --smoke the bench exits nonzero if the 4-worker modeled
// speedup drops below 1.5x (the acceptance bar for the stealing balancer).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/core.hpp"
#include "core/decks.hpp"
#include "core/simulation.hpp"
#include "core/tiles.hpp"
#include "pk/pk.hpp"

namespace bench = vpic::bench;
namespace core = vpic::core;
namespace pk = vpic::pk;

namespace {

struct Params {
  int nx, ny, nz, ppc, tiles, steps, reps;
  float clump;
};

core::Simulation make_clumped(const Params& p) {
  core::decks::LpiParams lp;
  lp.nx = p.nx;
  lp.ny = p.ny;
  lp.nz = p.nz;
  lp.ppc = p.ppc;
  lp.clump_factor = p.clump;
  return core::decks::make_lpi(lp);
}

/// Fields + particles + energy series must match bit for bit between two
/// tiled runs at different worker counts.
bool bitwise_equal(core::Simulation& a, core::Simulation& b) {
  const auto& fa = a.fields();
  const auto& fb = b.fields();
  const pk::View<float, 1>* va[] = {&fa.ex, &fa.ey, &fa.ez, &fa.bx, &fa.by,
                                    &fa.bz, &fa.jx, &fa.jy, &fa.jz};
  const pk::View<float, 1>* vb[] = {&fb.ex, &fb.ey, &fb.ez, &fb.bx, &fb.by,
                                    &fb.bz, &fb.jx, &fb.jy, &fb.jz};
  for (int c = 0; c < 9; ++c)
    for (pk::index_t i = 0; i < va[c]->size(); ++i)
      if ((*va[c])(i) != (*vb[c])(i)) return false;
  if (a.num_species() != b.num_species()) return false;
  for (std::size_t s = 0; s < a.num_species(); ++s) {
    const auto& sa = a.species(s);
    const auto& sb = b.species(s);
    if (sa.np != sb.np) return false;
    for (core::index_t i = 0; i < sa.np; ++i) {
      const auto pa = sa.p(i);
      const auto pb = sb.p(i);
      if (pa.dx != pb.dx || pa.dy != pb.dy || pa.dz != pb.dz ||
          pa.i != pb.i || pa.ux != pb.ux || pa.uy != pb.uy ||
          pa.uz != pb.uz || pa.w != pb.w)
        return false;
    }
  }
  const auto& ha = a.energy_history();
  const auto& hb = b.energy_history();
  if (ha.size() != hb.size()) return false;
  for (std::size_t i = 0; i < ha.size(); ++i)
    if (ha.step(i) != hb.step(i) || ha.field(i) != hb.field(i) ||
        ha.kinetic(i) != hb.kinetic(i))
      return false;
  return true;
}

/// Measured per-tile costs: run the tiled step at one worker (which times
/// every phase serially) and take, per tile, the min-across-steps of the
/// per-step sum of that tile's push phases — min-of-reps is the repo's
/// standard denoiser.
std::vector<double> measure_tile_costs(core::Simulation& sim, int nt,
                                       int steps) {
  std::vector<double> best(static_cast<std::size_t>(nt), 0.0);
  std::vector<double> cur(static_cast<std::size_t>(nt), 0.0);
  for (int s = 0; s < steps; ++s) {
    sim.step();
    std::fill(cur.begin(), cur.end(), 0.0);
    for (const auto& ps : sim.last_phase_stats()) {
      if (ps.name.rfind("push[", 0) != 0) continue;
      const auto dot = ps.name.rfind(".t");
      if (dot == std::string::npos) continue;
      const int t = std::atoi(ps.name.c_str() + dot + 2);
      if (t >= 0 && t < nt) cur[static_cast<std::size_t>(t)] += ps.seconds;
    }
    for (int t = 0; t < nt; ++t)
      if (s == 0 || cur[static_cast<std::size_t>(t)] <
                        best[static_cast<std::size_t>(t)])
        best[static_cast<std::size_t>(t)] = cur[static_cast<std::size_t>(t)];
  }
  return best;
}

/// Static baseline: contiguous tile blocks per worker (the classic static
/// domain decomposition — worker w owns tiles [w*nt/W, (w+1)*nt/W)).
double static_makespan(const std::vector<double>& cost, int workers) {
  const int nt = static_cast<int>(cost.size());
  double worst = 0;
  for (int w = 0; w < workers; ++w) {
    const int lo = w * nt / workers;
    const int hi = (w + 1) * nt / workers;
    double sum = 0;
    for (int t = lo; t < hi; ++t) sum += cost[static_cast<std::size_t>(t)];
    worst = std::max(worst, sum);
  }
  return worst;
}

/// Stealing-schedule model: the executor LPT-seeds ready tasks onto the
/// least-loaded deque and steal-half rebalances the residual, so the
/// achieved schedule tracks greedy list scheduling (largest task first to
/// the least-loaded worker) — replayed here deterministically.
double stealing_makespan(const std::vector<double>& cost, int workers) {
  std::vector<std::size_t> order(cost.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&cost](std::size_t a, std::size_t b) {
    if (cost[a] != cost[b]) return cost[a] > cost[b];
    return a < b;
  });
  std::vector<double> load(static_cast<std::size_t>(workers), 0.0);
  for (const std::size_t t : order) {
    auto it = std::min_element(load.begin(), load.end());
    *it += cost[t];
  }
  return *std::max_element(load.begin(), load.end());
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::has_flag(argc, argv, "smoke");
  Params p;
  p.nx = static_cast<int>(bench::flag(argc, argv, "nx", smoke ? 8 : 16));
  p.ny = static_cast<int>(bench::flag(argc, argv, "ny", smoke ? 4 : 8));
  p.nz = static_cast<int>(bench::flag(argc, argv, "nz", smoke ? 16 : 32));
  p.ppc = static_cast<int>(bench::flag(argc, argv, "ppc", smoke ? 2 : 8));
  p.tiles = static_cast<int>(bench::flag(argc, argv, "tiles", smoke ? 8 : 16));
  p.steps = static_cast<int>(bench::flag(argc, argv, "steps", smoke ? 4 : 10));
  p.reps = static_cast<int>(bench::flag(argc, argv, "reps", 1));
  p.clump = static_cast<float>(bench::flag(argc, argv, "clump", 8));
  pk::initialize(
      static_cast<int>(bench::flag(argc, argv, "kernel_threads", 1)));

  std::printf(
      "tile balance bench: %dx%dx%d ppc=%d clump=%.1f tiles=%d%s\n\n",
      p.nx, p.ny, p.nz, p.ppc, static_cast<double>(p.clump), p.tiles,
      smoke ? " (smoke)" : "");

  // -- 1. bit-determinism self-check (1 vs 4 stealing workers) ----------
  {
    Params small = p;
    small.nx = std::min(p.nx, 12);
    small.nz = std::min(p.nz, 8);
    small.ppc = std::min(p.ppc, 4);
    core::Simulation w1 = make_clumped(small);
    core::Simulation w4 = make_clumped(small);
    for (auto* s : {&w1, &w4}) {
      s->config().tiles.enabled = true;
      s->config().tiles.count = std::min(small.nz, 4);
    }
    w1.config().tiles.workers = 1;
    w4.config().tiles.workers = 4;
    const int check_steps = smoke ? 25 : 50;  // crosses the sort interval
    w1.run(check_steps);
    w4.run(check_steps);
    if (!bitwise_equal(w1, w4)) {
      std::fprintf(stderr,
                   "tile_balance: tiled step diverged between 1 and 4 "
                   "workers — bit-determinism broken\n");
      return 1;
    }
    std::printf(
        "bit-determinism check: 1 == 4 stealing workers over %d steps OK\n\n",
        check_steps);
  }

  // -- 2. measured per-tile costs, modeled schedules --------------------
  core::Simulation sim = make_clumped(p);
  sim.config().tiles.enabled = true;
  sim.config().tiles.count = p.tiles;
  sim.config().tiles.workers = 1;  // phases run one at a time
  sim.run(2);  // warmup: first touch, bucketing
  const int nt = sim.tile_map().count();
  const std::vector<double> cost = measure_tile_costs(sim, nt, p.steps);
  const double total = std::accumulate(cost.begin(), cost.end(), 0.0);
  const double imbalance = sim.last_tile_stats().imbalance;

  bench::Table t(
      {"workers", "static ms", "stealing ms", "speedup", "ideal ms"});
  double speedup_4w = 0;
  for (const int w : {2, 4, 8}) {
    const double st = static_makespan(cost, w);
    const double sl = stealing_makespan(cost, w);
    const double speedup = sl > 0 ? st / sl : 0;
    if (w == 4) speedup_4w = speedup;
    t.row({std::to_string(w), bench::fmt("%.3f", st * 1e3),
           bench::fmt("%.3f", sl * 1e3), bench::fmt("%.2fx", speedup),
           bench::fmt("%.3f", total / w * 1e3)});
    bench::Json("tile_balance")
        .field("workers", w)
        .field("tiles", nt)
        .field("static_ms", st * 1e3)
        .field("stealing_ms", sl * 1e3)
        .field("speedup", speedup)
        .field("ideal_ms", total / w * 1e3)
        .print();
  }
  t.print();
  std::printf("\nmeasured tile imbalance (max/mean): %.2f\n", imbalance);

  // -- 3. real stealing rounds end-to-end, at 1, 2 and 4 workers -------
  const auto wall_ms_per_step = [&p](int workers, pk::StealStats* steal) {
    core::Simulation s = make_clumped(p);
    s.config().tiles.enabled = true;
    s.config().tiles.count = p.tiles;
    s.config().tiles.workers = workers;
    const auto t0 = std::chrono::steady_clock::now();
    s.run(p.steps);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (steal) *steal = s.last_tile_stats().steal;
    return wall * 1e3 / p.steps;
  };
  const double ms_1w = wall_ms_per_step(1, nullptr);
  const double ms_2w = wall_ms_per_step(2, nullptr);
  pk::StealStats ss;
  const double ms_4w = wall_ms_per_step(4, &ss);
  std::printf(
      "real stealing run (4 workers, %d steps): %.1f ms/step, "
      "%llu tasks, %llu steals moved %llu tasks, idle %llu us\n",
      p.steps, ms_4w, static_cast<unsigned long long>(ss.tasks_run),
      static_cast<unsigned long long>(ss.steal_hits),
      static_cast<unsigned long long>(ss.tasks_stolen),
      static_cast<unsigned long long>(ss.idle_us));
  std::printf(
      "measured: %.1f ms/step at 1 worker, %.1f at 2 (%.2fx), %.1f at 4 "
      "(%.2fx)\n",
      ms_1w, ms_2w, ms_1w / ms_2w, ms_4w, ms_1w / ms_4w);

  bench::Json("tile_balance")
      .field("summary", 1)
      .field("tiles", nt)
      .field("clump_factor", static_cast<double>(p.clump))
      .field("imbalance", imbalance)
      .field("speedup_4w", speedup_4w)
      .field("measured_speedup_2w", ms_1w / ms_2w)
      .field("measured_speedup_4w", ms_1w / ms_4w)
      .field("bit_identical", 1)
      .field("steal_tasks_run", static_cast<double>(ss.tasks_run))
      .field("steal_tasks_stolen", static_cast<double>(ss.tasks_stolen))
      .field("steal_idle_us", static_cast<double>(ss.idle_us))
      .field("wall_ms_per_step", ms_4w)
      .print();

  const std::string path = bench::emit_bench_json("tile_balance");
  std::string err;
  if (path.empty() || !bench::validate_bench_report(path, &err)) {
    std::fprintf(stderr, "bench report validation failed: %s\n", err.c_str());
    return 1;
  }
  std::printf("\nwrote %s (schema vpic-bench-v1, validated)\n", path.c_str());

  if (!smoke && speedup_4w < 1.5) {
    std::fprintf(stderr,
                 "tile_balance: 4-worker stealing speedup %.2fx is below the "
                 "1.5x acceptance bar\n",
                 speedup_4w);
    return 1;
  }
  return 0;
}
