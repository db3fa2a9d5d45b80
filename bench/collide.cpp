// bench/collide.cpp — Takizuka–Abe collision phase cost and tile-level
// balance on a clumped deck (docs/MODULES.md).
//
// The CollisionModule pairs particles per cell, so its cost concentrates
// wherever particles do: the LPI deck's clump_factor hands a static
// contiguous-tile partition one worker with most of the collision work.
// Three measurements, mirroring bench/tile_balance.cpp:
//
//  1. Bit-determinism self-check: the collision-enabled tiled step
//     must produce identical particle bytes and field energy at 1 and 4
//     workers (voxel-keyed RNG streams make the scatter sequence a pure
//     function of the step, not the schedule). Exits nonzero on any
//     divergence.
//  2. Collision phase cost: an untiled run times every phase; the
//     summed collide[...] seconds give the absolute cost per step and
//     the fraction of the whole step the collision operator adds.
//  3. Modeled makespans: per-tile collide task costs are *measured*
//     serially (a one-worker pool times each phase alone), then
//     replayed through a static contiguous-tile partition vs the
//     stealing executor's LPT/greedy placement at several virtual
//     worker counts — the repo's modeled-metric idiom, host-independent
//     and stable on a 1-core CI box. The headline is speedup at 4
//     workers.
//
//   ./collide --nx=16 --ny=8 --nz=32 --ppc=8 --clump=8 --tiles=16
//   ./collide --smoke          # CI-sized, no speedup threshold
//
// Emits BENCH_collide.json (schema vpic-bench-v1) and self-validates it.
// Outside --smoke the bench exits nonzero if the 4-worker modeled
// speedup drops below 1.3x (the acceptance bar for collision tiling).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/collide.hpp"
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
  int nx, ny, nz, ppc, tiles, steps;
  float clump;
  double nu0;
};

core::Simulation make_colliding(const Params& p) {
  core::decks::LpiParams lp;
  lp.nx = p.nx;
  lp.ny = p.ny;
  lp.nz = p.nz;
  lp.ppc = p.ppc;
  lp.clump_factor = p.clump;
  auto sim = core::decks::make_lpi(lp);
  core::CollisionParams cp;
  cp.nu0 = p.nu0;
  sim.add_module<core::CollisionModule>(cp);
  return sim;
}

/// Particle bytes + field energy must match exactly across worker counts.
bool bitwise_equal(core::Simulation& a, core::Simulation& b) {
  if (a.energies().field != b.energies().field) return false;
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
  return true;
}

/// Measured per-tile collision costs: a one-worker pool times every
/// phase serially; take, per tile, the min-across-steps of the
/// per-step sum of that tile's collide phases (min-of-reps denoiser).
std::vector<double> measure_collide_costs(core::Simulation& sim, int nt,
                                          int steps) {
  std::vector<double> best(static_cast<std::size_t>(nt), 0.0);
  std::vector<double> cur(static_cast<std::size_t>(nt), 0.0);
  for (int s = 0; s < steps; ++s) {
    sim.step();
    std::fill(cur.begin(), cur.end(), 0.0);
    for (const auto& ps : sim.last_phase_stats()) {
      if (ps.name.rfind("collide[", 0) != 0) continue;
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

/// Static baseline: worker w owns tiles [w*nt/W, (w+1)*nt/W).
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

/// Greedy list schedule (largest task first to the least-loaded worker):
/// what the stealing executor's LPT seeding + steal-half tracks.
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
  p.clump = static_cast<float>(bench::flag(argc, argv, "clump", 8));
  // bench::flag is integer-only; the collision frequency comes in milli
  // units (--nu0_milli=50 -> nu0 = 0.05).
  p.nu0 = static_cast<double>(bench::flag(argc, argv, "nu0_milli", 50)) / 1e3;
  pk::initialize(
      static_cast<int>(bench::flag(argc, argv, "kernel_threads", 1)));

  std::printf(
      "collision bench: %dx%dx%d ppc=%d clump=%.1f tiles=%d nu0=%.2g%s\n\n",
      p.nx, p.ny, p.nz, p.ppc, static_cast<double>(p.clump), p.tiles, p.nu0,
      smoke ? " (smoke)" : "");

  // -- 1. bit-determinism self-check (1 vs 4 stealing workers) ----------
  {
    Params small = p;
    small.nx = std::min(p.nx, 12);
    small.nz = std::min(p.nz, 8);
    small.ppc = std::min(p.ppc, 4);
    core::Simulation w1 = make_colliding(small);
    core::Simulation w4 = make_colliding(small);
    for (auto* s : {&w1, &w4}) {
      s->config().tiles.enabled = true;
      s->config().tiles.count = 4;
    }
    w1.config().tiles.workers = 1;
    w4.config().tiles.workers = 4;
    const int check_steps = smoke ? 15 : 30;  // crosses the sort interval
    w1.run(check_steps);
    w4.run(check_steps);
    if (!bitwise_equal(w1, w4)) {
      std::fprintf(stderr,
                   "collide: tiled step diverged between 1 and 4 workers "
                   "— collision bit-determinism broken\n");
      return 1;
    }
    std::printf(
        "bit-determinism check: 1 == 4 stealing workers over %d steps OK\n\n",
        check_steps);
  }

  // -- 2. collision phase cost (untiled, every phase timed) -------------
  double collide_s = 0, total_s = 0;
  std::uint64_t pairs = 0;
  {
    core::Simulation sim = make_colliding(p);
    auto* col =
        static_cast<core::CollisionModule*>(sim.find_module("collide"));
    sim.run(2);  // warmup
    const std::uint64_t pairs0 = col->pairs_scattered();
    for (int s = 0; s < p.steps; ++s) {
      sim.step();
      for (const auto& ps : sim.last_phase_stats()) {
        total_s += ps.seconds;
        if (ps.name.rfind("collide[", 0) == 0) collide_s += ps.seconds;
      }
    }
    pairs = (col->pairs_scattered() - pairs0) /
            static_cast<std::uint64_t>(p.steps);
  }
  const double collide_ms = collide_s * 1e3 / p.steps;
  const double frac = total_s > 0 ? collide_s / total_s : 0;
  std::printf(
      "collision phase: %.3f ms/step, %.1f%% of the step, %llu pairs/step\n\n",
      collide_ms, 100 * frac, static_cast<unsigned long long>(pairs));

  // -- 3. measured per-tile collide costs, modeled schedules ------------
  core::Simulation sim = make_colliding(p);
  sim.config().tiles.enabled = true;
  sim.config().tiles.count = p.tiles;
  sim.config().tiles.workers = 1;  // phases run one at a time
  sim.run(2);  // warmup: first touch, bucketing
  const int nt = sim.tile_map().count();
  const std::vector<double> cost = measure_collide_costs(sim, nt, p.steps);
  const double total = std::accumulate(cost.begin(), cost.end(), 0.0);

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
    bench::Json("collide")
        .field("workers", w)
        .field("tiles", nt)
        .field("static_ms", st * 1e3)
        .field("stealing_ms", sl * 1e3)
        .field("speedup", speedup)
        .field("ideal_ms", total / w * 1e3)
        .print();
  }
  t.print();

  bench::Json("collide")
      .field("summary", 1)
      .field("tiles", nt)
      .field("clump_factor", static_cast<double>(p.clump))
      .field("collide_ms_per_step", collide_ms)
      .field("collide_frac", frac)
      .field("pairs_per_step", static_cast<double>(pairs))
      .field("speedup_4w", speedup_4w)
      .field("bit_identical", 1)
      .print();

  const std::string path = bench::emit_bench_json("collide");
  std::string err;
  if (path.empty() || !bench::validate_bench_report(path, &err)) {
    std::fprintf(stderr, "bench report validation failed: %s\n", err.c_str());
    return 1;
  }
  std::printf("\nwrote %s (schema vpic-bench-v1, validated)\n", path.c_str());

  if (!smoke && speedup_4w < 1.3) {
    std::fprintf(stderr,
                 "collide: 4-worker stealing speedup %.2fx is below the "
                 "1.3x acceptance bar\n",
                 speedup_4w);
    return 1;
  }
  return 0;
}
