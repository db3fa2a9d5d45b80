// bench/collide.cpp — Takizuka–Abe collision phase cost on a clumped deck
// (docs/MODULES.md).
//
// The CollisionModule pairs particles per cell, so its cost concentrates
// wherever particles do: the LPI deck's clump_factor piles particles into
// the middle of the domain. Two measurements:
//
//  1. Bit-determinism self-check: from a Standard sort of every species,
//     the collision deck must produce identical particle bytes and field
//     energy at 1 and 4 kernel threads (voxel-keyed RNG streams make the
//     scatter sequence a pure function of the step, and the exact-order
//     push adds each cell's current in the same order at any thread
//     count). Exits nonzero on any divergence.
//  2. Collision phase cost: a run times every phase; the summed
//     collide[...] seconds give the absolute cost per step and the
//     fraction of the whole step the collision operator adds. The phase
//     runs its cells on the OpenMP kernel team, so it is measured at 1, 2
//     and 4 kernel threads (collide_ms_<n>t, collide_speedup_4t); these
//     are host-dependent and carry no bar.
//
//   ./collide --nx=16 --ny=8 --nz=32 --ppc=8 --clump=8
//   ./collide --smoke          # CI-sized
//
// Emits BENCH_collide.json (schema vpic-bench-v1) and self-validates it.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "core/collide.hpp"
#include "core/core.hpp"
#include "core/decks.hpp"
#include "core/simulation.hpp"
#include "pk/pk.hpp"

namespace bench = vpic::bench;
namespace core = vpic::core;
namespace pk = vpic::pk;

namespace {

struct Params {
  int nx, ny, nz, ppc, steps;
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

/// Particle bytes + field energy must match exactly across thread counts.
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

struct PhaseCost {
  double collide_ms = 0;  // summed collide[...] phases per step
  double frac = 0;        // of the whole step
  std::uint64_t pairs = 0;  // per step
};

/// A run at `threads` kernel threads, every phase timed.
PhaseCost measure_phase(const Params& p, int threads) {
  pk::initialize(threads);
  core::Simulation sim = make_colliding(p);
  auto* col = static_cast<core::CollisionModule*>(sim.find_module("collide"));
  sim.run(2);  // warmup
  const std::uint64_t pairs0 = col->pairs_scattered();
  double collide_s = 0, total_s = 0;
  for (int s = 0; s < p.steps; ++s) {
    sim.step();
    for (const auto& ps : sim.last_phase_stats()) {
      total_s += ps.seconds;
      if (ps.name.rfind("collide[", 0) == 0) collide_s += ps.seconds;
    }
  }
  PhaseCost c;
  c.collide_ms = collide_s * 1e3 / p.steps;
  c.frac = total_s > 0 ? collide_s / total_s : 0;
  c.pairs = (col->pairs_scattered() - pairs0) /
            static_cast<std::uint64_t>(p.steps);
  return c;
}

/// `steps` steps of the deck at `threads` kernel threads, from a
/// Standard sort of every species.
core::Simulation run_sorted(const Params& p, int threads, int steps) {
  pk::initialize(threads);
  core::Simulation sim = make_colliding(p);
  for (std::size_t s = 0; s < sim.num_species(); ++s)
    core::sort_particles(sim.species(s), vpic::sort::SortOrder::Standard, 0,
                         0, sim.grid().nv());
  sim.run(steps);
  return sim;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::has_flag(argc, argv, "smoke");
  Params p;
  p.nx = static_cast<int>(bench::flag(argc, argv, "nx", smoke ? 8 : 16));
  p.ny = static_cast<int>(bench::flag(argc, argv, "ny", smoke ? 4 : 8));
  p.nz = static_cast<int>(bench::flag(argc, argv, "nz", smoke ? 16 : 32));
  p.ppc = static_cast<int>(bench::flag(argc, argv, "ppc", smoke ? 2 : 8));
  p.steps = static_cast<int>(bench::flag(argc, argv, "steps", smoke ? 4 : 10));
  p.clump = static_cast<float>(bench::flag(argc, argv, "clump", 8));
  // bench::flag is integer-only; the collision frequency comes in milli
  // units (--nu0_milli=50 -> nu0 = 0.05).
  p.nu0 = static_cast<double>(bench::flag(argc, argv, "nu0_milli", 50)) / 1e3;
  const int kernel_threads =
      static_cast<int>(bench::flag(argc, argv, "kernel_threads", 1));
  pk::initialize(kernel_threads);

  std::printf("collision bench: %dx%dx%d ppc=%d clump=%.1f nu0=%.2g%s\n\n",
              p.nx, p.ny, p.nz, p.ppc, static_cast<double>(p.clump), p.nu0,
              smoke ? " (smoke)" : "");

  // -- 1. bit-determinism self-check (1 vs 4 kernel threads) ------------
  {
    Params small = p;
    small.nx = std::min(p.nx, 12);
    small.nz = std::min(p.nz, 8);
    small.ppc = std::min(p.ppc, 4);
    const int check_steps = smoke ? 15 : 30;  // crosses the sort interval
    core::Simulation t1 = run_sorted(small, 1, check_steps);
    core::Simulation t4 = run_sorted(small, 4, check_steps);
    pk::initialize(kernel_threads);
    if (!bitwise_equal(t1, t4)) {
      std::fprintf(stderr,
                   "collide: the step diverged between 1 and 4 kernel "
                   "threads — collision bit-determinism broken\n");
      return 1;
    }
    std::printf(
        "bit-determinism check: 1 == 4 kernel threads over %d steps OK\n\n",
        check_steps);
  }

  // -- 2. collision phase cost (every phase timed) ----------------------
  const PhaseCost cost_kt = measure_phase(p, kernel_threads);
  std::printf(
      "collision phase: %.3f ms/step, %.1f%% of the step, %llu pairs/step\n\n",
      cost_kt.collide_ms, 100 * cost_kt.frac,
      static_cast<unsigned long long>(cost_kt.pairs));
  const auto ms_at = [&](int n) {
    return n == kernel_threads ? cost_kt.collide_ms
                               : measure_phase(p, n).collide_ms;
  };
  const double ms_1t = ms_at(1), ms_2t = ms_at(2), ms_4t = ms_at(4);
  pk::initialize(kernel_threads);
  const double speedup_4t = ms_4t > 0 ? ms_1t / ms_4t : 0;
  std::printf(
      "collision phase, measured: %.3f / %.3f / %.3f ms/step at 1/2/4 "
      "kernel threads (%.2fx at 4)\n\n",
      ms_1t, ms_2t, ms_4t, speedup_4t);

  bench::Json("collide")
      .field("summary", 1)
      .field("clump_factor", static_cast<double>(p.clump))
      .field("collide_ms_per_step", cost_kt.collide_ms)
      .field("collide_frac", cost_kt.frac)
      .field("pairs_per_step", static_cast<double>(cost_kt.pairs))
      .field("collide_ms_1t", ms_1t)
      .field("collide_ms_2t", ms_2t)
      .field("collide_ms_4t", ms_4t)
      .field("collide_speedup_4t", speedup_4t)
      .field("bit_identical", 1)
      .print();

  const std::string path = bench::emit_bench_json("collide");
  std::string err;
  if (path.empty() || !bench::validate_bench_report(path, &err)) {
    std::fprintf(stderr, "bench report validation failed: %s\n", err.c_str());
    return 1;
  }
  std::printf("\nwrote %s (schema vpic-bench-v1, validated)\n", path.c_str());

  return 0;
}
