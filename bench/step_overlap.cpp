// step_overlap — comm/compute overlap of the distributed step
// (docs/ASYNC.md): times the step's two DomainConfig::overlap settings,
// fenced (the z-halo completes before the interior push) against
// overlapped (after it), on a z-slab decomposition with an injected
// minimpi link latency (WorldOptions::latency_us). The injected latency
// is what makes the overlap measurable in-process: without it a buffered
// isend is matchable instantly and there is no wait to hide. Both
// settings sort the species while the leading z-halo exchange is in
// flight; the overlapped one also loads interpolator planes 1..nz-1 and
// pushes the particles below plane nz before waiting, so per step it
// saves up to min(latency, interior compute).
//
// Emits one vpic-bench-v1 record per setting plus a summary record with
// the speedup and the fenced-vs-overlapped energy agreement (the two
// settings agree bit for bit at one kernel thread; on wider teams the
// float-atomic current deposits vary their order run to run).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "core/domain.hpp"
#include "minimpi/minimpi.hpp"

namespace {

struct RunResult {
  double seconds = 0;       // timed steps, wall, rank 0
  double energy_total = 0;  // globally reduced at the end
  std::int64_t np = 0;      // global particle count (conservation check)
};

RunResult run_schedule(bool overlap, int ranks, double latency_us, int nx,
                       int ny, int nz, int ppc, int steps) {
  using namespace vpic;
  RunResult out;
  mpi::WorldOptions wopts;
  wopts.latency_us = latency_us;
  mpi::run(ranks, wopts, [&](mpi::Comm& comm) {
    core::DomainConfig cfg;
    cfg.nx = nx;
    cfg.ny = ny;
    cfg.nz = nz;
    cfg.lx = static_cast<float>(nx);
    cfg.ly = static_cast<float>(ny);
    cfg.lz = static_cast<float>(nz);
    cfg.overlap = overlap;
    core::DistributedSimulation sim(cfg, comm);
    const auto e = sim.add_species(
        "electron", -1, 1,
        static_cast<core::index_t>(nx) * ny * (nz / ranks) * ppc * 4);
    sim.load_uniform_plasma(e, ppc, 0.3f);

    sim.step();  // warmup: fills halos, settles allocations
    comm.barrier();
    const auto t0 = std::chrono::steady_clock::now();
    sim.run(steps);
    comm.barrier();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const auto energy = sim.energies();
    const auto np = sim.global_np(e);
    if (comm.rank() == 0) {
      out.seconds = secs;
      out.energy_total = energy.total();
      out.np = np;
    }
  });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vpic;
  const int nx = static_cast<int>(bench::flag(argc, argv, "nx", 16));
  const int ny = static_cast<int>(bench::flag(argc, argv, "ny", 16));
  const int nz = static_cast<int>(bench::flag(argc, argv, "nz", 16));
  const int ppc = static_cast<int>(bench::flag(argc, argv, "ppc", 8));
  const int steps = static_cast<int>(bench::flag(argc, argv, "steps", 5));
  const int reps = static_cast<int>(bench::flag(argc, argv, "reps", 3));
  const int ranks = static_cast<int>(bench::flag(argc, argv, "ranks", 2));
  const double latency_us = static_cast<double>(
      bench::flag(argc, argv, "latency_us", 400));

  std::printf("== step_overlap: fenced vs overlapped distributed step ==\n");
  std::printf("grid %dx%dx%d, ppc %d, %d ranks, %d steps x %d reps, "
              "link latency %.0f us\n\n",
              nx, ny, nz, ppc, ranks, steps, reps, latency_us);

  bench::Timing fenced, overlapped;
  RunResult rf, ro;
  for (int r = 0; r < reps; ++r) {
    rf = run_schedule(false, ranks, latency_us, nx, ny, nz, ppc, steps);
    fenced.add_sample(rf.seconds);
    ro = run_schedule(true, ranks, latency_us, nx, ny, nz, ppc, steps);
    overlapped.add_sample(ro.seconds);
  }

  const double per_step_fenced = fenced.min_s / steps;
  const double per_step_overlap = overlapped.min_s / steps;
  const double speedup = per_step_fenced / per_step_overlap;
  const double energy_rel_diff =
      std::abs(rf.energy_total - ro.energy_total) /
      std::max(1e-300, std::abs(rf.energy_total));

  bench::Table t({"schedule", "step (ms)", "total (ms)", "speedup"});
  t.row({"fenced", bench::fmt("%.3f", per_step_fenced * 1e3),
         bench::fmt("%.3f", fenced.min_s * 1e3), "1.0x"});
  t.row({"overlapped", bench::fmt("%.3f", per_step_overlap * 1e3),
         bench::fmt("%.3f", overlapped.min_s * 1e3),
         bench::fmt("%.2fx", speedup)});
  t.print();
  std::printf(
      "energy agreement: rel diff %.3g (atomic deposit order only)\n\n",
      energy_rel_diff);

  {
    bench::Json j("step_overlap");
    j.field("mode", "fenced")
        .field("ranks", ranks)
        .field("steps", steps)
        .field("latency_us", latency_us)
        .timing("step_total", fenced)
        .field("step_ms", per_step_fenced * 1e3);
    j.print();
  }
  {
    bench::Json j("step_overlap");
    j.field("mode", "overlapped")
        .field("ranks", ranks)
        .field("steps", steps)
        .field("latency_us", latency_us)
        .timing("step_total", overlapped)
        .field("step_ms", per_step_overlap * 1e3);
    j.print();
  }
  {
    bench::Json j("step_overlap");
    j.field("mode", "summary")
        .field("fenced_ms", per_step_fenced * 1e3)
        .field("overlapped_ms", per_step_overlap * 1e3)
        .field("speedup", speedup)
        .field("energy_rel_diff", energy_rel_diff)
        .field("global_np", rf.np);
    j.print();
  }
  const std::string path = bench::emit_bench_json("step_overlap");
  if (!path.empty()) std::printf("wrote %s\n", path.c_str());

  // Physics guard: the two settings must agree up to the atomic deposit
  // order and conserve particles.
  if (energy_rel_diff > 1e-3 || rf.np != ro.np) {
    std::fprintf(stderr,
                 "FAIL: schedules disagree (energy rel diff %.3g, np %lld "
                 "vs %lld)\n",
                 energy_rel_diff, static_cast<long long>(rf.np),
                 static_cast<long long>(ro.np));
    return 1;
  }
  return 0;
}
