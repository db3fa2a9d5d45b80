// fig4_push_vectorization — reproduces Figure 4: runtime of the VPIC
// particle push kernel under the auto / guided / manual / ad hoc
// vectorization strategies, on the laser-plasma instability deck. The
// paper's shape: guided and manual consistently beat auto; ad hoc (the
// VPIC 1.2 library) is matched by manual on x86_64.
//
// Emits one JSON record per strategy; BenchReport writes the aggregate
// BENCH_fig4_push_vectorization.json (schema vpic-bench-v1).
#include <cstdio>

#include "bench_common.hpp"
#include "core/core.hpp"

namespace {

namespace core = vpic::core;
namespace bench = vpic::bench;

core::Simulation make_deck(core::VectorStrategy strat, int nx, int ny,
                           int nz, int ppc) {
  core::decks::LpiParams p;
  p.nx = nx;
  p.ny = ny;
  p.nz = nz;
  p.ppc = ppc;
  p.strategy = strat;
  p.sort_interval = 0;  // measure the push alone, steady particle order
  auto sim = core::decks::make_lpi(p);
  sim.run(2);  // warm: fields and particle distribution realistic
  return sim;
}

}  // namespace

int main(int argc, char** argv) {
  const int nx = static_cast<int>(bench::flag(argc, argv, "nx", 24));
  const int ny = static_cast<int>(bench::flag(argc, argv, "ny", 12));
  const int nz = static_cast<int>(bench::flag(argc, argv, "nz", 12));
  const int ppc = static_cast<int>(bench::flag(argc, argv, "ppc", 24));
  const int reps = static_cast<int>(bench::flag(argc, argv, "reps", 10));

  std::printf(
      "== Figure 4: particle push runtime vs vectorization strategy "
      "==\nLPI deck %dx%dx%d, ppc %d, %d reps\n\n",
      nx, ny, nz, ppc, reps);

  bench::Table t({"strategy", "particles", "push (ms)", "Mp/s", "vs auto"});
  double auto_ms = 0;
  for (const auto strat :
       {core::VectorStrategy::Auto, core::VectorStrategy::Guided,
        core::VectorStrategy::Manual, core::VectorStrategy::AdHoc}) {
    auto sim = make_deck(strat, nx, ny, nz, ppc);
    auto& interp = sim.interpolator();
    auto& acc = sim.accumulator();
    interp.load(sim.fields());
    std::int64_t np = 0;
    for (std::size_t s = 0; s < sim.num_species(); ++s)
      np += sim.species(s).np;

    // The push leaves particles in place (no sort between reps), so the
    // workload is idempotent up to accumulator state: clear it untimed
    // before every rep. Pin the generic per-particle kernels — the
    // strategies themselves are what Fig. 4 compares.
    const bench::Timing tm = bench::time_reps(
        reps, 1,
        [&] {
          for (std::size_t s = 0; s < sim.num_species(); ++s)
            core::advance_species(sim.species(s), interp, acc, sim.grid(),
                                  strat, {}, core::PushPath::Generic);
        },
        [&](int) { acc.clear(); });

    const double mps = static_cast<double>(np) / tm.min_s * 1e-6;
    if (strat == core::VectorStrategy::Auto) auto_ms = tm.min_s;
    t.row({core::to_string(strat), std::to_string(np),
           bench::fmt("%.3f", tm.min_s * 1e3), bench::fmt("%.1f", mps),
           bench::fmt("%.2fx", auto_ms / tm.min_s)});

    bench::Json j("fig4_push_vectorization");
    j.field("strategy", core::to_string(strat))
        .field("particles", np)
        .timing("push", tm)
        .field("mparticles_per_s", mps);
    j.print();
  }

  std::printf("\n");
  t.print();
  const std::string path =
      bench::emit_bench_json("fig4_push_vectorization");
  if (!path.empty()) std::printf("\nwrote %s\n", path.c_str());
  return 0;
}
