// layout_dispatch — per-particle-layout push and sort timings on both
// sides of each dispatch crossover, and the side the dispatch constants
// pick. For each of AoS and SoA it times, on the same cell-sorted
// LPI deck the push_pipeline bench uses:
//
//   * the generic vs run-aware Manual push, and the path AutoDetect picks
//     under the fixed gates (core::kPushGates);
//   * the counting vs radix sort pipeline, and the backend the default
//     sort::SortDispatchModel picks;
//
// and emits one JSON record per layout into BENCH_layout_dispatch.json
// (schema vpic-bench-v1) with the constants alongside the raw timings, so
// a reader can audit the crossovers against the measurements.
//
// Flags: --nx/--ny/--nz/--ppc (deck size), --reps, --smoke. With --smoke
// the bench exits non-zero if the constants pick a path measurably slower
// (> kSmokeTolerance) than the alternative they rejected — the CI guard
// that the constants still fit the host they run on.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/core.hpp"
#include "core/push_tuning.hpp"
#include "sort/runs.hpp"

namespace {

namespace core = vpic::core;
namespace bench = vpic::bench;
namespace pk = vpic::pk;
using pk::index_t;

// Dispatch is "measurably slower" when the chosen path exceeds the
// rejected one by more than this factor (generous: rep noise on a loaded
// CI runner must not flake the guard).
constexpr double kSmokeTolerance = 1.25;

struct Snapshot {
  std::vector<std::vector<core::Particle>> p;  // canonical AoS records
  std::vector<index_t> np;
};

Snapshot take_snapshot(core::Simulation& sim) {
  Snapshot s;
  for (std::size_t i = 0; i < sim.num_species(); ++i) {
    auto& sp = sim.species(i);
    std::vector<core::Particle> copy(static_cast<std::size_t>(sp.np));
    sp.p.export_aos(copy.data(), sp.np);
    s.p.push_back(std::move(copy));
    s.np.push_back(sp.np);
  }
  return s;
}

void restore_snapshot(core::Simulation& sim, const Snapshot& s) {
  for (std::size_t i = 0; i < sim.num_species(); ++i) {
    auto& sp = sim.species(i);
    sp.p.import_aos(s.p[i].data(), s.np[i]);
    sp.np = s.np[i];
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int nx = static_cast<int>(bench::flag(argc, argv, "nx", 48));
  const int ny = static_cast<int>(bench::flag(argc, argv, "ny", 24));
  const int nz = static_cast<int>(bench::flag(argc, argv, "nz", 24));
  const int ppc = static_cast<int>(bench::flag(argc, argv, "ppc", 16));
  const int reps = static_cast<int>(bench::flag(argc, argv, "reps", 5));
  const bool smoke = bench::has_flag(argc, argv, "smoke");

  const core::PushGates& gates = core::kPushGates;
  const vpic::sort::SortDispatchModel model;
  std::printf(
      "== layout_dispatch: per-layout push/sort timings under the dispatch "
      "constants ==\nLPI deck %dx%dx%d, ppc %d, %d reps\n"
      "push gates: min_particles=%lld max_stale=%d min_mean_run=%g; "
      "sort model: cells_per_n=%g cells_floor=%g\n\n",
      nx, ny, nz, ppc, reps, static_cast<long long>(gates.min_particles),
      gates.max_stale, gates.min_mean_run, model.cells_per_n,
      model.cells_floor);

  bench::Table t({"layout", "particles", "generic (ms)", "run-aware (ms)",
                  "auto picks", "sort count (ms)", "sort radix (ms)",
                  "model picks", "dispatch ok"});
  bool ok = true;

  for (const core::ParticleLayout layout : core::kAllParticleLayouts) {
    core::decks::LpiParams p;
    p.nx = nx;
    p.ny = ny;
    p.nz = nz;
    p.ppc = ppc;
    p.strategy = core::VectorStrategy::Manual;
    p.sort_interval = 0;  // sorts are timed explicitly below
    p.layout = layout;
    auto sim = core::decks::make_lpi(p);
    sim.run(2);  // realistic fields + phase-mixed distribution

    // Phase-mixed order for the sort timings...
    const Snapshot mixed = take_snapshot(sim);
    index_t total_np = 0;
    for (std::size_t s = 0; s < sim.num_species(); ++s)
      total_np += sim.species(s).np;
    const index_t nv = sim.grid().nv();
    const int nthreads = pk::DefaultExecSpace::concurrency();

    // ...then cell-sorted order for the push timings.
    for (std::size_t s = 0; s < sim.num_species(); ++s)
      core::sort_particles(sim.species(s), vpic::sort::SortOrder::Standard,
                           0, 1, nv);
    sim.interpolator().load(sim.fields());
    const Snapshot sorted = take_snapshot(sim);
    auto& interp = sim.interpolator();
    auto& acc = sim.accumulator();

    auto time_push = [&](core::PushPath path) {
      return bench::time_reps(
          reps, 1,
          [&] {
            for (std::size_t s = 0; s < sim.num_species(); ++s)
              core::advance_species(sim.species(s), interp, acc, sim.grid(),
                                    core::VectorStrategy::Manual, {}, path);
          },
          [&](int) {
            restore_snapshot(sim, sorted);
            for (std::size_t s = 0; s < sim.num_species(); ++s)
              sim.species(s).mark_sorted(true);
            acc.clear();
          });
    };
    const bench::Timing tm_gen = time_push(core::PushPath::Generic);
    const bench::Timing tm_run = time_push(core::PushPath::RunAware);

    // The AutoDetect decision under the gates.
    restore_snapshot(sim, sorted);
    for (std::size_t s = 0; s < sim.num_species(); ++s)
      sim.species(s).mark_sorted(true);
    acc.clear();
    core::PushPath auto_path = core::PushPath::Generic;
    for (std::size_t s = 0; s < sim.num_species(); ++s)
      auto_path = core::advance_species(sim.species(s), interp, acc,
                                        sim.grid(),
                                        core::VectorStrategy::Manual, {},
                                        core::PushPath::AutoDetect);

    const double auto_ms = (auto_path == core::PushPath::RunAware
                                ? tm_run.min_s
                                : tm_gen.min_s) *
                           1e3;
    const double push_best_ms =
        std::min(tm_gen.min_s, tm_run.min_s) * 1e3;
    const bool push_ok = auto_ms <= push_best_ms * kSmokeTolerance;

    // Sort: time the full sort_particles pipeline with the dispatch model
    // pinned to each side of the crossover, then restore the default model
    // and record which side it picks for each species' (n, nv, threads).
    auto time_sort = [&](const vpic::sort::SortDispatchModel& m) {
      vpic::sort::active_sort_model() = m;
      auto tm = bench::time_reps(
          reps, 1,
          [&] {
            for (std::size_t s = 0; s < sim.num_species(); ++s)
              core::sort_particles(sim.species(s),
                                   vpic::sort::SortOrder::Standard, 0, 1,
                                   nv);
          },
          [&](int) { restore_snapshot(sim, mixed); });
      vpic::sort::active_sort_model() = model;
      return tm;
    };
    vpic::sort::SortDispatchModel always_counting;
    always_counting.cells_per_n = 1.0;
    always_counting.cells_floor = 1e18;  // budget never binds
    vpic::sort::SortDispatchModel never_counting;
    never_counting.cells_per_n = 1e-18;
    never_counting.cells_floor = 0;  // budget always binds
    const bench::Timing tm_count = time_sort(always_counting);
    const bench::Timing tm_radix = time_sort(never_counting);

    bool model_counting = true;
    for (std::size_t s = 0; s < sim.num_species(); ++s)
      model_counting = model_counting &&
                       vpic::sort::counting_sort_applicable(
                           sim.species(s).np, static_cast<std::uint64_t>(nv),
                           nthreads);
    const double sort_chosen_ms =
        (model_counting ? tm_count.min_s : tm_radix.min_s) * 1e3;
    const double sort_best_ms =
        std::min(tm_count.min_s, tm_radix.min_s) * 1e3;
    const bool sort_ok = sort_chosen_ms <= sort_best_ms * kSmokeTolerance;

    ok = ok && push_ok && sort_ok;

    t.row({core::to_string(layout), std::to_string(total_np),
           bench::fmt("%.3f", tm_gen.min_s * 1e3),
           bench::fmt("%.3f", tm_run.min_s * 1e3),
           core::to_string(auto_path),
           bench::fmt("%.3f", tm_count.min_s * 1e3),
           bench::fmt("%.3f", tm_radix.min_s * 1e3),
           model_counting ? "counting" : "radix",
           (push_ok && sort_ok) ? "yes" : "NO"});

    bench::Json j("layout_dispatch");
    j.field("layout", core::to_string(layout))
        .field("particles", static_cast<std::int64_t>(total_np))
        .timing("push_generic", tm_gen)
        .timing("push_run_aware", tm_run)
        .field("push_speedup", tm_gen.min_s / tm_run.min_s)
        .field("push_auto_path", core::to_string(auto_path))
        .field("push_dispatch_ok", push_ok ? 1 : 0)
        .timing("sort_counting", tm_count)
        .timing("sort_radix", tm_radix)
        .field("sort_model_path", model_counting ? "counting" : "radix")
        .field("sort_dispatch_ok", sort_ok ? 1 : 0)
        .field("gate_min_particles",
               static_cast<std::int64_t>(gates.min_particles))
        .field("gate_max_stale", gates.max_stale)
        .field("gate_min_mean_run", gates.min_mean_run)
        .field("sort_cells_per_n", model.cells_per_n)
        .field("sort_cells_floor", model.cells_floor);
    j.print();
  }

  std::printf("\n");
  t.print();
  const std::string path = bench::emit_bench_json("layout_dispatch");
  if (!path.empty()) std::printf("\nwrote %s\n", path.c_str());

  if (smoke && !ok) {
    std::fprintf(stderr,
                 "\nsmoke FAILED: the dispatch constants picked a path > "
                 "%.0f%% slower than the rejected alternative\n",
                 (kSmokeTolerance - 1.0) * 100);
    return 1;
  }
  std::printf("\ndispatch constants %s\n",
              ok ? "picked the faster path everywhere"
                 : "picked a slower path somewhere (informational without "
                   "--smoke)");
  return 0;
}
