// layout_dispatch — push and sort timings of the particle store on both
// sides of each dispatch crossover, and the side the dispatch constants
// pick. It times, on the same cell-sorted LPI deck the push_pipeline
// bench uses:
//
//   * the generic vs run-aware Manual push (push_on alone, aged like a
//     step that does not re-sort), and the path AutoDetect picks on the
//     freshly sorted deck (exact cell order: run-aware at any size);
//   * the counting vs radix particle sort (sort_particles, Standard
//     order), and the backend the particle sort's budget
//     (sort::kParticleSortModel) picks;
//   * the counting vs radix View-level sort_by_key over the same cell keys
//     with an index payload, and the backend the View-level model
//     (sort::active_sort_model()) picks;
//
// and emits one JSON record into BENCH_layout_dispatch.json (schema
// vpic-bench-v1) with the constants, the thread count and the
// deck's histogram-to-particle ratio (nthreads + 1) * nv / n alongside the
// raw timings, so a reader can audit the crossovers against the
// measurements; docs/SORTING.md sweeps it over threads and ppc.
//
// Flags: --nx/--ny/--nz/--ppc (deck size), --reps, --smoke. With --smoke
// the bench exits non-zero if the constants pick a path measurably slower
// (> kSmokeTolerance) than the alternative they rejected — the CI guard
// that the constants still fit the host they run on.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "bench_common.hpp"
#include "core/core.hpp"

namespace {

namespace core = vpic::core;
namespace bench = vpic::bench;
namespace pk = vpic::pk;
using pk::index_t;

// Dispatch is "measurably slower" when the chosen path exceeds the
// rejected one by more than this factor (generous: rep noise on a loaded
// CI runner must not flake the guard).
constexpr double kSmokeTolerance = 1.25;

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

/// Models pinned to each side of a crossover: a budget that never binds
/// and one that always does.
vpic::sort::SortDispatchModel always_counting() {
  vpic::sort::SortDispatchModel m;
  m.cells_per_n = 1.0;
  m.cells_floor = 1e18;
  return m;
}
vpic::sort::SortDispatchModel never_counting() {
  vpic::sort::SortDispatchModel m;
  m.cells_per_n = 1e-18;
  m.cells_floor = 0;
  return m;
}

/// Time `body` with `seam` pinned to `pinned`, restoring it afterwards.
template <class Body, class Prep>
bench::Timing time_pinned(vpic::sort::SortDispatchModel& seam,
                          const vpic::sort::SortDispatchModel& pinned,
                          int reps, Body&& body, Prep&& prep) {
  const vpic::sort::SortDispatchModel saved = seam;
  seam = pinned;
  const bench::Timing tm = bench::time_reps(reps, 1, body, prep);
  seam = saved;
  return tm;
}

}  // namespace

int main(int argc, char** argv) {
  const int nx = static_cast<int>(bench::flag(argc, argv, "nx", 48));
  const int ny = static_cast<int>(bench::flag(argc, argv, "ny", 24));
  const int nz = static_cast<int>(bench::flag(argc, argv, "nz", 24));
  const int ppc = static_cast<int>(bench::flag(argc, argv, "ppc", 16));
  const int reps = static_cast<int>(bench::flag(argc, argv, "reps", 5));
  const bool smoke = bench::has_flag(argc, argv, "smoke");

  const vpic::sort::SortDispatchModel model = vpic::sort::kParticleSortModel;
  const vpic::sort::SortDispatchModel view_model =
      vpic::sort::active_sort_model();
  const int nthreads = pk::DefaultExecSpace::concurrency();
  std::printf(
      "== layout_dispatch: push/sort timings under the dispatch "
      "constants ==\nLPI deck %dx%dx%d, ppc %d, %d reps, %d threads\n"
      "particle sort budget: cells_per_n=%g cells_floor=%g; "
      "View-level sort: cells_per_n=%g cells_floor=%g\n\n",
      nx, ny, nz, ppc, reps, nthreads, model.cells_per_n,
      model.cells_floor, view_model.cells_per_n, view_model.cells_floor);

  bench::Table t({"particles", "cells/n", "generic (ms)",
                  "run-aware (ms)", "auto picks", "sort count (ms)",
                  "sort radix (ms)", "budget picks", "view count (ms)",
                  "view radix (ms)", "view picks", "dispatch ok"});

  core::decks::LpiParams p;
  p.nx = nx;
  p.ny = ny;
  p.nz = nz;
  p.ppc = ppc;
  p.strategy = core::VectorStrategy::Manual;
  p.sort_interval = 0;  // sorts are timed explicitly below
  auto sim = core::decks::make_lpi(p);
  sim.run(2);  // realistic fields + phase-mixed distribution

  // Phase-mixed order for the sort timings...
  const Snapshot mixed = take_snapshot(sim);
  index_t total_np = 0;
  for (std::size_t s = 0; s < sim.num_species(); ++s)
    total_np += sim.species(s).np;
  const index_t nv = sim.grid().nv();

  // ...then cell-sorted order for the push timings.
  for (std::size_t s = 0; s < sim.num_species(); ++s)
    core::sort_particles(sim.species(s), vpic::sort::SortOrder::Standard,
                         0, 1, nv);
  sim.interpolator().load(sim.fields());
  const Snapshot sorted = take_snapshot(sim);
  auto& interp = sim.interpolator();
  auto& acc = sim.accumulator();

  // The push alone: push_on plus the hint's aging, without
  // advance_species' re-sort.
  auto push = [&](core::Species& sp, core::PushPath path) {
    const core::PushPath taken = core::push_on<pk::DefaultExecSpace>(
        sp, interp, acc, sim.grid(), core::VectorStrategy::Manual, {}, path,
        0, sp.np);
    sp.mark_order_degraded();
    return taken;
  };
  auto time_push = [&](core::PushPath path) {
    return bench::time_reps(
        reps, 1,
        [&] {
          for (std::size_t s = 0; s < sim.num_species(); ++s)
            push(sim.species(s), path);
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

  // The AutoDetect decision on the freshly sorted deck.
  restore_snapshot(sim, sorted);
  for (std::size_t s = 0; s < sim.num_species(); ++s)
    sim.species(s).mark_sorted(true);
  acc.clear();
  core::PushPath auto_path = core::PushPath::Generic;
  for (std::size_t s = 0; s < sim.num_species(); ++s)
    auto_path = push(sim.species(s), core::PushPath::AutoDetect);

  const double auto_ms = (auto_path == core::PushPath::RunAware
                              ? tm_run.min_s
                              : tm_gen.min_s) *
                         1e3;
  const double push_best_ms =
      std::min(tm_gen.min_s, tm_run.min_s) * 1e3;
  const bool push_ok = auto_ms <= push_best_ms * kSmokeTolerance;

  // Particle sort: time the full sort_particles pipeline with the
  // particle sort's budget pinned to each side of the crossover, then
  // record which side the budget picks for each species' (n, nv,
  // threads).
  auto time_sort = [&](const vpic::sort::SortDispatchModel& m) {
    return time_pinned(
        vpic::sort::particle_sort_model(), m, reps,
        [&] {
          for (std::size_t s = 0; s < sim.num_species(); ++s)
            core::sort_particles(sim.species(s),
                                 vpic::sort::SortOrder::Standard, 0, 1,
                                 nv);
        },
        [&](int) { restore_snapshot(sim, mixed); });
  };
  const bench::Timing tm_count = time_sort(always_counting());
  const bench::Timing tm_radix = time_sort(never_counting());

  bool model_counting = true;
  for (std::size_t s = 0; s < sim.num_species(); ++s)
    model_counting = model_counting &&
                     vpic::sort::counting_sort_applicable(
                         sim.species(s).np, static_cast<std::uint64_t>(nv),
                         nthreads, model);
  const auto picked_ok = [](bool counting, const bench::Timing& c,
                            const bench::Timing& r) {
    const double chosen = counting ? c.min_s : r.min_s;
    return chosen <= std::min(c.min_s, r.min_s) * kSmokeTolerance;
  };
  const bool sort_ok = picked_ok(model_counting, tm_count, tm_radix);

  // View-level sort_by_key over the same (phase-mixed) cell keys of
  // every species with an index payload, repeated to at least 2^18 keys
  // so the smoke deck's sorts are not microsecond noise, with the
  // View-level model pinned to each side, and the side it picks for the
  // keys' bound.
  const index_t nkeys = std::max<index_t>(total_np, index_t{1} << 18);
  pk::View<std::uint32_t, 1> keys0("view_keys", nkeys);
  for (index_t at = 0; at < nkeys;)
    for (std::size_t s = 0; s < sim.num_species() && at < nkeys; ++s)
      for (std::size_t k = 0; k < mixed[s].size() && at < nkeys; ++k)
        keys0(at++) = static_cast<std::uint32_t>(mixed[s][k].i);
  pk::View<std::uint32_t, 1> keys("view_keys_work", nkeys);
  pk::View<index_t, 1> vals("view_vals_work", nkeys);
  auto time_view_sort = [&](const vpic::sort::SortDispatchModel& m) {
    return time_pinned(
        vpic::sort::active_sort_model(), m, reps,
        [&] { vpic::sort::sort_by_key(keys, vals); },
        [&](int) {
          std::copy(keys0.data(), keys0.data() + nkeys, keys.data());
          std::iota(vals.data(), vals.data() + nkeys, index_t{0});
        });
  };
  const bench::Timing tv_count = time_view_sort(always_counting());
  const bench::Timing tv_radix = time_view_sort(never_counting());
  const std::uint64_t view_bound =
      static_cast<std::uint64_t>(
          *std::max_element(keys0.data(), keys0.data() + nkeys)) +
      1;
  const bool view_counting = vpic::sort::counting_sort_applicable(
      nkeys, view_bound, nthreads, view_model);
  const bool view_ok = picked_ok(view_counting, tv_count, tv_radix);

  const bool ok = push_ok && sort_ok && view_ok;
  // The histogram-to-particle ratio the particle sort's budget reads,
  // for the larger species.
  index_t np_max = 0;
  for (std::size_t s = 0; s < sim.num_species(); ++s)
    np_max = std::max(np_max, sim.species(s).np);
  const double cells_ratio =
      static_cast<double>(nthreads + 1) * static_cast<double>(nv) /
      static_cast<double>(std::max<index_t>(np_max, 1));

  t.row({std::to_string(total_np), bench::fmt("%.2f", cells_ratio),
         bench::fmt("%.3f", tm_gen.min_s * 1e3),
         bench::fmt("%.3f", tm_run.min_s * 1e3), core::to_string(auto_path),
         bench::fmt("%.3f", tm_count.min_s * 1e3),
         bench::fmt("%.3f", tm_radix.min_s * 1e3),
         model_counting ? "counting" : "radix",
         bench::fmt("%.3f", tv_count.min_s * 1e3),
         bench::fmt("%.3f", tv_radix.min_s * 1e3),
         view_counting ? "counting" : "radix", ok ? "yes" : "NO"});

  bench::Json j("layout_dispatch");
  j.field("particles", static_cast<std::int64_t>(total_np))
      .timing("push_generic", tm_gen)
      .timing("push_run_aware", tm_run)
      .field("push_speedup", tm_gen.min_s / tm_run.min_s)
      .field("push_auto_path", core::to_string(auto_path))
      .field("push_dispatch_ok", push_ok ? 1 : 0)
      .timing("sort_counting", tm_count)
      .timing("sort_radix", tm_radix)
      .field("sort_model_path", model_counting ? "counting" : "radix")
      .field("sort_dispatch_ok", sort_ok ? 1 : 0)
      .field("threads", nthreads)
      .field("sort_cells_ratio", cells_ratio)
      .timing("view_sort_counting", tv_count)
      .timing("view_sort_radix", tv_radix)
      .field("view_sort_keys", static_cast<std::int64_t>(nkeys))
      .field("view_sort_model_path", view_counting ? "counting" : "radix")
      .field("view_sort_dispatch_ok", view_ok ? 1 : 0)
      .field("sort_cells_per_n", model.cells_per_n)
      .field("sort_cells_floor", model.cells_floor)
      .field("view_sort_cells_per_n", view_model.cells_per_n)
      .field("view_sort_cells_floor", view_model.cells_floor);
  j.print();

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
