// fig7_push_sorting_gpu — reproduces Figure 7: impact of the sorting order
// (random, standard, strided, tiled-strided) on the VPIC particle push
// across four GPU architectures. Cell-index sequences come from a real
// LPI-deck particle distribution; each order is produced by the actual
// sorting library, then the push is timed by the analytic device model.
//
// Expected shape: on NVIDIA, strided > 2x faster than standard and
// tiled-strided ~2x strided; on AMD, random/standard an order of magnitude
// slower than strided/tiled-strided.
//
// The "run-aware" column models the standard order pushed through the
// run-aware pipeline (PushModelParams::run_aware: one gather + one batched
// scatter per same-cell run, docs/PUSH.md) — the modeled-GPU counterpart
// of the CPU engine's fast path. One JSON record per (GPU, order) lands in
// BENCH_fig7_push_sorting_gpu.json (schema vpic-bench-v1).
#include <vector>

#include "bench_common.hpp"
#include "core/core.hpp"
#include "gpusim/gpusim.hpp"

namespace {

using namespace vpic;
using pk::index_t;

std::vector<std::uint32_t> order_cells(const pk::View<std::uint32_t, 1>& keys,
                                       sort::SortOrder order,
                                       std::uint32_t tile) {
  pk::View<std::uint32_t, 1> k("k", keys.size());
  pk::View<std::uint32_t, 1> payload("p", keys.size());
  pk::deep_copy(k, keys);
  sort::sort_pairs(order, k, payload, tile);
  return {k.data(), k.data() + k.size()};
}

}  // namespace

int main(int argc, char** argv) {
  const int ppc = static_cast<int>(bench::flag(argc, argv, "ppc", 8));

  // Realistic cell occupancy: a short LPI run, then extract cell keys.
  core::decks::LpiParams lp;
  lp.nx = static_cast<int>(vpic::bench::flag(argc, argv, "nx", 96));
  lp.ny = static_cast<int>(vpic::bench::flag(argc, argv, "ny", 48));
  lp.nz = static_cast<int>(vpic::bench::flag(argc, argv, "nz", 48));
  lp.ppc = ppc;
  lp.sort_interval = 0;
  auto sim = core::decks::make_lpi(lp);
  sim.run(5);
  auto keys = sim.species(0).cell_keys();
  const auto grid_points = static_cast<std::uint64_t>(sim.grid().nv());

  std::printf(
      "== Figure 7: particle push runtime vs sorting order (analytic GPU "
      "model) ==\nLPI deck %dx%dx%d, %lld particles over %llu cells\n\n",
      lp.nx, lp.ny, lp.nz, static_cast<long long>(keys.size()),
      static_cast<unsigned long long>(grid_points));

  bench::Table t({"GPU", "random (ms)", "standard (ms)", "strided (ms)",
                  "tiled-strided (ms)", "run-aware (ms)",
                  "best vs standard"});
  for (const auto& name : {"A100", "H100", "MI250", "MI300A"}) {
    const auto& dev = gpusim::device(name);
    const auto tile = static_cast<std::uint32_t>(3 * dev.core_count);
    std::vector<std::string> row{name};
    double std_ms = 0, best_ms = 1e30;
    for (const auto order :
         {sort::SortOrder::Random, sort::SortOrder::Standard,
          sort::SortOrder::Strided, sort::SortOrder::TiledStrided}) {
      const auto cells = order_cells(keys, order, tile);
      const auto res = gpusim::model_push(dev, cells, grid_points);
      const double ms = res.timing.seconds * 1e3;
      if (order == sort::SortOrder::Standard) std_ms = ms;
      if (order != sort::SortOrder::Random) best_ms = std::min(best_ms, ms);
      row.push_back(bench::fmt("%.4f", ms));

      bench::Json j("fig7_push_sorting_gpu");
      j.field("gpu", name)
          .field("order", sort::to_string(order))
          .field("particles", static_cast<std::int64_t>(res.particles))
          .field("runs", static_cast<std::int64_t>(res.runs))
          .field("push_ms", ms)
          .field("pushes_per_ns", res.pushes_per_ns);
      j.print();
    }
    // Run-aware pipeline on the standard (cell-sorted) order, per particle
    // layout: the run-segmentation key sweep streams a full 32 B record
    // through AoS but only the 4 B cell plane for SoA
    // (core/particle_layout.hpp), so the layouts model differently here.
    for (const core::ParticleLayout layout : core::kAllParticleLayouts) {
      gpusim::PushModelParams pm;
      pm.run_aware = true;
      pm.layout = layout;
      const auto cells =
          order_cells(keys, sort::SortOrder::Standard, tile);
      const auto res = gpusim::model_push(dev, cells, grid_points, pm);
      const double ms = res.timing.seconds * 1e3;
      best_ms = std::min(best_ms, ms);
      if (layout == core::ParticleLayout::AoS)
        row.push_back(bench::fmt("%.4f", ms));

      bench::Json j("fig7_push_sorting_gpu");
      j.field("gpu", name)
          .field("order", std::string("standard+run_aware/") +
                              core::to_string(layout))
          .field("particles", static_cast<std::int64_t>(res.particles))
          .field("runs", static_cast<std::int64_t>(res.runs))
          .field("push_ms", ms)
          .field("pushes_per_ns", res.pushes_per_ns);
      j.print();
    }
    row.push_back(bench::fmt("%.1fx", std_ms / best_ms));
    t.row(std::move(row));
  }
  std::printf("\n");
  t.print();
  const std::string path = bench::emit_bench_json("fig7_push_sorting_gpu");
  if (!path.empty()) std::printf("\nwrote %s\n", path.c_str());
  return 0;
}
