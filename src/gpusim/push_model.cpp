#include "gpusim/push_model.hpp"

#include <algorithm>

#include "gpusim/coalescing.hpp"
#include "sort/runs.hpp"

namespace vpic::gpusim {

PushResult model_push(const DeviceSpec& dev,
                      const std::vector<std::uint32_t>& cells,
                      std::uint64_t grid_points,
                      const PushModelParams& params) {
  PushResult r;
  r.particles = cells.size();
  r.grid_points = grid_points;
  const std::uint64_t n = cells.size();
  if (n == 0) return r;

  // Same-cell run compression (the same segmentation the CPU engine's
  // run-aware push performs, sort/runs.hpp). Under run_aware the indexed
  // gather/scatter streams see one access per run; otherwise the run
  // count is still reported so harnesses can relate order to run length.
  std::vector<std::uint32_t> run_cells;
  run_cells.reserve(cells.size() / 4 + 1);
  sort::for_each_run(
      static_cast<pk::index_t>(n),
      [&cells](pk::index_t i) { return cells[static_cast<std::size_t>(i)]; },
      [&run_cells](std::uint32_t cell, pk::index_t, pk::index_t) {
        run_cells.push_back(cell);
      });
  r.runs = run_cells.size();
  const std::vector<std::uint32_t>& idx =
      params.run_aware ? run_cells : cells;
  const std::uint64_t n_idx = idx.size();

  // The LLC competes for grid-point state beyond the two records the model
  // walks explicitly (field array, cell metadata). Shrink the modeled
  // capacity by that ratio so capacity effects appear at the right grid
  // size.
  const double walked_bytes = params.interp_stride + params.accum_stride;
  const double capacity_scale =
      walked_bytes / std::max(walked_bytes, params.grid_bytes_per_point);
  CacheModel cache(
      static_cast<std::uint64_t>(dev.llc_bytes() * capacity_scale),
      dev.line_bytes, 16);

  // Field gather: interpolator records indexed by cell (one per run under
  // run_aware). Base address 0.
  const StreamStats gather = analyze_stream(
      idx.data(), n_idx, params.interp_stride, dev, &cache,
      /*atomics=*/false, /*base_addr=*/0, params.atomic_window,
      params.interp_record);

  // Current scatter: accumulator records, atomic RMW — one batched flush
  // per run under run_aware. Placed after the interpolator region so the
  // two arrays contend for cache honestly.
  const std::uint64_t accum_base =
      grid_points * static_cast<std::uint64_t>(params.interp_stride);
  const StreamStats scatter = analyze_stream(
      idx.data(), n_idx, params.accum_stride, dev, &cache,
      /*atomics=*/true, accum_base, params.atomic_window,
      params.accum_record);

  // Particle array: streaming read + write, bypasses the modeled LLC.
  const int precord = params.particle_bytes();
  const StreamStats pread = analyze_streaming(n, precord, dev);
  const StreamStats pwrite = analyze_streaming(n, precord, dev);

  // Run-aware only: the segmentation sweep that finds same-cell runs reads
  // every particle's cell index once — a full extra record stream through
  // AoS, a dense 4 B/particle plane for SoA (the honesty fix the
  // layout work makes visible; core/particle_layout.hpp).
  StreamStats keyscan{};
  if (params.run_aware)
    keyscan = analyze_streaming(n, params.key_read_bytes(), dev);

  KernelProfile p;
  p.threads = n;
  p.flops = params.flops_per_particle * static_cast<double>(n);
  const auto lb = static_cast<std::uint64_t>(dev.line_bytes);
  // Scatter RMW moves each line twice (read + write-back).
  p.dram_bytes = (gather.dram_lines + 2 * scatter.dram_lines +
                  pread.dram_lines + pwrite.dram_lines +
                  keyscan.dram_lines) *
                 lb;
  p.llc_bytes = (gather.llc_lines + 2 * scatter.llc_lines) * lb;
  p.transactions = gather.transactions + scatter.transactions +
                   pread.transactions + pwrite.transactions +
                   keyscan.transactions;
  p.warp_rounds = gather.warps + scatter.warps + pread.warps +
                  pwrite.warps + keyscan.warps;
  p.atomic_serial = scatter.atomic_conflicts + scatter.window_conflicts;
  p.logical_bytes =
      n * static_cast<std::uint64_t>(2 * precord) +
      (params.run_aware
           ? n * static_cast<std::uint64_t>(params.key_read_bytes())
           : std::uint64_t{0}) +
      n_idx * static_cast<std::uint64_t>(params.interp_record +
                                         2 * params.accum_record);

  r.profile = p;
  r.timing = time_kernel(dev, p);
  r.pushes_per_ns = static_cast<double>(n) / (r.timing.seconds * 1e9);
  return r;
}

std::vector<std::uint32_t> random_cell_sequence(std::uint64_t n,
                                                std::uint64_t grid_points,
                                                std::uint64_t seed) {
  std::vector<std::uint32_t> cells(n);
  std::uint64_t state = seed ? seed : 0x853c49e6748fea9bull;
  for (std::uint64_t i = 0; i < n; ++i) {
    // splitmix64: high-quality, reproducible across platforms.
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z = z ^ (z >> 31);
    cells[i] = static_cast<std::uint32_t>(z % grid_points);
  }
  return cells;
}

}  // namespace vpic::gpusim
