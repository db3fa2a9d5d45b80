// gpusim/push_model.hpp
//
// Analytic model of the VPIC 2.0 particle-push kernel on a modeled device.
// The model is driven by a *real* cell-index sequence (the order particles
// sit in memory after a given sorting strategy — produced by the actual
// sorting library or by the PIC engine), so changing the sort changes the
// modeled coalescing, cache behaviour, and atomic contention exactly the
// way it changes them on hardware.
//
// Per-particle work (single precision, mirroring VPIC's push):
//   * particle load+store ...... 32 B read + 32 B write, streaming
//   * field gather ............. one 72 B interpolator record (18 floats,
//                                80 B padded stride) indexed by cell
//   * current scatter .......... one 48 B accumulator record (12 floats),
//                                atomic read-modify-write
//   * arithmetic ............... ~250 flops (Boris rotation, interpolation
//                                weights, current form factors)
//
// The LLC footprint of one grid point exceeds these two records: VPIC also
// keeps the EM field array, cell particle lists and other metadata hot
// during a step, and LRU replacement under random access wastes part of
// the capacity. The effective value of 800 B/point is calibrated so the
// modeled performance peak lands where the paper measures it (A100 peak at
// 85,184 points on a 40 MB LLC; V100 at 13,824 on 6 MB — both imply an
// effective footprint of ~450-800 B/point once replacement inefficiency is
// included; see EXPERIMENTS.md).
#pragma once

#include <cstdint>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/kernel_model.hpp"

namespace vpic::gpusim {

struct PushModelParams {
  // Bytes streamed per particle record (core::Particle). The
  // run-segmentation sweep of the run-aware pipeline reads only the cell
  // index, but DRAM moves whole transactions, so it streams whole records
  // too.
  static constexpr int kParticleBytes = 32;
  int interp_stride = 80;         // padded interpolator stride
  int interp_record = 72;         // bytes actually read
  int accum_stride = 48;          // accumulator stride
  int accum_record = 48;          // bytes atomically updated
  double flops_per_particle = 250;
  double grid_bytes_per_point = 800;  // effective hot bytes per grid point
  int atomic_window = 2048;           // cross-warp atomic pipeline window
  // Model the run-aware push pipeline (docs/PUSH.md): the interpolator
  // gather and the accumulator scatter are issued once per same-cell
  // *run* of the cell sequence (the CPU engine's hoist/batch, or a
  // block-shared gather with a local reduction on a real GPU) instead of
  // once per particle, plus one streaming key-read sweep to find the runs.
  // Arithmetic and particle streaming are unchanged.
  bool run_aware = false;
};

struct PushResult {
  KernelProfile profile;
  KernelTiming timing;
  double pushes_per_ns = 0;
  std::uint64_t particles = 0;
  std::uint64_t grid_points = 0;
  std::uint64_t runs = 0;  // same-cell runs in the cell sequence
};

/// Model one particle-push pass over `cells` (cells[i] = cell index of the
/// i-th particle in memory order) on `dev`, with `grid_points` total cells.
PushResult model_push(const DeviceSpec& dev,
                      const std::vector<std::uint32_t>& cells,
                      std::uint64_t grid_points,
                      const PushModelParams& params = {});

/// Generate a synthetic cell-index sequence: `n` particles uniformly
/// distributed over `grid_points` cells, in random memory order
/// (deterministic in `seed`). This is the order of an unsorted plasma after
/// it has phase-mixed — the regime of the Fig. 9 / Fig. 10 experiments,
/// which run with sorting disabled.
std::vector<std::uint32_t> random_cell_sequence(std::uint64_t n,
                                                std::uint64_t grid_points,
                                                std::uint64_t seed);

}  // namespace vpic::gpusim
