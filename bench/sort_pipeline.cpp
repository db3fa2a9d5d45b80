// bench/sort_pipeline.cpp — microbench for the zero-allocation particle
// sort pipeline. Two comparisons, swept over particle count and cell count
// (the counting sort's key bound):
//
//  * kernel:   radix_sort_by_key vs counting_sort_by_key on the same
//              random (key, value) pairs — the backend-level win.
//  * pipeline: the legacy sort_particles (per-call View allocations,
//              radix argsort, gather + copy-back) vs the workspace-backed
//              ping-pong pipeline — the end-to-end win the Simulation
//              driver sees, plus the steady-state allocation count
//              (pk::view_alloc_count deltas; 0 after warm-up) and the
//              per-particle workspace bytes each order holds
//              (ws_bytes_per_particle: 0 for the AoS Standard sort).
//
// Emits one JSON record per measurement (bench_common.hpp) alongside the
// tables. Acceptance target: counting path >= 1.5x the radix path for
// nv <= 2^16.
#include <algorithm>
#include <bit>
#include <cinttypes>

#include "bench_common.hpp"
#include "core/particle.hpp"
#include "core/sort_particles.hpp"
#include "pk/pk.hpp"
#include "sort/counting.hpp"
#include "sort/radix.hpp"
#include "sort/sorters.hpp"

namespace {

using namespace vpic;
using pk::index_t;

std::uint64_t rng_state = 0x1234abcdu;
std::uint64_t next_rand() {
  rng_state = rng_state * 6364136223846793005ull + 1442695040888963407ull;
  return rng_state >> 33;
}

core::Species make_species(index_t n, index_t nv) {
  core::Species sp("bench", -1.0f, 1.0f, n);
  for (index_t i = 0; i < n; ++i) {
    core::Particle p{};
    p.i = static_cast<std::int32_t>(next_rand() % static_cast<std::uint64_t>(nv));
    p.dx = p.dy = p.dz = 0.0f;
    p.ux = static_cast<float>(i);
    p.w = 1.0f;
    sp.p(i) = p;
  }
  sp.np = n;
  return sp;
}

/// Untimed disorder between timed sorts: a Fisher-Yates over the records
/// that touches no sort workspace, so the workspace holds only what the
/// timed order reserved.
void scramble(core::Species& sp, std::uint64_t seed) {
  std::uint64_t state = seed;
  for (index_t i = sp.np - 1; i > 0; --i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const auto j = static_cast<index_t>((state >> 33) %
                                        static_cast<std::uint64_t>(i + 1));
    std::swap(sp.p(i), sp.p(j));
  }
}

/// Bytes of the per-particle sort buffers the workspace holds, per live
/// particle (keys and keys_alt 4 B each, perm and perm_alt 8 B each).
double ws_bytes_per_particle(core::Species& sp) {
  const sort::SortWorkspace& ws = sp.sort_ws();
  const index_t bytes = ws.keys.size_bytes() + ws.keys_alt.size_bytes() +
                        ws.perm.size_bytes() + ws.perm_alt.size_bytes();
  return static_cast<double>(bytes) / static_cast<double>(sp.np);
}

/// The pre-workspace sort_particles: four fresh Views per call, radix
/// argsort, gather, full copy-back. Kept here as the baseline the tentpole
/// replaces.
double legacy_sort_particles(core::Species& sp, sort::SortOrder order,
                             std::uint32_t tile_sz) {
  pk::Timer t;
  pk::View<std::uint32_t, 1> keys = sp.cell_keys();
  pk::View<index_t, 1> perm("sort_perm", sp.np);
  pk::parallel_for(sp.np, [&](index_t i) { perm(i) = i; });
  switch (order) {
    case sort::SortOrder::Standard:
      sort::radix_sort_by_key(keys, perm);
      break;
    case sort::SortOrder::Strided: {
      pk::View<std::uint32_t, 1> nk = sort::make_strided_keys(keys);
      sort::radix_sort_by_key(nk, perm);
      break;
    }
    case sort::SortOrder::TiledStrided: {
      pk::View<std::uint32_t, 1> nk =
          sort::make_tiled_strided_keys(keys, tile_sz);
      sort::radix_sort_by_key(nk, perm);
      break;
    }
    default:
      break;
  }
  pk::View<core::Particle, 1> reordered("particles_sorted", sp.np);
  pk::parallel_for(sp.np, [&](index_t i) { reordered(i) = sp.p(perm(i)); });
  pk::parallel_for(sp.np, [&](index_t i) { sp.p(i) = reordered(i); });
  return t.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  const index_t n = bench::flag(argc, argv, "n", 1 << 21);
  const int reps =
      std::max(1, static_cast<int>(bench::flag(argc, argv, "reps", 3)));
  const int nthreads = vpic::pk::DefaultExecSpace::concurrency();

  std::printf("== Sort pipeline: counting vs radix, n=%lld, threads=%d ==\n\n",
              static_cast<long long>(n), nthreads);

  // ------------------------------------------------------------------
  // Kernel-level: sort_by_key backends on random bounded keys.
  // ------------------------------------------------------------------
  std::printf("-- sort_by_key backends (keys uniform in [0, nv)) --\n");
  bench::Table kt({"nv", "radix (ms)", "counting (ms)", "speedup"});
  for (const index_t nv :
       {index_t{1} << 12, index_t{1} << 16, index_t{1} << 20}) {
    if (nv > n) continue;
    bench::Timing radix_t, cnt_t;
    for (int r = 0; r < reps; ++r) {
      pk::View<std::uint32_t, 1> keys("k", n), vals("v", n);
      for (index_t i = 0; i < n; ++i) {
        keys(i) = static_cast<std::uint32_t>(next_rand() %
                                             static_cast<std::uint64_t>(nv));
        vals(i) = static_cast<std::uint32_t>(i);
      }
      pk::View<std::uint32_t, 1> keys2("k2", n), vals2("v2", n);
      pk::deep_copy(keys2, keys);
      pk::deep_copy(vals2, vals);
      {
        pk::Timer t;
        sort::radix_sort_by_key(keys, vals);
        radix_t.add_sample(t.seconds());
      }
      {
        pk::Timer t;
        sort::counting_sort_by_key(keys2, vals2, nv);
        cnt_t.add_sample(t.seconds());
      }
    }
    const double speedup = radix_t.min_s / cnt_t.min_s;
    kt.row({"2^" + std::to_string(std::bit_width(static_cast<std::uint64_t>(nv)) - 1),
            bench::fmt("%.2f", radix_t.min_s * 1e3),
            bench::fmt("%.2f", cnt_t.min_s * 1e3), bench::fmt("%.2fx", speedup)});
    bench::Json("sort_pipeline")
        .field("mode", "kernel")
        .field("n", static_cast<std::int64_t>(n))
        .field("nv", static_cast<std::int64_t>(nv))
        .timing("radix", radix_t)
        .timing("counting", cnt_t)
        .field("speedup", speedup)
        .print();
  }
  kt.print();

  // ------------------------------------------------------------------
  // Pipeline-level: legacy (allocating, radix, copy-back) vs workspace
  // (counting scatter, ping-pong) sort_particles.
  // ------------------------------------------------------------------
  std::printf("\n-- sort_particles pipelines --\n");
  bench::Table pt({"order", "nv", "legacy radix (ms)", "counting+ws (ms)",
                   "speedup", "steady allocs", "ws B/particle"});
  for (const sort::SortOrder order :
       {sort::SortOrder::Standard, sort::SortOrder::Strided}) {
    for (const index_t nv : {index_t{1} << 12, index_t{1} << 16}) {
      if (nv > n) continue;
      core::Species legacy_sp = make_species(n, nv);
      core::Species ws_sp = make_species(n, nv);

      // Warm up the workspace path so all persistent buffers are sized.
      scramble(ws_sp, 7);
      core::sort_particles(ws_sp, order, 8, 0, nv);

      const std::int64_t allocs0 = pk::view_alloc_count().load();
      const std::int64_t grows0 = ws_sp.sort_ws().grow_count;
      // Each timed rep sorts a freshly disordered array: the prep lambda
      // re-shuffles (untimed) before the measured sort.
      const bench::Timing ws_t = bench::time_reps(
          reps, 0, [&] { core::sort_particles(ws_sp, order, 8, 0, nv); },
          [&](int r) { scramble(ws_sp, 100 + static_cast<std::uint64_t>(r)); });
      const std::int64_t steady_allocs =
          pk::view_alloc_count().load() - allocs0;
      const std::int64_t steady_grows = ws_sp.sort_ws().grow_count - grows0;
      const double ws_bytes = ws_bytes_per_particle(ws_sp);
      const bench::Timing legacy_t = bench::time_reps(
          reps, 0, [&] { legacy_sort_particles(legacy_sp, order, 8); },
          [&](int r) {
            scramble(legacy_sp, 100 + static_cast<std::uint64_t>(r));
          });
      const double speedup = legacy_t.min_s / ws_t.min_s;
      pt.row({sort::to_string(order), std::to_string(nv),
              bench::fmt("%.2f", legacy_t.min_s * 1e3),
              bench::fmt("%.2f", ws_t.min_s * 1e3),
              bench::fmt("%.2fx", speedup), std::to_string(steady_allocs),
              bench::fmt("%.0f", ws_bytes)});
      bench::Json("sort_pipeline")
          .field("mode", "pipeline")
          .field("order", sort::to_string(order))
          .field("n", static_cast<std::int64_t>(n))
          .field("nv", static_cast<std::int64_t>(nv))
          .timing("radix", legacy_t)
          .timing("counting", ws_t)
          .field("speedup", speedup)
          .field("steady_state_view_allocs", steady_allocs)
          .field("steady_state_workspace_grows", steady_grows)
          .field("ws_bytes_per_particle", ws_bytes)
          .print();
    }
  }
  pt.print();
  std::printf(
      "\nAcceptance: counting path >= 1.5x the radix path for nv <= 2^16,\n"
      "and 'steady allocs' (pk::View allocations across post-warm-up\n"
      "sorts) must be 0. 'ws B/particle' is the per-particle sort\n"
      "workspace the order holds: 0 for the AoS Standard sort.\n");

  const std::string report = bench::emit_bench_json("sort_pipeline");
  if (!report.empty())
    std::printf("\nmachine-readable report: %s\n", report.c_str());
  return 0;
}
