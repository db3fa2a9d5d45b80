// Tile-level task decomposition tests (core/tiles.hpp, pk/stealing.hpp,
// docs/TILES.md): tile geometry, bucketing, the tiled sort phase against
// a bucket + per-tile counting sort oracle, seam correctness of
// tile-private accumulator blocks (boundary, corner, reflecting-wall
// crossings vs the untiled reference),
// the work-stealing pool, the level-by-level StepGraph executor, and the
// tiled step's two guarantees — bit-deterministic across 1, 2 and 4
// workers over 100 steps in every sort order, and within a stated
// tolerance of the untiled step (docs/ASYNC.md, "Determinism").
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "core/decks.hpp"
#include "core/simulation.hpp"
#include "core/step_graph.hpp"
#include "core/tiles.hpp"
#include "pk/pk.hpp"
#include "pk/stealing.hpp"

namespace core = vpic::core;
namespace pk = vpic::pk;
using pk::index_t;

namespace {

class PkEnv : public ::testing::Environment {
 public:
  // One kernel thread: with >1 OpenMP threads the float-atomic deposits of
  // the *untiled* reference path are nondeterministic, which would mask
  // what this suite is about — tile decomposition and task scheduling.
  // A pool round opens as many members as it has workers, whatever this
  // setting, so the stealing tests still exercise real parallelism.
  void SetUp() override { pk::initialize(1); }
};
[[maybe_unused]] const auto* const env =
    ::testing::AddGlobalTestEnvironment(new PkEnv);

void expect_bitwise_equal(core::Simulation& a, core::Simulation& b) {
  const auto& fa = a.fields();
  const auto& fb = b.fields();
  const pk::View<float, 1>* va[] = {&fa.ex, &fa.ey, &fa.ez, &fa.bx, &fa.by,
                                    &fa.bz, &fa.jx, &fa.jy, &fa.jz};
  const pk::View<float, 1>* vb[] = {&fb.ex, &fb.ey, &fb.ez, &fb.bx, &fb.by,
                                    &fb.bz, &fb.jx, &fb.jy, &fb.jz};
  const char* names[] = {"ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz"};
  for (int c = 0; c < 9; ++c) {
    ASSERT_EQ(va[c]->size(), vb[c]->size());
    for (index_t i = 0; i < va[c]->size(); ++i)
      ASSERT_EQ((*va[c])(i), (*vb[c])(i))
          << names[c] << " diverges at voxel " << i;
  }
  ASSERT_EQ(a.num_species(), b.num_species());
  for (std::size_t s = 0; s < a.num_species(); ++s) {
    const auto& sa = a.species(s);
    const auto& sb = b.species(s);
    ASSERT_EQ(sa.np, sb.np) << sa.name;
    for (index_t i = 0; i < sa.np; ++i) {
      ASSERT_EQ(sa.p(i).dx, sb.p(i).dx) << sa.name << " particle " << i;
      ASSERT_EQ(sa.p(i).dy, sb.p(i).dy) << sa.name << " particle " << i;
      ASSERT_EQ(sa.p(i).dz, sb.p(i).dz) << sa.name << " particle " << i;
      ASSERT_EQ(sa.p(i).i, sb.p(i).i) << sa.name << " particle " << i;
      ASSERT_EQ(sa.p(i).ux, sb.p(i).ux) << sa.name << " particle " << i;
      ASSERT_EQ(sa.p(i).uy, sb.p(i).uy) << sa.name << " particle " << i;
      ASSERT_EQ(sa.p(i).uz, sb.p(i).uz) << sa.name << " particle " << i;
      ASSERT_EQ(sa.p(i).w, sb.p(i).w) << sa.name << " particle " << i;
    }
  }
}

// 4-ulp comparison, not bitwise: this test TU inlines move_p twice (once
// per accumulator type) and -ffp-contract=fast may fuse multiply-adds
// differently in each expansion. The production push TU instantiates both
// paths together; the end-to-end check is
// TiledStep.MatchesUntiledWithinTolerance below. Here we verify the
// *seam physics*
// (deposits in the right voxels with the right values).
void expect_acc_equal(const core::AccumulatorArray& x,
                      const core::AccumulatorArray& y) {
  ASSERT_EQ(x.a.size(), y.a.size());
  for (index_t v = 0; v < x.a.size(); ++v)
    for (int c = 0; c < 4; ++c) {
      ASSERT_FLOAT_EQ(x.a(v).jx[c], y.a(v).jx[c]) << "jx voxel " << v;
      ASSERT_FLOAT_EQ(x.a(v).jy[c], y.a(v).jy[c]) << "jy voxel " << v;
      ASSERT_FLOAT_EQ(x.a(v).jz[c], y.a(v).jz[c]) << "jz voxel " << v;
    }
}

}  // namespace

// ----------------------------------------------------------------------
// TileMap geometry.
// ----------------------------------------------------------------------

TEST(TileMap, PartitionsInteriorPlanesContiguously) {
  const core::Grid g(4, 4, 10, 4, 4, 10, 0.1f);
  const core::TileMap tm(g, 3);
  ASSERT_EQ(tm.count(), 3);
  EXPECT_EQ(tm.z_lo(0), 1);
  EXPECT_EQ(tm.z_hi(tm.count() - 1), g.nz);
  int planes = 0;
  for (int t = 0; t < tm.count(); ++t) {
    if (t > 0) EXPECT_EQ(tm.z_lo(t), tm.z_hi(t - 1) + 1);
    EXPECT_LE(tm.z_lo(t), tm.z_hi(t));
    planes += tm.z_hi(t) - tm.z_lo(t) + 1;
    EXPECT_EQ(tm.v_lo(t), static_cast<index_t>(tm.z_lo(t)) * tm.plane_voxels());
    EXPECT_EQ(tm.v_hi(t),
              static_cast<index_t>(tm.z_hi(t) + 1) * tm.plane_voxels());
  }
  EXPECT_EQ(planes, g.nz);
}

TEST(TileMap, CountClampsToInteriorPlanes) {
  const core::Grid g(4, 4, 3, 4, 4, 3, 0.1f);
  EXPECT_EQ(core::TileMap(g, 64).count(), 3);  // never more tiles than planes
  EXPECT_EQ(core::TileMap(g, 0).count(), 1);
  EXPECT_GE(core::TileMap::auto_count(g, 2), 1);
  EXPECT_LE(core::TileMap::auto_count(g, 2), 3);
}

TEST(TileMap, AutoCountClampsWorkersBeforeScaling) {
  // 4 * workers overflows int above 2^29 workers; the count must still be
  // the plane count.
  const core::Grid g(4, 4, 8, 4, 4, 8, 0.1f);
  EXPECT_EQ(core::TileMap::auto_count(g, INT_MAX), g.nz);
  EXPECT_EQ(core::TileMap::auto_count(g, 1 << 30), g.nz);
  EXPECT_EQ(core::TileMap::auto_count(g, 0), 4);
}

TEST(TileMap, TileOfVoxelMatchesPlaneOwnershipAndClampsGhosts) {
  const core::Grid g(4, 4, 8, 4, 4, 8, 0.1f);
  const core::TileMap tm(g, 4);
  for (int t = 0; t < tm.count(); ++t)
    for (int z = tm.z_lo(t); z <= tm.z_hi(t); ++z)
      EXPECT_EQ(tm.tile_of_voxel(g.voxel(2, 2, z)), t) << "plane " << z;
  EXPECT_EQ(tm.tile_of_voxel(g.voxel(2, 2, 0)), 0);           // low ghost
  EXPECT_EQ(tm.tile_of_voxel(g.voxel(2, 2, g.nz + 1)),        // high ghost
            tm.count() - 1);
}

// ----------------------------------------------------------------------
// Bucketing.
// ----------------------------------------------------------------------

namespace {

// Deterministic scramble of cell assignments across the whole interior.
core::Species make_scrambled_species(const core::Grid& g, int n) {
  core::Species sp("e", -1.0f, 1.0f, static_cast<index_t>(n) + 8);
  for (int k = 0; k < n; ++k) {
    core::Particle p{};
    const int ix = 1 + (k * 7 + 3) % g.nx;
    const int iy = 1 + (k * 5 + 1) % g.ny;
    const int iz = 1 + (k * 11 + 2) % g.nz;
    p.i = static_cast<std::int32_t>(g.voxel(ix, iy, iz));
    p.ux = static_cast<float>(k);  // identity tag: tracks the permutation
    sp.p.set(sp.np++, p);
  }
  return sp;
}

std::vector<core::Particle> records(const core::Species& sp) {
  std::vector<core::Particle> out(static_cast<std::size_t>(sp.np));
  std::copy_n(sp.p.data(), sp.np, out.data());
  return out;
}

}  // namespace

TEST(BucketByTile, PartitionsByTileStably) {
  const core::Grid g(4, 4, 8, 4, 4, 8, 0.1f);
  const core::TileMap tm(g, 4);
  core::Species sp = make_scrambled_species(g, 200);
  core::bucket_by_tile(sp, tm);

  ASSERT_EQ(static_cast<int>(sp.tiles.size()), tm.count());
  EXPECT_EQ(sp.tiles.front().begin, 0);
  EXPECT_EQ(sp.tiles.back().end, sp.np);
  EXPECT_TRUE(core::tiles_cover(sp, sp.tiles.size()));
  float prev_tag = -1.0f;
  for (int t = 0; t < tm.count(); ++t) {
    const auto& slot = sp.tiles[static_cast<std::size_t>(t)];
    if (t > 0) EXPECT_EQ(slot.begin, sp.tiles[static_cast<std::size_t>(t - 1)].end);
    prev_tag = -1.0f;
    for (index_t i = slot.begin; i < slot.end; ++i) {
      EXPECT_EQ(tm.tile_of_voxel(sp.p(i).i), t) << "particle " << i;
      // Stability: tags ascend within a tile (insertion order preserved).
      EXPECT_GT(sp.p(i).ux, prev_tag);
      prev_tag = sp.p(i).ux;
    }
  }
}

TEST(BucketByTile, AscendingVoxelOrderIsIdentityPermutation) {
  // Decks load particles in ascending voxel order, so the initial bucket
  // must not move anything: a tiled run starts from the untiled order.
  const core::Grid g(4, 4, 8, 4, 4, 8, 0.1f);
  const core::TileMap tm(g, 3);
  core::Species sp("e", -1.0f, 1.0f, 600);
  int k = 0;
  for (int iz = 1; iz <= g.nz; ++iz)
    for (int iy = 1; iy <= g.ny; ++iy)
      for (int ix = 1; ix <= g.nx; ++ix) {
        core::Particle p{};
        p.i = static_cast<std::int32_t>(g.voxel(ix, iy, iz));
        p.ux = static_cast<float>(k++);
        sp.p(sp.np++) = p;
      }
  // Tile-major already: the permute is skipped, so `p` keeps its buffer
  // (no ping-pong swap) as well as its contents.
  const core::Particle* const buffer = sp.p.data();
  core::bucket_by_tile(sp, tm);
  EXPECT_EQ(sp.p.data(), buffer);
  for (index_t i = 0; i < sp.np; ++i)
    ASSERT_EQ(sp.p(i).ux, static_cast<float>(i)) << "moved at " << i;
  EXPECT_EQ(sp.tiles.back().end, sp.np);
}

TEST(TileImbalance, ReportsMaxOverMean) {
  const core::Grid g(4, 4, 4, 4, 4, 4, 0.1f);
  const core::TileMap tm(g, 4);
  core::Species sp("e", -1.0f, 1.0f, 64);
  for (int k = 0; k < 30; ++k) {  // all particles in plane 1 -> tile 0
    core::Particle p{};
    p.i = static_cast<std::int32_t>(g.voxel(1 + k % g.nx, 1, 1));
    sp.p(sp.np++) = p;
  }
  core::bucket_by_tile(sp, tm);
  EXPECT_NEAR(core::tile_imbalance(sp), 4.0, 1e-9);  // 30 / (30/4)
}

TEST(BucketByTile, PartitionMatchesStableSortByTileAtOneAndFourThreads) {
  // The general partition (one counting sort over tile ids, read from
  // the records) equals a stable sort by tile id byte for byte, whether
  // one thread or four histogram and scatter.
  const core::Grid g(4, 4, 8, 4, 4, 8, 0.1f);
  const core::TileMap tm(g, 3);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    pk::initialize(threads);
    core::Species sp = make_scrambled_species(g, 2000);
    std::vector<core::Particle> want = records(sp);
    std::stable_sort(want.begin(), want.end(),
                     [&tm](const core::Particle& a, const core::Particle& b) {
                       return tm.tile_of_voxel(a.i) < tm.tile_of_voxel(b.i);
                     });
    core::bucket_by_tile(sp, tm);
    pk::initialize(1);
    const std::vector<core::Particle> got = records(sp);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(core::Particle)),
              0);
    ASSERT_TRUE(core::tiles_cover(sp, static_cast<std::size_t>(tm.count())));
    for (int t = 0; t < tm.count(); ++t) {
      const auto& slot = sp.tiles[static_cast<std::size_t>(t)];
      for (index_t i = slot.begin; i < slot.end; ++i)
        ASSERT_EQ(tm.tile_of_voxel(got[static_cast<std::size_t>(i)].i), t);
    }
  }
}

TEST(BucketByTile, SortedRangesMatchTheGeneralPartition) {
  // A species fresh from a Standard sort takes its tile ranges from one
  // binary search per tile, unchecked; one whose hint has aged is checked
  // first, found tile-major and searched the same way. Both must give the
  // ranges of a stable partition by tile id (each tile's count, summed in
  // tile order) and leave the array where it is, for every tile count, on
  // the clumped deck and on a sorted prefix of it whose upper tiles hold
  // no particle.
  core::decks::LpiParams p;
  p.nx = 8;
  p.ny = 4;
  p.nz = 8;
  p.ppc = 4;
  p.clump_factor = 4.0f;
  core::Simulation sim = core::decks::make_lpi(p);
  sim.run(3);  // particles leave their ascending load order
  const core::Grid& g = sim.grid();
  bool saw_empty = false;
  for (const bool prefix : {false, true}) {
    for (std::size_t s = 0; s < sim.num_species(); ++s) {
      SCOPED_TRACE(sim.species(s).name + (prefix ? " prefix" : ""));
      core::Species& sp = sim.species(s);
      core::sort_particles(sp, vpic::sort::SortOrder::Standard, 0, 1, g.nv());
      if (prefix) sp.np /= 3;
      const std::vector<core::Particle> sorted = records(sp);
      for (int nt = 1; nt <= g.nz; ++nt) {
        const core::TileMap tm(g, nt);
        std::vector<index_t> want(static_cast<std::size_t>(nt) + 1, 0);
        for (const core::Particle& q : sorted)
          ++want[static_cast<std::size_t>(tm.tile_of_voxel(q.i)) + 1];
        for (int t = 0; t < nt; ++t) {
          saw_empty = saw_empty || want[static_cast<std::size_t>(t) + 1] == 0;
          want[static_cast<std::size_t>(t) + 1] +=
              want[static_cast<std::size_t>(t)];
        }
        for (const bool fresh : {true, false}) {
          sp.mark_sorted(true);
          if (!fresh) sp.mark_order_degraded();
          const core::Particle* const buffer = sp.p.data();
          core::bucket_by_tile(sp, tm);
          EXPECT_EQ(sp.p.data(), buffer) << nt << " tiles: the array moved";
          ASSERT_EQ(sp.tiles.size(), static_cast<std::size_t>(nt));
          for (std::size_t t = 0; t < sp.tiles.size(); ++t) {
            EXPECT_EQ(sp.tiles[t].begin, want[t])
                << nt << " tiles, tile " << t << (fresh ? "" : ", checked");
            EXPECT_EQ(sp.tiles[t].end, want[t + 1])
                << nt << " tiles, tile " << t << (fresh ? "" : ", checked");
          }
        }
      }
      sp.mark_sorted(true);
    }
  }
  EXPECT_TRUE(saw_empty);
}

// ----------------------------------------------------------------------
// Tile seam correctness: move_p into a tile-private block, merged, must
// equal the untiled deposit — boundary, corner, and reflecting-wall
// crossings included.
// ----------------------------------------------------------------------

namespace {

// Run the same trajectory through a TileAccumulator (owned by the tile of
// the particle's starting voxel) and the global array; compare deposits
// and final particle state bit for bit.
void check_seam_crossing(const core::Grid& g, const core::TileMap& tm,
                         core::Particle start, float dx, float dy, float dz,
                         std::uint8_t periodic_mask,
                         std::uint8_t reflect_mask) {
  core::Particle p_tile = start, p_ref = start;

  core::AccumulatorArray ref(g);
  ref.clear();
  const auto r_ref = core::move_p<false>(p_ref, dx, dy, dz, 1.0f, ref, g,
                                         periodic_mask, nullptr, reflect_mask);

  const int t = tm.tile_of_voxel(start.i);
  core::TileAccumulator blk(g, tm, t);
  blk.clear();
  const auto r_tile = core::move_p<false>(p_tile, dx, dy, dz, 1.0f, blk, g,
                                          periodic_mask, nullptr, reflect_mask);
  core::AccumulatorArray merged(g);
  merged.clear();
  blk.merge_into(merged);

  EXPECT_EQ(r_tile, r_ref);
  EXPECT_EQ(p_tile.i, p_ref.i);
  EXPECT_FLOAT_EQ(p_tile.dx, p_ref.dx);
  EXPECT_FLOAT_EQ(p_tile.dy, p_ref.dy);
  EXPECT_FLOAT_EQ(p_tile.dz, p_ref.dz);
  EXPECT_FLOAT_EQ(p_tile.ux, p_ref.ux);
  EXPECT_FLOAT_EQ(p_tile.uy, p_ref.uy);
  EXPECT_FLOAT_EQ(p_tile.uz, p_ref.uz);
  expect_acc_equal(merged, ref);
}

}  // namespace

TEST(TileSeams, ZBoundaryCrossingDepositsIntoGhostPlaneWindow) {
  const core::Grid g(4, 4, 8, 4, 4, 8, 0.1f);
  const core::TileMap tm(g, 2);  // seam between planes 4 and 5
  core::Particle p{};
  p.dz = 0.6f;
  p.i = static_cast<std::int32_t>(g.voxel(2, 2, tm.z_hi(0)));
  p.uz = 0.5f;
  check_seam_crossing(g, tm, p, 0.0f, 0.0f, 0.8f, 0b111, 0);
}

TEST(TileSeams, CornerCrossingThroughSeamPlane) {
  const core::Grid g(4, 4, 8, 4, 4, 8, 0.1f);
  const core::TileMap tm(g, 2);
  core::Particle p{};
  p.dx = 0.9f;
  p.dy = 0.9f;
  p.dz = 0.9f;
  p.i = static_cast<std::int32_t>(g.voxel(3, 3, tm.z_hi(0)));
  // Crosses +x, +y, and the +z seam in one move: four deposit segments,
  // the last landing in the neighbor tile's first plane (our ghost plane).
  check_seam_crossing(g, tm, p, 0.8f, 0.8f, 0.8f, 0b111, 0);
}

TEST(TileSeams, ReflectingWallAtDomainFace) {
  const core::Grid g(4, 4, 8, 4, 4, 8, 0.1f);
  const core::TileMap tm(g, 2);
  core::Particle p{};
  p.dz = 0.5f;
  p.i = static_cast<std::int32_t>(g.voxel(2, 2, g.nz));  // top plane, tile 1
  p.uz = 1.0f;
  check_seam_crossing(g, tm, p, 0.0f, 0.0f, 0.9f, 0b011, 0b100);
}

TEST(TileSeams, PeriodicZWrapLandsInOverflowAndMergesExactly) {
  const core::Grid g(4, 4, 8, 4, 4, 8, 0.1f);
  const core::TileMap tm(g, 2);
  core::Particle start{};
  start.dz = 0.9f;
  start.i = static_cast<std::int32_t>(g.voxel(2, 2, g.nz));
  check_seam_crossing(g, tm, start, 0.0f, 0.0f, 0.4f, 0b111, 0);

  // The wrapped deposit (plane 1) is outside tile 1's window (planes
  // 3..9): confirm the overflow map actually caught it.
  core::Particle p = start;
  core::TileAccumulator blk(g, tm, 1);
  blk.clear();
  (void)core::move_p<false>(p, 0.0f, 0.0f, 0.4f, 1.0f, blk, g);
  EXPECT_GE(blk.overflow_size(), 1u);
}

TEST(TileAccumulator, ClearResetsWindowAndOverflow) {
  const core::Grid g(4, 4, 8, 4, 4, 8, 0.1f);
  const core::TileMap tm(g, 2);
  core::TileAccumulator blk(g, tm, 0);
  blk.clear();
  blk.a(g.voxel(2, 2, 2)).jx[0] = 1.0f;                // window
  blk.a(g.voxel(2, 2, g.nz)).jy[1] = 2.0f;             // overflow
  EXPECT_EQ(blk.overflow_size(), 1u);
  blk.clear();
  EXPECT_EQ(blk.overflow_size(), 0u);
  core::AccumulatorArray merged(g);
  merged.clear();
  blk.merge_into(merged);
  for (index_t v = 0; v < merged.a.size(); ++v)
    for (int c = 0; c < 4; ++c) ASSERT_EQ(merged.a(v).jx[c], 0.0f);
}

// ----------------------------------------------------------------------
// Work-stealing pool.
// ----------------------------------------------------------------------

TEST(StealPool, RunsEverySeededTaskExactlyOnce) {
  pk::StealPool pool(4);
  constexpr int kTasks = 64;
  std::vector<std::atomic<int>> ran(kTasks);
  for (int k = 0; k < kTasks; ++k)
    pool.seed(k % pool.workers(), [&ran, k] { ran[static_cast<std::size_t>(k)]++; });
  const auto stats = pool.run();
  EXPECT_EQ(stats.tasks_run, static_cast<std::uint64_t>(kTasks));
  for (int k = 0; k < kTasks; ++k) EXPECT_EQ(ran[static_cast<std::size_t>(k)].load(), 1) << k;
}

TEST(StealPool, EveryWorkerProbesEveryOtherUnderTheDefaultSeed) {
  // A zero xorshift state stays 0, and a victim stream stuck on one
  // worker cannot balance load away from the others: under the default
  // seed every worker must draw every other worker, and never itself.
  constexpr int kWorkers = 4;
  const std::uint64_t kDefaultSeed = core::TileConfig{}.steal_seed;
  for (int self = 0; self < kWorkers; ++self) {
    std::uint64_t state = pk::detail::steal_rng_state(kDefaultSeed, self);
    EXPECT_NE(state, 0u) << "worker " << self;
    std::vector<int> hits(kWorkers, 0);
    for (int draw = 0; draw < 64; ++draw)
      ++hits[static_cast<std::size_t>(
          pk::detail::steal_victim(state, self, kWorkers))];
    for (int v = 0; v < kWorkers; ++v) {
      const int h = hits[static_cast<std::size_t>(v)];
      if (v == self) {
        EXPECT_EQ(h, 0) << "worker " << self << " probes itself";
      } else {
        EXPECT_GT(h, 0) << "worker " << self << " never probes " << v;
      }
    }
  }
}

TEST(StealPool, StealsWhenSeedingIsLopsided) {
  pk::StealPool pool(4);
  std::atomic<int> ran{0};
  // Everything lands on worker 0's deque; the other three must steal.
  // Tasks sleep (not spin) so on a 1-CPU box the owner yields the core
  // mid-task and the thieves actually get scheduled while work remains.
  for (int k = 0; k < 100; ++k)
    pool.seed(0, [&ran] {
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      ran++;
    });
  const auto stats = pool.run();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_GT(stats.steal_attempts, 0u);
  EXPECT_GT(stats.tasks_stolen, 0u);
}

TEST(StealPool, CurrentWorkerIsSetInsideTasksOnly) {
  pk::StealPool pool(3);
  EXPECT_EQ(pk::StealPool::current_worker(), -1);
  std::atomic<int> bad{0};
  for (int k = 0; k < 12; ++k)
    pool.seed(k % 3, [&bad] {
      const int w = pk::StealPool::current_worker();
      if (w < 0 || w >= 3) bad++;
    });
  pool.run();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(pk::StealPool::current_worker(), -1);
}

#if PK_HAVE_OPENMP
TEST(StealPool, RoundInsideAnActiveParallelRegionRunsEveryTaskOnce) {
  // Nested OpenMP regions are inactive, so a round started inside an
  // active one gets a single member, which must steal every other deque.
  pk::StealPool pool(4);
  constexpr int kTasks = 40;
  std::vector<std::atomic<int>> ran(kTasks);
  std::atomic<int> off_member0{0};
  for (int k = 0; k < kTasks; ++k)
    pool.seed(k % pool.workers(), [&ran, &off_member0, k] {
      ran[static_cast<std::size_t>(k)]++;
      if (pk::StealPool::current_worker() != 0) off_member0++;
    });
  pk::StealStats stats;
  bool active = false;
#pragma omp parallel num_threads(2)
  {
#pragma omp single
    {
      active = omp_in_parallel() != 0;
      stats = pool.run();
    }
  }
  ASSERT_TRUE(active) << "the outer region was not active";
  EXPECT_EQ(stats.tasks_run, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(off_member0.load(), 0);
  for (int k = 0; k < kTasks; ++k)
    EXPECT_EQ(ran[static_cast<std::size_t>(k)].load(), 1) << k;
}
#endif

TEST(StealPool, FirstExceptionPropagatesAfterRoundDrains) {
  pk::StealPool pool(2);
  std::atomic<int> ran{0};
  pool.seed(0, [] { throw std::runtime_error("task boom"); });
  for (int k = 0; k < 10; ++k) pool.seed(k % 2, [&ran] { ran++; });
  EXPECT_THROW(pool.run(), std::runtime_error);
  EXPECT_EQ(ran.load(), 10);  // the round still drained
  // The pool stays usable for the next round.
  pool.seed(1, [&ran] { ran++; });
  EXPECT_NO_THROW(pool.run());
  EXPECT_EQ(ran.load(), 11);
}

// ----------------------------------------------------------------------
// StepGraph executor: level by level, multi-phase levels on the pool.
// ----------------------------------------------------------------------

TEST(StepGraphExecute, RunsLevelsInInsertionOrderWithoutAPool) {
  // x is added first but ordered after y, so it runs a level later; y and
  // z share level 0 and keep their insertion order.
  core::StepGraph g;
  std::vector<std::string> order;
  for (const char* n : {"x", "y", "z"})
    g.add_phase({n, {}, {std::string("res.") + n}, [&order, n] { order.emplace_back(n); }});
  g.add_edge("y", "x");
  EXPECT_EQ(g.execute(nullptr).tasks_run, 0u);
  EXPECT_EQ(order, (std::vector<std::string>{"y", "z", "x"}));
  EXPECT_EQ(g.last_concurrency_peak(), 1u);
}

TEST(StepGraphExecute, RespectsDependenciesOnAPool) {
  pk::StealPool pool(3);
  core::StepGraph g;
  std::atomic<int> done_a{0};
  std::atomic<int> bad{0};
  std::atomic<int> mids{0};
  g.add_phase({"a", {}, {"x"}, [&done_a] { done_a = 1; }, 4.0});
  for (int k = 0; k < 6; ++k) {
    const std::string name = "mid" + std::to_string(k);
    g.add_phase({name,
                 {"x"},
                 {"y" + std::to_string(k)},
                 [&done_a, &bad, &mids] {
                   if (!done_a.load()) bad++;
                   mids++;
                 },
                 1.0 + k});
    g.add_edge("a", name);
  }
  g.add_phase({"z",
               {},
               {"z"},
               [&mids, &bad] {
                 if (mids.load() != 6) bad++;
               }});
  for (int k = 0; k < 6; ++k) g.add_edge("mid" + std::to_string(k), "z");
  const auto stats = g.execute(&pool);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(mids.load(), 6);
  EXPECT_EQ(stats.tasks_run, 6u);  // only the wide level is a pool round
  EXPECT_EQ(g.last_stats().size(), 8u);
  EXPECT_EQ(g.last_concurrency_peak(), 3u);
}

TEST(StepGraphExecute, SinglePhaseLevelsRunOnTheCallingThread) {
  pk::StealPool pool(2);
  core::StepGraph g;
  std::map<std::string, int> worker;
  std::mutex mu;
  const auto record = [&](const std::string& n) {
    return [&, n] {
      const std::lock_guard<std::mutex> lk(mu);
      worker[n] = pk::StealPool::current_worker();
    };
  };
  g.add_phase({"first", {}, {"x"}, record("first")});
  for (int k = 0; k < 4; ++k) {
    const std::string name = "wide" + std::to_string(k);
    g.add_phase({name, {"x"}, {"w" + std::to_string(k)}, record(name)});
    g.add_edge("first", name);
  }
  g.add_phase({"last", {"w0", "w1", "w2", "w3"}, {"x"}, record("last")});
  for (int k = 0; k < 4; ++k) g.add_edge("wide" + std::to_string(k), "last");
  g.execute(&pool);
  ASSERT_EQ(worker.size(), 6u);
  EXPECT_EQ(worker["first"], -1);
  EXPECT_EQ(worker["last"], -1);
  for (int k = 0; k < 4; ++k) {
    const int w = worker["wide" + std::to_string(k)];
    EXPECT_GE(w, 0) << k;
    EXPECT_LT(w, 2) << k;
  }
}

TEST(StepGraphExecute, PhaseExceptionStopsLaterLevels) {
  pk::StealPool pool(2);
  for (const bool wide : {false, true}) {
    SCOPED_TRACE(wide ? "pool round" : "calling thread");
    core::StepGraph g;
    std::atomic<int> sibling{0};
    std::atomic<int> after{0};
    g.add_phase(
        {"boom", {}, {"x"}, [] { throw std::runtime_error("phase boom"); }});
    if (wide) g.add_phase({"sibling", {}, {"s"}, [&sibling] { sibling++; }});
    g.add_phase({"after", {"x"}, {"y"}, [&after] { after++; }});
    g.add_edge("boom", "after");
    EXPECT_THROW(g.execute(&pool), std::runtime_error);
    EXPECT_EQ(after.load(), 0);
    EXPECT_EQ(sibling.load(), wide ? 1 : 0);  // a round still drains
  }
}

// ----------------------------------------------------------------------
// Clumped LPI deck (LpiParams::clump_factor).
// ----------------------------------------------------------------------

TEST(ClumpedDeck, ZeroFactorIsBitwiseIdenticalToBaseline) {
  core::decks::LpiParams p;
  p.nx = 8;
  p.ny = 4;
  p.nz = 6;
  p.ppc = 4;
  core::Simulation base = core::decks::make_lpi(p);
  p.clump_factor = 0.0f;
  core::Simulation zero = core::decks::make_lpi(p);
  expect_bitwise_equal(base, zero);
}

TEST(ClumpedDeck, ClumpingConcentratesParticlesNotCharge) {
  core::decks::LpiParams p;
  p.nx = 8;
  p.ny = 4;
  p.nz = 12;
  p.ppc = 4;
  core::Simulation uni = core::decks::make_lpi(p);
  p.clump_factor = 6.0f;
  core::Simulation clump = core::decks::make_lpi(p);

  const auto& su = uni.species(0);
  const auto& sc = clump.species(0);
  EXPECT_GT(sc.np, su.np);  // boosted cells carry extra particles

  // Per-cell: particle count varies, summed weight stays 1 (the weight is
  // divided by the same boost, so the physical density is unchanged).
  std::map<std::int32_t, int> count;
  std::map<std::int32_t, double> weight;
  for (index_t i = 0; i < sc.np; ++i) {
    count[sc.p(i).i]++;
    weight[sc.p(i).i] += static_cast<double>(sc.p(i).w);
  }
  int min_c = 1 << 30, max_c = 0;
  for (const auto& [v, c] : count) {
    min_c = std::min(min_c, c);
    max_c = std::max(max_c, c);
  }
  EXPECT_GT(max_c, p.ppc);       // center cells clumped
  EXPECT_LE(min_c, p.ppc);       // edge cells at baseline
  for (const auto& [v, w] : weight) EXPECT_NEAR(w, 1.0, 1e-5) << "voxel " << v;
}

// ----------------------------------------------------------------------
// Tiled simulation: bit-determinism across worker counts, agreement with
// the untiled step, telemetry, per-tile staleness.
// ----------------------------------------------------------------------

namespace {

struct TiledDeck {
  const char* name;
  core::decks::LpiParams params;
  int tiles;
};

// The 12x6x6 LPI deck, and a clumped one whose uneven tiles make the pool
// steal.
std::vector<TiledDeck> tiled_decks() {
  core::decks::LpiParams lpi;
  lpi.nx = 12;
  lpi.ny = 6;
  lpi.nz = 6;
  lpi.ppc = 4;
  core::decks::LpiParams clumped;
  clumped.nx = 8;
  clumped.ny = 4;
  clumped.nz = 8;
  clumped.ppc = 4;
  clumped.clump_factor = 4.0f;
  return {{"lpi", lpi, 3}, {"clumped", clumped, 4}};
}

// 100 steps cross the sort interval (20) several times, so the sort and
// its bucket pass run, and energy_interval = 10 samples the history.
// workers = 0 runs the untiled step.
core::Simulation run_100(const TiledDeck& d, int workers) {
  core::Simulation sim = core::decks::make_lpi(d.params);
  sim.config().energy_interval = 10;
  if (workers > 0) {
    sim.config().tiles.enabled = true;
    sim.config().tiles.count = d.tiles;
    sim.config().tiles.workers = workers;
  }
  sim.run(100);
  return sim;
}

}  // namespace

TEST(TiledStep, BitDeterministicAcrossWorkerCounts) {
  for (const TiledDeck& d : tiled_decks()) {
    SCOPED_TRACE(d.name);
    core::Simulation ref = run_100(d, 1);
    const auto& ha = ref.energy_history();
    ASSERT_GT(ha.size(), 0u);
    for (const int workers : {2, 4}) {
      SCOPED_TRACE(std::to_string(workers) + " workers");
      core::Simulation sim = run_100(d, workers);
      EXPECT_GT(sim.last_tile_stats().steal.tasks_run, 0u);
      expect_bitwise_equal(ref, sim);
      const auto& hb = sim.energy_history();
      ASSERT_EQ(ha.size(), hb.size());
      for (std::size_t i = 0; i < ha.size(); ++i) {
        EXPECT_EQ(ha.step(i), hb.step(i));
        EXPECT_EQ(ha.field(i), hb.field(i));
        EXPECT_EQ(ha.kinetic(i), hb.kinetic(i));
      }
    }
  }
}

TEST(TiledStep, OneWorkerRunsNoPoolRound) {
  // One worker builds no pool: every level runs on the calling thread,
  // and the result is the one the pool gives at 2 and 4 workers.
  const TiledDeck d = tiled_decks().front();
  const auto run = [&d](int workers) {
    core::Simulation sim = core::decks::make_lpi(d.params);
    sim.config().energy_interval = 10;
    sim.config().tiles.enabled = true;
    sim.config().tiles.count = d.tiles;
    sim.config().tiles.workers = workers;
    for (int n = 0; n < 25; ++n) {
      sim.step();
      if (workers == 1) {
        EXPECT_EQ(sim.last_tile_stats().steal.tasks_run, 0u) << "step " << n;
        EXPECT_EQ(sim.last_concurrency_peak(), 1u) << "step " << n;
      }
    }
    return sim;
  };
  core::Simulation one = run(1);
  for (const int workers : {2, 4}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    core::Simulation sim = run(workers);
    EXPECT_GT(sim.last_tile_stats().steal.tasks_run, 0u);
    expect_bitwise_equal(one, sim);
    const auto& ha = one.energy_history();
    const auto& hb = sim.energy_history();
    ASSERT_EQ(ha.size(), hb.size());
    for (std::size_t i = 0; i < ha.size(); ++i) {
      EXPECT_EQ(ha.field(i), hb.field(i));
      EXPECT_EQ(ha.kinetic(i), hb.kinetic(i));
    }
  }
}

TEST(TiledStep, MatchesUntiledWithinTolerance) {
  // Tile-private blocks add the deposits in another float grouping than
  // the untiled step, so the shapes agree to a tolerance, not bit for bit
  // (docs/ASYNC.md, "Determinism").
  const auto rel = [](double a, double b) {
    return std::abs(a - b) / std::abs(b);
  };
  for (const TiledDeck& d : tiled_decks()) {
    SCOPED_TRACE(d.name);
    // The untiled step at the environment's thread count (OMP_NUM_THREADS,
    // else every core), where its float-atomic deposits reorder: the
    // tolerance must hold there, not only at this suite's one thread.
    pk::finalize();
    pk::initialize();
    core::Simulation untiled = run_100(d, 0);
    pk::initialize(1);
    core::Simulation tiled = run_100(d, 2);
    ASSERT_EQ(tiled.num_species(), untiled.num_species());
    for (std::size_t s = 0; s < untiled.num_species(); ++s)
      EXPECT_EQ(tiled.species(s).np, untiled.species(s).np);
    const core::EnergyReport eu = untiled.energies();
    const core::EnergyReport et = tiled.energies();
    EXPECT_LT(rel(et.field, eu.field), 1e-5);
    for (std::size_t s = 0; s < eu.species.size(); ++s)
      EXPECT_LT(rel(et.species[s], eu.species[s]), 1e-5) << "species " << s;
    EXPECT_LT(rel(et.total(), eu.total()), 1e-6);
  }
}

TEST(TiledStep, PublishesTileTelemetry) {
  core::decks::LpiParams p;
  p.nx = 8;
  p.ny = 4;
  p.nz = 12;
  p.ppc = 4;
  p.clump_factor = 6.0f;
  core::Simulation sim = core::decks::make_lpi(p);
  sim.config().tiles.enabled = true;
  sim.config().tiles.count = 4;
  sim.config().tiles.workers = 2;
  sim.step();
  const auto& st = sim.last_tile_stats();
  EXPECT_EQ(st.tiles, 4);
  EXPECT_GT(st.imbalance, 1.05);  // the clump loads the middle tiles
  EXPECT_GT(st.steal.tasks_run, 0u);
  EXPECT_EQ(sim.tile_map().count(), 4);
  // Phase stats carry per-tile push phases.
  bool saw_tile_push = false;
  for (const auto& ps : sim.last_phase_stats())
    if (ps.name.rfind("push[", 0) == 0 &&
        ps.name.find(".t") != std::string::npos)
      saw_tile_push = true;
  EXPECT_TRUE(saw_tile_push);
}

TEST(TiledStep, RestoredSortedDeckPushesLikeUntiled) {
  // Tiles dispatch off the species' sortedness and their range's size: a
  // deck restored from a checkpoint taken right after a Standard sort
  // takes the untiled step's push paths on its first step, tiled too.
  const std::string path = ::testing::TempDir() + "vpic_tiles_sorted.ckpt";
  core::decks::LpiParams p = tiled_decks().front().params;
  p.sort_interval = 5;
  {
    core::Simulation sim = core::decks::make_lpi(p);
    sim.run(5);  // step 5 sorts, then checkpoints
    sim.checkpoint(path);
  }
  std::vector<core::PushPath> paths[2];
  for (const bool tiled : {false, true}) {
    core::Simulation sim = core::decks::make_lpi(p);
    sim.config().tiles.enabled = tiled;
    sim.config().tiles.count = tiled_decks().front().tiles;
    sim.config().tiles.workers = 2;
    sim.restore(path);
    sim.step();
    paths[tiled ? 1 : 0] = sim.last_push_paths();
  }
  std::remove(path.c_str());
  ASSERT_EQ(paths[0].size(), 2u);
  EXPECT_EQ(paths[0], paths[1]);
  for (const core::PushPath taken : paths[0])
    EXPECT_EQ(taken, core::PushPath::RunAware);  // fresh from the sort
}

TEST(TiledStep, PhasePollFiresAtTileGranularity) {
  core::decks::LpiParams p;
  p.nx = 8;
  p.ny = 4;
  p.nz = 8;
  p.ppc = 2;
  core::Simulation sim = core::decks::make_lpi(p);
  sim.config().tiles.enabled = true;
  sim.config().tiles.count = 4;
  std::atomic<int> polls{0};
  sim.set_phase_poll([&polls] { polls++; });
  sim.step();
  // At minimum one poll per tile push phase (2 species x 4 tiles): far
  // more observation points per step than the untiled step's single
  // yield.
  EXPECT_GE(polls.load(), 8);
}

TEST(TiledStep, EverySortOrderBitDeterministicAcrossWorkerCounts) {
  // The tiled step sorts through the untiled step's sort phase, so every
  // order runs tiled. Run at the environment's thread count (CI reruns
  // this suite at OMP_NUM_THREADS=4): the strided rewrites number each
  // key's occurrences in index order, so the kernel threads cannot
  // reorder them.
  pk::finalize();
  pk::initialize();
  for (const auto order :
       {vpic::sort::SortOrder::Standard, vpic::sort::SortOrder::Strided,
        vpic::sort::SortOrder::TiledStrided, vpic::sort::SortOrder::Random}) {
    SCOPED_TRACE(vpic::sort::to_string(order));
    TiledDeck d = tiled_decks().front();
    d.params.sort_order = order;
    core::Simulation ref = run_100(d, 1);
    const auto& ha = ref.energy_history();
    ASSERT_GT(ha.size(), 0u);
    for (const int workers : {2, 4}) {
      SCOPED_TRACE(std::to_string(workers) + " workers");
      core::Simulation sim = run_100(d, workers);
      expect_bitwise_equal(ref, sim);
      const auto& hb = sim.energy_history();
      ASSERT_EQ(ha.size(), hb.size());
      for (std::size_t i = 0; i < ha.size(); ++i) {
        EXPECT_EQ(ha.field(i), hb.field(i));
        EXPECT_EQ(ha.kinetic(i), hb.kinetic(i));
      }
    }
  }
  pk::initialize(1);
}

#if defined(__linux__)
TEST(ThreadCensus, TiledStepsWithAnAsyncRingHoldOneTeamAndTheWriter) {
  // Pool rounds run on the stepping thread's OpenMP team and the async
  // ring commits on one writer thread, so after tiled steps the process
  // holds max(workers, team size) threads, this one included, plus the
  // writer (docs/ASYNC.md, "Threads").
  pk::finalize();
  pk::initialize();  // the environment's thread count
  const int team = pk::DefaultExecSpace::concurrency();
  constexpr int kWorkers = 4;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "vpic_thread_census";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::size_t threads = 0;
  {
    core::Simulation sim = core::decks::make_lpi(tiled_decks().back().params);
    sim.config().tiles.enabled = true;
    sim.config().tiles.workers = kWorkers;
    sim.config().checkpoint_every = 5;
    sim.config().checkpoint_path = (dir / "ck").string();
    sim.config().checkpoint_async = true;
    sim.run(20);
    for ([[maybe_unused]] const auto& task :
         std::filesystem::directory_iterator("/proc/self/task"))
      ++threads;
    EXPECT_NO_THROW(sim.checkpoint_wait());
  }
  pk::initialize(1);
  std::filesystem::remove_all(dir);
  EXPECT_LE(threads, static_cast<std::size_t>(std::max(kWorkers, team) + 1))
      << "team size " << team;
}
#endif

namespace {

// Oracle: the tiled sort as it ran before the tiled step sorted through
// sort_particles — a stable counting sort by tile id, then a serial
// stable counting sort by voxel inside each tile.
std::vector<core::Particle> bucket_then_tile_sort(
    const std::vector<core::Particle>& in, const core::TileMap& tm) {
  namespace sd = vpic::sort::detail;
  const auto n = static_cast<index_t>(in.size());
  const index_t nt = tm.count();
  std::vector<std::uint32_t> tkeys(in.size());
  for (std::size_t i = 0; i < in.size(); ++i)
    tkeys[i] = static_cast<std::uint32_t>(tm.tile_of_voxel(in[i].i));
  std::vector<index_t> offsets(sd::counting_hist_cells(1, nt));
  std::vector<index_t> perm(in.size());
  const auto tile = [&tkeys](index_t i) {
    return tkeys[static_cast<std::size_t>(i)];
  };
  sd::counting_offsets(tile, n, nt, offsets.data(), 1);
  const std::vector<index_t> begin(offsets.begin(), offsets.begin() + nt);
  sd::counting_scatter_index(tile, n, nt, offsets.data(), 1, perm.data());
  std::vector<core::Particle> bucketed(in.size()), out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i)
    bucketed[i] = in[static_cast<std::size_t>(perm[i])];
  for (index_t t = 0; t < nt; ++t) {
    const index_t b = begin[static_cast<std::size_t>(t)];
    const index_t m = (t + 1 < nt ? begin[static_cast<std::size_t>(t + 1)]
                                  : n) - b;
    const index_t v0 = tm.v_lo(static_cast<int>(t));
    const index_t bound = tm.v_hi(static_cast<int>(t)) - v0;
    std::vector<std::uint32_t> keys(static_cast<std::size_t>(m));
    for (index_t i = 0; i < m; ++i)
      keys[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(
          std::clamp(bucketed[static_cast<std::size_t>(b + i)].i - v0,
                     index_t{0}, bound - 1));
    std::vector<index_t> off(sd::counting_hist_cells(1, bound));
    std::vector<index_t> tperm(static_cast<std::size_t>(m));
    const auto key = [&keys](index_t i) {
      return keys[static_cast<std::size_t>(i)];
    };
    sd::counting_offsets(key, m, bound, off.data(), 1);
    sd::counting_scatter_index(key, m, bound, off.data(), 1, tperm.data());
    for (index_t i = 0; i < m; ++i)
      out[static_cast<std::size_t>(b + i)] =
          bucketed[static_cast<std::size_t>(b + tperm[static_cast<std::size_t>(i)])];
  }
  return out;
}

}  // namespace

TEST(TiledStep, SortPhaseMatchesBucketThenTileSortOracle) {
  // The injection hook runs after the push and the field advance, right
  // before the sort phase: it snapshots every species there and sorts the
  // copy with the oracle. The step's own sort phase must match it byte
  // for byte, and leave each tile's range holding exactly its particles.
  core::decks::LpiParams p = tiled_decks().back().params;
  p.sort_interval = 5;
  core::Simulation sim = core::decks::make_lpi(p);
  sim.config().tiles.enabled = true;
  sim.config().tiles.count = 4;
  sim.config().tiles.workers = 2;
  std::vector<std::vector<core::Particle>> want;
  sim.set_injection_hook([&want](core::Simulation& s) {
    if (s.step_count() % s.config().sort_interval != 0) return;
    want.clear();
    for (std::size_t k = 0; k < s.num_species(); ++k) {
      const core::Species& sp = s.species(k);
      std::vector<core::Particle> ps(static_cast<std::size_t>(sp.np));
      std::copy_n(sp.p.data(), sp.np, ps.data());
      want.push_back(bucket_then_tile_sort(ps, s.tile_map()));
    }
  });
  for (int step = 1; step <= 10; ++step) {
    sim.step();
    if (step % p.sort_interval != 0) continue;
    ASSERT_EQ(want.size(), sim.num_species());
    for (std::size_t k = 0; k < sim.num_species(); ++k) {
      const core::Species& sp = sim.species(k);
      std::vector<core::Particle> got(static_cast<std::size_t>(sp.np));
      std::copy_n(sp.p.data(), sp.np, got.data());
      ASSERT_EQ(got.size(), want[k].size());
      EXPECT_EQ(std::memcmp(got.data(), want[k].data(),
                            got.size() * sizeof(core::Particle)),
                0)
          << sp.name << " after step " << step;
      EXPECT_TRUE(sp.cell_sorted_hint);
      for (int t = 0; t < sim.tile_map().count(); ++t) {
        const auto& slot = sp.tiles[static_cast<std::size_t>(t)];
        for (index_t i = slot.begin; i < slot.end; ++i)
          ASSERT_EQ(sim.tile_map().tile_of_voxel(
                        got[static_cast<std::size_t>(i)].i),
                    t);
      }
    }
  }
}
