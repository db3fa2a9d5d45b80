// core/tiles.hpp
//
// Tile-level domain over-decomposition (docs/TILES.md). The grid's
// interior z-planes are split into T contiguous slabs ("tiles"); because
// the voxel index is (iz * sy + iy) * sx + ix, a tile is a contiguous
// voxel interval and a cell-sorted particle array is tile-major — so
// bucketing after the untiled stable voxel sort moves nothing, and the
// tiled step sorts with the untiled step's sort (any SortOrder) followed
// by a stable bucket-by-tile.
//
// Tiles exist to turn each (phase x tile) pair into a StepGraph task for
// the work-stealing pool (pk/stealing.hpp):
//   * each tile owns a contiguous particle index range of every species
//     (re-established by bucket_by_tile at sort steps and, for a
//     Standard-sorted species, after every push round, and carried
//     through a checkpoint so a tiled restore resumes the same order),
//   * each tile pushes its range with push_on<pk::Serial> (core/push.hpp),
//     dispatched off the species' sortedness, through an OwnerSink
//     (core/accumulator.hpp) that owns the tile's interior planes
//     [v_lo, v_hi) of the shared AccumulatorArray: it adds there directly
//     and logs every other deposit segment (seam and z-wrap crossings,
//     particles that drifted out of the tile since the last bucketing),
//   * every species' tiles push in one pool round, the first species'
//     into the accumulator and each later one's into a staged array of
//     its own, and one apply then adds, species by species, the staged
//     array and the tile logs in ascending tile order, so the summed
//     currents are bit-deterministic across runs AND worker counts (no
//     add order depends on scheduling) and, in exact cell order, equal to
//     the untiled step's at any tile count.
#pragma once

#include <vector>

#include "core/grid.hpp"
#include "core/particle.hpp"

namespace vpic::core {

/// Z-slab partition of the interior planes [1, nz] into contiguous tiles.
class TileMap {
 public:
  TileMap() = default;

  /// Split `g`'s nz interior planes into `tiles` balanced slabs
  /// (clamped to [1, nz]; the first nz % T slabs get one extra plane).
  TileMap(const Grid& g, int tiles);

  [[nodiscard]] int count() const noexcept {
    return static_cast<int>(z_lo_.size());
  }
  /// First / last interior plane of tile t (1-based, inclusive).
  [[nodiscard]] int z_lo(int t) const { return z_lo_[static_cast<std::size_t>(t)]; }
  [[nodiscard]] int z_hi(int t) const { return z_hi_[static_cast<std::size_t>(t)]; }
  /// Voxel interval [v_lo, v_hi) covered by tile t's interior planes.
  [[nodiscard]] index_t v_lo(int t) const {
    return static_cast<index_t>(z_lo(t)) * plane_;
  }
  [[nodiscard]] index_t v_hi(int t) const {
    return static_cast<index_t>(z_hi(t) + 1) * plane_;
  }
  /// Voxels per z-plane (sx * sy, ghosts included).
  [[nodiscard]] index_t plane_voxels() const noexcept { return plane_; }

  /// Tile owning voxel v. Ghost planes (0 and nz+1) clamp to the nearest
  /// interior tile; live particles only ever sit in interior planes.
  [[nodiscard]] int tile_of_voxel(index_t v) const {
    int z = static_cast<int>(v / plane_);
    if (z < 1) z = 1;
    if (z > nz_) z = nz_;
    return tile_of_plane_[static_cast<std::size_t>(z)];
  }

  /// Over-decomposition heuristic: ~4 tiles per worker, capped by nz.
  static int auto_count(const Grid& g, int workers);

 private:
  index_t plane_ = 0;  // sx * sy
  int nz_ = 0;
  std::vector<int> z_lo_, z_hi_;
  std::vector<int> tile_of_plane_;  // [0, nz+1], clamped at the ghosts
};

/// Stable-partition sp's live particles by tile id and record each tile's
/// [begin, end) index range in sp.tiles. A tile-major array keeps its
/// buffer and contents and gets its ranges from one binary search per
/// tile. Because tile ids are monotone in the voxel index, a species
/// exactly Standard-sorted (cell_sorted_hint with steps_since_sort == 0)
/// is taken as tile-major unchecked; any other array is checked with one
/// read pass and, when it is not tile-major, partitioned by one counting
/// sort over tile ids read from the records, on the calling thread's
/// team. Neither path touches the species' per-particle sort workspace.
void bucket_by_tile(Species& sp, const TileMap& tm);

/// True when sp.tiles holds `nt` contiguous ranges covering exactly the
/// live particles [0, np): ranges a tiled step can push as they stand
/// (the last bucketing's, or a checkpoint's adopted on restore).
[[nodiscard]] bool tiles_cover(const Species& sp, std::size_t nt);

/// Load-imbalance factor of the current tile ranges: max tile particle
/// count over mean tile particle count (1.0 = perfectly balanced).
[[nodiscard]] double tile_imbalance(const Species& sp);

}  // namespace vpic::core
