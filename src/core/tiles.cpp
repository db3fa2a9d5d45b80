#include "core/tiles.hpp"

#include <algorithm>
#include <cstring>

#include "prof/prof.hpp"
#include "sort/counting.hpp"

namespace vpic::core {

TileMap::TileMap(const Grid& g, int tiles) {
  plane_ = static_cast<index_t>(g.sx()) * g.sy();
  nz_ = g.nz;
  int t = std::clamp(tiles, 1, g.nz);
  const int base = g.nz / t;
  const int rem = g.nz % t;
  z_lo_.reserve(static_cast<std::size_t>(t));
  z_hi_.reserve(static_cast<std::size_t>(t));
  int z = 1;
  for (int i = 0; i < t; ++i) {
    const int planes = base + (i < rem ? 1 : 0);
    z_lo_.push_back(z);
    z_hi_.push_back(z + planes - 1);
    z += planes;
  }
  tile_of_plane_.assign(static_cast<std::size_t>(g.sz()), 0);
  for (int i = 0; i < t; ++i)
    for (int p = z_lo_[static_cast<std::size_t>(i)];
         p <= z_hi_[static_cast<std::size_t>(i)]; ++p)
      tile_of_plane_[static_cast<std::size_t>(p)] = i;
  tile_of_plane_[0] = 0;
  tile_of_plane_[static_cast<std::size_t>(g.nz + 1)] = t - 1;
}

int TileMap::auto_count(const Grid& g, int workers) {
  // Clamp before scaling: 4 * workers overflows int above 2^29.
  return std::min(4 * std::clamp(workers, 1, g.nz), g.nz);
}

TileAccumulator::TileAccumulator(const Grid& g, const TileMap& tm, int t) {
  // Window = the tile's planes plus one ghost plane each side. z_lo >= 1
  // and z_hi <= nz, so [z_lo-1, z_hi+1] always lies inside [0, nz+1].
  const index_t plane = tm.plane_voxels();
  v_base_ = static_cast<index_t>(tm.z_lo(t) - 1) * plane;
  win_size_ = static_cast<index_t>(tm.z_hi(t) + 1 - (tm.z_lo(t) - 1) + 1) *
              plane;
  win_.assign(static_cast<std::size_t>(win_size_), Accumulator{});
  (void)g;
}

void TileAccumulator::clear() {
  if (!win_.empty())
    std::memset(win_.data(), 0, win_.size() * sizeof(Accumulator));
  overflow_.clear();
}

void TileAccumulator::merge_into(AccumulatorArray& global) const {
  auto add = [](Accumulator& dst, const Accumulator& src) {
    for (int k = 0; k < 4; ++k) {
      dst.jx[k] += src.jx[k];
      dst.jy[k] += src.jy[k];
      dst.jz[k] += src.jz[k];
    }
  };
  for (index_t off = 0; off < win_size_; ++off)
    add(global.a(v_base_ + off), win_[static_cast<std::size_t>(off)]);
  // std::map iterates in ascending voxel order: deterministic merge.
  for (const auto& [v, rec] : overflow_) add(global.a(v), rec);
}

void bucket_by_tile(Species& sp, const TileMap& tm) {
  const int nt = tm.count();
  sp.tiles.resize(static_cast<std::size_t>(nt));
  const index_t n = sp.np;
  prof::ScopedRegion region("bucket_by_tile");
  const Particle* const src = sp.p.data();
  const auto tile = [src, &tm](index_t i) {
    return tm.tile_of_voxel(src[i].i);
  };
  // Tile ids are monotone in the voxel index, so an array exactly
  // Standard-sorted (what sort_particles has just left, and what the
  // run-aware push trusts) is tile-major as it stands. Any other array
  // is checked with one read pass; a deck's ascending-voxel load passes.
  bool tile_major = sp.exact_cell_order();
  if (!tile_major) {
    index_t descents = 0;
    pk::parallel_reduce(
        "tiles/bucket_check", std::max<index_t>(n - 1, 0),
        [=](index_t i, index_t& d) { d += tile(i + 1) < tile(i) ? 1 : 0; },
        descents);
    tile_major = descents == 0;
  }
  if (tile_major) {
    // The array stays put: tiles are z-slabs of the z-major voxel
    // numbering, so tile t starts at the first particle at or past its
    // first voxel. Ghost voxels below tile 1 belong to tile 0 and those
    // past the last tile to tile nt-1, as tile_of_voxel clamps.
    index_t at = 0;
    for (int t = 0; t < nt; ++t) {
      TileSlot& slot = sp.tiles[static_cast<std::size_t>(t)];
      slot.begin = at;
      if (t + 1 < nt) {
        const index_t v = tm.v_lo(t + 1);
        index_t hi = n;
        while (at < hi) {
          const index_t mid = at + (hi - at) / 2;
          if (src[mid].i < v) at = mid + 1;
          else hi = mid;
        }
      } else {
        at = n;
      }
      slot.end = at;
    }
    return;
  }
  // Otherwise one stable counting sort over tile ids on the calling
  // thread's team, through the species' sort scratch: the histogram of
  // its workspace, the records into its spare. The exclusive-scan
  // offsets ARE the tile ranges (thread 0's row holds each bucket's
  // first slot), captured before the scatter consumes them.
  const index_t bound = static_cast<index_t>(nt);
  const int nthreads = pk::DefaultExecSpace::concurrency();
  SortScratch& scr = sp.sort_scratch();
  index_t* offsets = scr.ws.reserve_histogram(
      sort::detail::counting_hist_cells(nthreads, bound));
  sort::detail::counting_offsets(tile, n, bound, offsets, nthreads);
  for (int t = 0; t < nt; ++t) {
    TileSlot& slot = sp.tiles[static_cast<std::size_t>(t)];
    slot.begin = offsets[t];
    slot.end = t + 1 < nt ? offsets[t + 1] : n;
  }
  ParticleStore& spare = scr.spare_for(sp.p);
  Particle* const dst = spare.data();
  sort::detail::counting_scatter(
      tile, n, bound, offsets, nthreads,
      [src, dst](index_t i, index_t pos) { dst[pos] = src[i]; });
  std::swap(sp.p, spare);
  prof::counter_add("tiles.bucket");
}

bool tiles_cover(const Species& sp, std::size_t nt) {
  if (nt == 0 || sp.tiles.size() != nt) return false;
  index_t at = 0;
  for (const TileSlot& slot : sp.tiles) {
    if (slot.begin != at || slot.end < slot.begin) return false;
    at = slot.end;
  }
  return at == sp.np;
}

double tile_imbalance(const Species& sp) {
  if (sp.tiles.empty()) return 1.0;
  index_t max_n = 0, total = 0;
  for (const TileSlot& slot : sp.tiles) {
    max_n = std::max(max_n, slot.count());
    total += slot.count();
  }
  if (total == 0) return 1.0;
  const double mean = static_cast<double>(total) /
                      static_cast<double>(sp.tiles.size());
  return static_cast<double>(max_n) / mean;
}

}  // namespace vpic::core
