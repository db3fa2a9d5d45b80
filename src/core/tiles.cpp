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
  return std::clamp(4 * std::max(workers, 1), 1, g.nz);
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
  sort::SortWorkspace& ws = sp.sort_ws;
  ws.reserve_pairs(n);
  sp.cell_keys(ws.keys);
  const std::uint32_t* vox = ws.keys.data();
  std::uint32_t* tkeys = ws.keys_alt.data();
  for (index_t i = 0; i < n; ++i)
    tkeys[i] = static_cast<std::uint32_t>(
        tm.tile_of_voxel(static_cast<index_t>(vox[i])));

  // Serial stable counting sort over tile ids (bound = tile count); the
  // exclusive-scan offsets ARE the tile ranges, captured before the
  // scatter consumes them.
  const index_t bound = static_cast<index_t>(nt);
  index_t* offsets =
      ws.reserve_histogram(sort::detail::counting_hist_cells(1, bound));
  sort::detail::counting_offsets(tkeys, n, bound, offsets, 1);
  for (int t = 0; t < nt; ++t) {
    TileSlot& slot = sp.tiles[static_cast<std::size_t>(t)];
    slot.begin = offsets[t];
    slot.end = t + 1 < nt ? offsets[t + 1] : n;
  }
  // Already tile-major (a Standard sort or a deck's ascending-voxel load
  // leaves it so): the stable partition is the identity, skip the permute.
  if (std::is_sorted(tkeys, tkeys + n)) return;
  index_t* const perm = ws.perm.data();
  sort::detail::counting_scatter_index(tkeys, n, bound, offsets, 1, perm);

  ParticleStore& scratch = sp.sort_scratch();
  dispatch_layout(sp.p, [&](auto sa) {
    dispatch_layout(scratch, [&](auto da) {
      pk::parallel_for("tiles/bucket_gather", n,
                       [=](index_t i) { da.store(i, sa.load(perm[i])); });
    });
  });
  std::swap(sp.p, sp.p_scratch);
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
