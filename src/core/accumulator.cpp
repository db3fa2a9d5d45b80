#include "core/accumulator.hpp"

#include <algorithm>

#include "prof/prof.hpp"

namespace vpic::core {

void AccumulatorArray::apply(DepositLog* logs, std::size_t count) {
  const index_t nv = a.size();
  const index_t members =
      std::clamp<index_t>(pk::DefaultExecSpace::concurrency(), 1, nv);
  pk::parallel_for(
      "accumulator/apply", pk::RangePolicy<>(0, members), [&](index_t k) {
        const index_t lo = nv * k / members, hi = nv * (k + 1) / members;
        for (std::size_t l = 0; l < count; ++l)
          for (const DepositSegment& s : logs[l].segments)
            if (s.voxel >= lo && s.voxel < hi)
              accumulate_j(a(s.voxel), s.qw, s.mx, s.my, s.mz, s.ux, s.uy,
                           s.uz, /*atomic=*/false);
      });
  // Capacity for a quarter more than the peak. A log that grew past the
  // band by doubling mid-push is trimmed back once; inside the band a
  // steady push neither allocates nor holds much more than it uses.
  for (std::size_t l = 0; l < count; ++l) {
    DepositLog& log = logs[l];
    log.peak = std::max(log.peak, log.segments.size());
    log.segments.clear();
    const std::size_t cap = log.segments.capacity(), peak = log.peak;
    if (cap < peak + peak / 8 || cap > peak + peak / 2) {
      std::vector<DepositSegment>().swap(log.segments);
      log.segments.reserve(peak + peak / 4);
    }
  }
}

void AccumulatorArray::reduce_ghosts_periodic() {
  prof::ScopedRegion region("accumulator/reduce_ghosts");
  const Grid& g = grid;
  auto fold = [&](index_t ghost, index_t interior) {
    Accumulator& gh = a(ghost);
    Accumulator& in = a(interior);
    for (int c = 0; c < 4; ++c) {
      in.jx[c] += gh.jx[c];
      in.jy[c] += gh.jy[c];
      in.jz[c] += gh.jz[c];
      gh.jx[c] = gh.jy[c] = gh.jz[c] = 0.0f;
    }
  };
  // Fold each ghost layer into its periodic image. Serial over the shells
  // (they are a small fraction of the domain).
  for (int iz = 0; iz < g.sz(); ++iz)
    for (int iy = 0; iy < g.sy(); ++iy) {
      fold(g.voxel(0, iy, iz), g.voxel(g.nx, iy, iz));
      fold(g.voxel(g.nx + 1, iy, iz), g.voxel(1, iy, iz));
    }
  for (int iz = 0; iz < g.sz(); ++iz)
    for (int ix = 1; ix <= g.nx; ++ix) {
      fold(g.voxel(ix, 0, iz), g.voxel(ix, g.ny, iz));
      fold(g.voxel(ix, g.ny + 1, iz), g.voxel(ix, 1, iz));
    }
  for (int iy = 1; iy <= g.ny; ++iy)
    for (int ix = 1; ix <= g.nx; ++ix) {
      fold(g.voxel(ix, iy, 0), g.voxel(ix, iy, g.nz));
      fold(g.voxel(ix, iy, g.nz + 1), g.voxel(ix, iy, 1));
    }
}

void AccumulatorArray::unload(FieldArray& f, std::uint8_t wrap_mask) const {
  const Grid& g = grid;
  // Conversion from accumulated charge-displacement (in cell-local units,
  // where a full cell crossing is 2) to Yee current density. Each edge
  // collects from its four adjacent cells with total weight 4, and the
  // local-unit displacement carries dx/2 of physical distance:
  //   j = 0.25 * (d_axis / 2) * acc / (cell_volume * dt)
  const float vol = g.dx * g.dy * g.dz;
  const float cx = 0.125f * g.dx / (vol * g.dt);
  const float cy = 0.125f * g.dy / (vol * g.dt);
  const float cz = 0.125f * g.dz / (vol * g.dt);

  // The "-1" neighbors of the first interior plane are the periodic images
  // of the last plane (the mover wraps voxels before depositing, so ghost
  // accumulator cells hold nothing on periodic boundaries). On decomposed
  // axes the ghost plane holds the neighbor rank's contribution instead.
  auto wrap = [wrap_mask](int i, int n, int axis) {
    return (i < 1 && (wrap_mask & (1u << axis))) ? i + n : i;
  };
  pk::parallel_for("accumulator/unload", pk::RangePolicy<>(1, g.nz + 1),
                   [&, g](index_t izz) {
    const int iz = static_cast<int>(izz);
    for (int iy = 1; iy <= g.ny; ++iy) {
      for (int ix = 1; ix <= g.nx; ++ix) {
        const index_t v = g.voxel(ix, iy, iz);
        // Neighbors "below" in the two transverse axes of each component.
        // jx edges: transverse axes (y, z); component slots are
        // [0]=(y-,z-), [1]=(y+,z-), [2]=(y-,z+), [3]=(y+,z+): the edge at
        // (ix, iy, iz) is the (y-,z-) edge of cell (ix,iy,iz), the (y+,z-)
        // edge of cell (ix,iy-1,iz), etc.
        const int xm = wrap(ix - 1, g.nx, 0);
        const int ym = wrap(iy - 1, g.ny, 1);
        const int zm = wrap(iz - 1, g.nz, 2);
        f.jx(v) = cx * (a(g.voxel(ix, iy, iz)).jx[0] +
                        a(g.voxel(ix, ym, iz)).jx[1] +
                        a(g.voxel(ix, iy, zm)).jx[2] +
                        a(g.voxel(ix, ym, zm)).jx[3]);
        f.jy(v) = cy * (a(g.voxel(ix, iy, iz)).jy[0] +
                        a(g.voxel(ix, iy, zm)).jy[1] +
                        a(g.voxel(xm, iy, iz)).jy[2] +
                        a(g.voxel(xm, iy, zm)).jy[3]);
        f.jz(v) = cz * (a(g.voxel(ix, iy, iz)).jz[0] +
                        a(g.voxel(xm, iy, iz)).jz[1] +
                        a(g.voxel(ix, ym, iz)).jz[2] +
                        a(g.voxel(xm, ym, iz)).jz[3]);
      }
    }
  });
}

void AccumulatorArray::pack_z_plane(int iz, float* buf) const {
  const Grid& g = grid;
  std::size_t k = 0;
  for (int iy = 0; iy < g.sy(); ++iy)
    for (int ix = 0; ix < g.sx(); ++ix) {
      const Accumulator& rec = a(g.voxel(ix, iy, iz));
      const float* f = reinterpret_cast<const float*>(&rec);
      for (int c = 0; c < 12; ++c) buf[k++] = f[c];
    }
}

void AccumulatorArray::unpack_z_plane(int iz, const float* buf) {
  const Grid& g = grid;
  std::size_t k = 0;
  for (int iy = 0; iy < g.sy(); ++iy)
    for (int ix = 0; ix < g.sx(); ++ix) {
      Accumulator& rec = a(g.voxel(ix, iy, iz));
      float* f = reinterpret_cast<float*>(&rec);
      for (int c = 0; c < 12; ++c) f[c] = buf[k++];
    }
}

}  // namespace vpic::core
