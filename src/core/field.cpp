#include "core/field.hpp"

#include <vector>

namespace vpic::core {

namespace {

/// Iterate interior cells (1..n inclusive per axis) in parallel over z.
template <class F>
void for_interior(const char* name, const Grid& g, F&& f) {
  pk::parallel_for(
      name, pk::RangePolicy<>(1, g.nz + 1), [&, g](index_t iz) {
        for (int iy = 1; iy <= g.ny; ++iy)
          for (int ix = 1; ix <= g.nx; ++ix)
            f(ix, iy, static_cast<int>(iz));
      });
}

}  // namespace

void FieldArray::advance_b_half() {
  const Grid& g = grid;
  const float px = 0.5f * g.cvac * g.dt / g.dx;
  const float py = 0.5f * g.cvac * g.dt / g.dy;
  const float pz = 0.5f * g.cvac * g.dt / g.dz;
  for_interior("field/advance_b", g, [&](int ix, int iy, int iz) {
    const index_t v = g.voxel(ix, iy, iz);
    const index_t vx = g.voxel(ix + 1, iy, iz);
    const index_t vy = g.voxel(ix, iy + 1, iz);
    const index_t vz = g.voxel(ix, iy, iz + 1);
    // curl E on face centers
    bx(v) -= py * (ez(vy) - ez(v)) - pz * (ey(vz) - ey(v));
    by(v) -= pz * (ex(vz) - ex(v)) - px * (ez(vx) - ez(v));
    bz(v) -= px * (ey(vx) - ey(v)) - py * (ex(vy) - ex(v));
  });
}

void FieldArray::advance_e() {
  const Grid& g = grid;
  const float c2dt = g.cvac * g.cvac * g.dt;
  const float px = c2dt / g.dx;
  const float py = c2dt / g.dy;
  const float pz = c2dt / g.dz;
  const float jscale = g.dt;  // eps0 = 1
  for_interior("field/advance_e", g, [&](int ix, int iy, int iz) {
    const index_t v = g.voxel(ix, iy, iz);
    const index_t vmy = g.voxel(ix, iy - 1, iz);
    const index_t vmz = g.voxel(ix, iy, iz - 1);
    const index_t vmx = g.voxel(ix - 1, iy, iz);
    ex(v) += py * (bz(v) - bz(vmy)) - pz * (by(v) - by(vmz)) - jscale * jx(v);
    ey(v) += pz * (bx(v) - bx(vmz)) - px * (bz(v) - bz(vmx)) - jscale * jy(v);
    ez(v) += px * (by(v) - by(vmx)) - py * (bx(v) - bx(vmy)) - jscale * jz(v);
  });
}

void FieldArray::update_ghosts_periodic(std::uint8_t axis_mask) {
  const Grid& g = grid;
  // One kernel per axis copies all six E and B components, x then y then
  // z. A component's copies never read another component, so each comes
  // out, corners included, as its own x, y, z sweep leaves it.
  float* const comps[6] = {ex.data(), ey.data(), ez.data(),
                           bx.data(), by.data(), bz.data()};
  if (axis_mask & 0b001) {  // x ghosts
    pk::parallel_for("field/ghosts_x", pk::RangePolicy<>(0, g.sz()),
                     [&, g](index_t iz) {
      const int z = static_cast<int>(iz);
      for (float* f : comps)
        for (int iy = 0; iy < g.sy(); ++iy) {
          f[g.voxel(0, iy, z)] = f[g.voxel(g.nx, iy, z)];
          f[g.voxel(g.nx + 1, iy, z)] = f[g.voxel(1, iy, z)];
        }
    });
  }
  if (axis_mask & 0b010) {  // y ghosts
    pk::parallel_for("field/ghosts_y", pk::RangePolicy<>(0, g.sz()),
                     [&, g](index_t iz) {
      const int z = static_cast<int>(iz);
      for (float* f : comps)
        for (int ix = 0; ix < g.sx(); ++ix) {
          f[g.voxel(ix, 0, z)] = f[g.voxel(ix, g.ny, z)];
          f[g.voxel(ix, g.ny + 1, z)] = f[g.voxel(ix, 1, z)];
        }
    });
  }
  if (axis_mask & 0b100) {  // z ghosts
    pk::parallel_for("field/ghosts_z", pk::RangePolicy<>(0, g.sy()),
                     [&, g](index_t iy) {
      const int y = static_cast<int>(iy);
      for (float* f : comps)
        for (int ix = 0; ix < g.sx(); ++ix) {
          f[g.voxel(ix, y, 0)] = f[g.voxel(ix, y, g.nz)];
          f[g.voxel(ix, y, g.nz + 1)] = f[g.voxel(ix, y, 1)];
        }
    });
  }
}

void FieldArray::pack_z_plane(int iz, float* buf) const {
  const Grid& g = grid;
  const pk::View<float, 1>* comps[6] = {&ex, &ey, &ez, &bx, &by, &bz};
  std::size_t k = 0;
  for (const auto* c : comps)
    for (int iy = 0; iy < g.sy(); ++iy)
      for (int ix = 0; ix < g.sx(); ++ix) buf[k++] = (*c)(g.voxel(ix, iy, iz));
}

void FieldArray::unpack_z_plane(int iz, const float* buf) {
  const Grid& g = grid;
  pk::View<float, 1>* comps[6] = {&ex, &ey, &ez, &bx, &by, &bz};
  std::size_t k = 0;
  for (auto* c : comps)
    for (int iy = 0; iy < g.sy(); ++iy)
      for (int ix = 0; ix < g.sx(); ++ix) (*c)(g.voxel(ix, iy, iz)) = buf[k++];
}

double FieldArray::field_energy() const {
  const Grid& g = grid;
  const double dv = static_cast<double>(g.dx) * g.dy * g.dz;
  // One sum per z-plane, then the planes in order: the bits do not depend
  // on the thread count.
  std::vector<double> plane(static_cast<std::size_t>(g.nz));
  double* const out = plane.data();
  pk::parallel_for(
      "field/energy", pk::RangePolicy<>(1, g.nz + 1), [&, g](index_t iz) {
        double acc = 0;
        for (int iy = 1; iy <= g.ny; ++iy)
          for (int ix = 1; ix <= g.nx; ++ix) {
            const index_t v = g.voxel(ix, iy, static_cast<int>(iz));
            const double e2 = static_cast<double>(ex(v)) * ex(v) +
                              static_cast<double>(ey(v)) * ey(v) +
                              static_cast<double>(ez(v)) * ez(v);
            const double b2 = static_cast<double>(bx(v)) * bx(v) +
                              static_cast<double>(by(v)) * by(v) +
                              static_cast<double>(bz(v)) * bz(v);
            acc += 0.5 * (e2 + b2);
          }
        out[iz - 1] = acc;
      });
  double total = 0;
  for (const double e : plane) total += e;
  return total * dv;
}

}  // namespace vpic::core
