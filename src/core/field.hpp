// core/field.hpp
//
// Electromagnetic field storage on the Yee mesh plus the FDTD Maxwell
// update. Layout follows VPIC: per-voxel field records in flat Views,
// with E components on edges, B components on faces, and current density J
// accumulated on E locations. The solver is the standard leapfrog:
// advance_b half-step, advance_e full step (with J), advance_b half-step.
#pragma once

#include <cstdint>

#include "core/grid.hpp"
#include "pk/pk.hpp"

namespace vpic::core {

struct FieldArray {
  Grid grid;
  // Yee-staggered components, one value per voxel (flat storage).
  pk::View<float, 1> ex, ey, ez;  // edge-centered E
  pk::View<float, 1> bx, by, bz;  // face-centered B
  pk::View<float, 1> jx, jy, jz;  // edge-centered current density

  explicit FieldArray(const Grid& g)
      : grid(g),
        ex("ex", g.nv()),
        ey("ey", g.nv()),
        ez("ez", g.nv()),
        bx("bx", g.nv()),
        by("by", g.nv()),
        bz("bz", g.nv()),
        jx("jx", g.nv()),
        jy("jy", g.nv()),
        jz("jz", g.nv()) {}

  void clear_j() {
    pk::deep_copy(jx, 0.0f);
    pk::deep_copy(jy, 0.0f);
    pk::deep_copy(jz, 0.0f);
  }

  /// B -= (c dt/2) curl E   (half-step magnetic update; interior only —
  /// callers refresh ghosts afterwards, locally or via rank exchange).
  void advance_b_half();

  /// E += c^2 dt curl B - dt J / eps0   (full-step electric update;
  /// interior only, see advance_b_half).
  void advance_e();

  /// Copy periodic ghost layers for E and B on the selected axes
  /// (bit 0 = x, 1 = y, 2 = z): one kernel per selected axis, x then y
  /// then z, each over all six components. Rank-decomposed axes are
  /// excluded and exchanged by the domain driver instead.
  void update_ghosts_periodic(std::uint8_t axis_mask = 0b111);

  /// Pack / unpack one z-plane of all six field components (for the
  /// distributed halo exchange). The plane buffer holds 6 * sx * sy
  /// floats in (component, iy, ix) order.
  [[nodiscard]] std::size_t plane_floats() const {
    return 6u * static_cast<std::size_t>(grid.sx()) *
           static_cast<std::size_t>(grid.sy());
  }
  void pack_z_plane(int iz, float* buf) const;
  void unpack_z_plane(int iz, const float* buf);

  /// Total field energy (sum over interior cells of (E^2 + B^2)/2 dV).
  [[nodiscard]] double field_energy() const;
};

}  // namespace vpic::core
