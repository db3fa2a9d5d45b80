// core/move_p.hpp
//
// VPIC's move_p: advance one particle by a cell-local displacement,
// splitting the trajectory at every cell face it crosses and depositing
// the charge-conserving current of each sub-segment, through a deposit
// sink, into the accumulator of the cell that contains it. Periodic wrap
// is applied at domain faces (the multi-rank path instead flags the
// particle for exchange, see core/domain.hpp).
#pragma once

#include "core/accumulator.hpp"
#include "core/grid.hpp"
#include "core/particle.hpp"

namespace vpic::core {

/// Outcome of moving one particle.
enum class MoveResult : std::uint8_t {
  Stayed,   // finished inside the local domain
  Wrapped,  // crossed a periodic domain face (single-rank mode)
  Exited,   // crossed a domain face in rank-exchange mode: caller must ship
};

/// Advance particle `p` by displacement (dispx, dispy, dispz) in cell-local
/// units, depositing current along the way. Per axis (bit 0 = x, 1 = y,
/// 2 = z): if the axis bit is set in `reflect_mask`, domain faces are
/// perfectly reflecting walls (the particle bounces, its normal momentum
/// flips — VPIC's "reflect_particles" boundary); else if set in
/// `periodic_mask` the faces wrap; else the particle Exits at the face
/// with the unfinished displacement stored in `remaining` (rank exchange
/// re-applies it after re-injection, exactly like VPIC's mover records).
/// `Sink` is any deposit sink exposing `deposit(voxel, qw, mx, my, mz, ux,
/// uy, uz)`, accumulate_j's arguments for one segment: the shared
/// AccumulatorArray (atomic adds), or one of the push's sinks
/// (core/push.cpp).
template <class Sink>
MoveResult move_p(Particle& p, float dispx, float dispy, float dispz,
                  float qw, const Sink& sink, const Grid& g,
                  std::uint8_t periodic_mask = 0b111,
                  float* remaining = nullptr,
                  std::uint8_t reflect_mask = 0b000) {
  MoveResult result = MoveResult::Stayed;
  // A displacement can cross at most a few faces for CFL-respecting steps;
  // the loop bound guards against pathological inputs.
  for (int guard = 0; guard < 16; ++guard) {
    // Fraction of the remaining displacement until the first face.
    float f = 1.0f;
    int axis = -1;   // -1: stays inside
    int dir = 0;
    auto consider = [&](float pos, float disp, int ax) {
      if (disp > 0) {
        const float fa = (1.0f - pos) / disp;
        if (fa < f) {
          f = fa;
          axis = ax;
          dir = +1;
        }
      } else if (disp < 0) {
        const float fa = (-1.0f - pos) / disp;
        if (fa < f) {
          f = fa;
          axis = ax;
          dir = -1;
        }
      }
    };
    consider(p.dx, dispx, 0);
    consider(p.dy, dispy, 1);
    consider(p.dz, dispz, 2);
    if (f >= 1.0f) {
      f = 1.0f;
      axis = -1;
    }

    const float sx = dispx * f, sy = dispy * f, sz = dispz * f;
    const float mx = p.dx + 0.5f * sx;
    const float my = p.dy + 0.5f * sy;
    const float mz = p.dz + 0.5f * sz;
    sink.deposit(p.i, qw, mx, my, mz, sx, sy, sz);

    p.dx += sx;
    p.dy += sy;
    p.dz += sz;
    dispx -= sx;
    dispy -= sy;
    dispz -= sz;

    if (axis < 0) return result;  // finished inside the current cell

    // Snap to the face and hop to the neighbor cell.
    int ix, iy, iz;
    g.cell_of(p.i, ix, iy, iz);
    int c[3] = {ix, iy, iz};
    float* local[3] = {&p.dx, &p.dy, &p.dz};
    *local[axis] = static_cast<float>(-dir);  // enter from the far face
    c[axis] += dir;

    const int n_axis = (axis == 0) ? g.nx : (axis == 1) ? g.ny : g.nz;
    if (c[axis] < 1 || c[axis] > n_axis) {
      if (reflect_mask & (1u << axis)) {
        // Bounce: stay in the boundary cell on the face just reached,
        // reverse the remaining displacement and the normal momentum.
        c[axis] -= dir;
        *local[axis] = static_cast<float>(dir);
        float* disp[3] = {&dispx, &dispy, &dispz};
        *disp[axis] = -*disp[axis];
        float* mom[3] = {&p.ux, &p.uy, &p.uz};
        *mom[axis] = -*mom[axis];
        p.i = static_cast<std::int32_t>(g.voxel(c[0], c[1], c[2]));
        continue;
      }
      if (!(periodic_mask & (1u << axis))) {
        // Leave the particle in the ghost cell; the boundary exchange
        // re-injects it on the neighbor rank and completes the remaining
        // displacement there.
        p.i = static_cast<std::int32_t>(g.voxel(c[0], c[1], c[2]));
        if (remaining) {
          remaining[0] = dispx;
          remaining[1] = dispy;
          remaining[2] = dispz;
        }
        return MoveResult::Exited;
      }
      c[axis] = Grid::wrap(c[axis], n_axis);
      result = MoveResult::Wrapped;
    }
    p.i = static_cast<std::int32_t>(g.voxel(c[0], c[1], c[2]));
  }
  return result;
}

}  // namespace vpic::core
