// core/boris.hpp
//
// The scalar Boris momentum update shared by every scalar push body
// (core/push.cpp) and the tracer particles (core/tracer.cpp), so a tracer
// seeded on a species particle runs the same float math as the push.
#pragma once

#include <cmath>

namespace vpic::core {

/// Half electric acceleration, magnetic rotation, half electric
/// acceleration: updates (ux, uy, uz) in place. (hax, hay, haz) is
/// qdt2m * E at the particle, (cbx, cby, cbz) the interpolated B.
inline void boris(float& ux, float& uy, float& uz, float hax, float hay,
                  float haz, float cbx, float cby, float cbz, float qdt2m) {
  ux += hax;
  uy += hay;
  uz += haz;
  const float gmi = 1.0f / std::sqrt(1.0f + ux * ux + uy * uy + uz * uz);
  const float tx = qdt2m * cbx * gmi;
  const float ty = qdt2m * cby * gmi;
  const float tz = qdt2m * cbz * gmi;
  const float t2 = tx * tx + ty * ty + tz * tz;
  const float sfac = 2.0f / (1.0f + t2);
  const float sx = tx * sfac, sy = ty * sfac, sz = tz * sfac;
  const float wx = ux + (uy * tz - uz * ty);
  const float wy = uy + (uz * tx - ux * tz);
  const float wz = uz + (ux * ty - uy * tx);
  ux += wy * sz - wz * sy;
  uy += wz * sx - wx * sz;
  uz += wx * sy - wy * sx;
  ux += hax;
  uy += hay;
  uz += haz;
}

}  // namespace vpic::core
