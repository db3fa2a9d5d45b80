// core/accumulator.hpp
//
// VPIC-style current accumulator: per-cell 12-float records (4 edge values
// per current component) that the push deposits into through a sink
// (docs/PUSH.md, "Deposit sinks"), unloaded into the Yee J arrays once per
// step. This 48-byte record is the scatter target whose contention
// behaviour the sorting study measures (Figs. 5b/6b/7).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/field.hpp"
#include "core/grid.hpp"
#include "pk/pk.hpp"

namespace vpic::core {

struct Accumulator {
  float jx[4];  // x-current at the four x-edges: (y-,z-),(y+,z-),(y-,z+),(y+,z+)
  float jy[4];  // y-current at the four y-edges: (z-,x-),(z+,x-),(z-,x+),(z+,x+)
  float jz[4];  // z-current at the four z-edges: (x-,y-),(x+,y-),(x-,y+),(x+,y+)
};
static_assert(sizeof(Accumulator) == 12 * sizeof(float));

/// Deposit one within-cell motion segment into an accumulator record.
/// (mx,my,mz): segment midpoint in cell-local coords; (ux,uy,uz): segment
/// displacement in cell-local units; qw = particle charge * weight.
/// This is VPIC's ACCUMULATE_J form, including the uy*uz/3 correction term
/// that makes the deposit exactly charge-conserving.
PK_FORCEINLINE void accumulate_j(Accumulator& acc, float qw, float mx,
                                 float my, float mz, float ux, float uy,
                                 float uz, bool atomic = true) {
  const float one = 1.0f;
  // Shared charge-conservation correction (VPIC's v5): the covariance of
  // the two transverse trilinear weights along the straight segment. With
  // displacements expressed over the full [-1, 1] cell span the exact
  // coefficient is 1/12 (VPIC spells it 1/3 because its accumulate uses
  // half-displacements). The same q*ux*uy*uz/12 enters all three
  // components' deposits with the (+,-,-,+) sign pattern.
  const float v5 = qw * ux * uy * uz * (1.0f / 12.0f);

  auto dep = [&](float* j, float disp, float ma,
                 float mb) PK_FORCEINLINE_LAMBDA {
    // disp: segment displacement along this component; (ma, mb): segment
    // midpoint offsets in the two transverse directions.
    const float f = qw * disp;
    float v0 = f * (one - ma) * (one - mb) + v5;
    float v1 = f * (one + ma) * (one - mb) - v5;
    float v2 = f * (one - ma) * (one + mb) - v5;
    float v3 = f * (one + ma) * (one + mb) + v5;
    if (atomic) {
      pk::atomic_add(&j[0], v0);
      pk::atomic_add(&j[1], v1);
      pk::atomic_add(&j[2], v2);
      pk::atomic_add(&j[3], v3);
    } else {
      j[0] += v0;
      j[1] += v1;
      j[2] += v2;
      j[3] += v3;
    }
  };
  dep(acc.jx, ux, my, mz);
  dep(acc.jy, uy, mz, mx);
  dep(acc.jz, uz, mx, my);
}

/// A deposit segment a push chunk logs instead of adding it: the voxel and
/// accumulate_j's seven arguments, replayed by AccumulatorArray::apply.
struct DepositSegment {
  std::int32_t voxel;
  float qw, mx, my, mz, ux, uy, uz;
};
static_assert(sizeof(DepositSegment) == 32);

/// One chunk's deposit log, on cache lines of its own: the chunks of a
/// launch append to theirs concurrently.
struct alignas(64) DepositLog {
  std::vector<DepositSegment> segments;
  std::size_t peak = 0;  // most segments it has held at an apply
};

struct AccumulatorArray {
  Grid grid;
  pk::View<Accumulator, 1> a;

  explicit AccumulatorArray(const Grid& g)
      : grid(g), a("accumulator", g.nv()) {}

  /// move_p's sink interface: deposit one segment into voxel v with
  /// atomic adds, so concurrent pushes may share the array.
  void deposit(index_t v, float qw, float mx, float my, float mz, float ux,
               float uy, float uz) const {
    accumulate_j(a(v), qw, mx, my, mz, ux, uy, uz, /*atomic=*/true);
  }

  /// Add logs[0, count) in order, with plain adds, and empty the logs,
  /// leaving each with room for about a quarter more segments than the
  /// most it has held, so a steady push appends without allocating. The
  /// species of a simulation share the logs, so that is the most of any
  /// species' push. The team splits
  /// the voxels: each member adds every log's segments into its own
  /// voxels, so each voxel sums in the same order at any team size.
  void apply(DepositLog* logs, std::size_t count);

  void clear() {
    float* raw = reinterpret_cast<float*>(a.data());
    pk::parallel_for(a.size() * 12, [raw](index_t i) { raw[i] = 0.0f; });
  }

  /// Fold ghost-cell accumulation back into the periodic interior (the
  /// mover deposits into ghost voxels when a segment ends exactly on a
  /// domain face).
  void reduce_ghosts_periodic();

  /// Unload into the field's Yee current arrays:
  /// jx(edge i,j,k) = cx * [ a(i,j,k).jx[0] + a(i,j-1,k).jx[1]
  ///                       + a(i,j,k-1).jx[2] + a(i,j-1,k-1).jx[3] ]
  /// (and cyclic permutations), cx converting accumulated charge-
  /// displacement into current density. On wrapped axes (wrap_mask bit
  /// set) the "-1" neighbors of the first plane are the periodic images;
  /// on decomposed axes they are the ghost cells, which the domain driver
  /// fills from the neighbor rank beforehand.
  void unload(FieldArray& f, std::uint8_t wrap_mask = 0b111) const;

  /// Pack / unpack one z-plane of accumulator records (12 floats each),
  /// for the distributed unload exchange.
  [[nodiscard]] std::size_t plane_floats() const {
    return 12u * static_cast<std::size_t>(grid.sx()) *
           static_cast<std::size_t>(grid.sy());
  }
  void pack_z_plane(int iz, float* buf) const;
  void unpack_z_plane(int iz, const float* buf);
};

}  // namespace vpic::core
