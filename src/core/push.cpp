// core/push.cpp — the four vectorization-strategy implementations of the
// particle push. See push.hpp for the strategy taxonomy.
//
// Every kernel is written ONCE against the particle-accessor concept
// (core/particle_store.hpp: load/store/cell + load_vecs) and instantiated
// per ParticleLayout by dispatch_layout() — the layout switch happens once
// per advance_species call, never inside a particle loop. The structural
// constants (block size, vector widths) and the AutoDetect dispatch gates
// come from core/push_tuning.hpp.
#include "core/push.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "core/boris.hpp"
#include "core/move_p.hpp"
#include "core/tiles.hpp"
#include "core/push_tuning.hpp"
#include "prof/prof.hpp"
#include "simd/simd.hpp"
#include "sort/runs.hpp"
#include "v4/v4.hpp"

namespace vpic::core {

namespace {

struct PushConsts {
  float qdt2m;   // q dt / 2m: half-step acceleration factor
  float cdtdx2;  // 2 c dt / dx: velocity -> cell-local displacement
  float cdtdy2;
  float cdtdz2;
  float qw_sign;  // charge (per-particle weight multiplies in)
};

PushConsts make_consts(const Species& sp, const Grid& g) {
  PushConsts c;
  c.qdt2m = 0.5f * sp.q * g.dt / sp.m;
  c.cdtdx2 = 2.0f * g.cvac * g.dt / g.dx;
  c.cdtdy2 = 2.0f * g.cvac * g.dt / g.dy;
  c.cdtdz2 = 2.0f * g.cvac * g.dt / g.dz;
  c.qw_sign = sp.q;
  return c;
}

/// Deposits into the shared global array must be atomic under concurrent
/// pushes; a tile-private TileAccumulator block is only ever touched by
/// its (serial) owning task, so plain adds suffice — and atomic float add
/// is bitwise-identical to plain add, so the choice never changes physics.
template <class AccA>
inline constexpr bool kAtomicDeposit = std::is_same_v<AccA, AccumulatorArray>;

/// Complete a particle's move, honoring the boundary options: periodic
/// wrap by default, reflecting walls on reflect_mask axes, exit-collection
/// for rank-decomposed axes.
template <class AccA>
inline void finish_move(Particle& p, float dispx, float dispy, float dispz,
                        float qw, AccA& acc, const Grid& g,
                        const MoverOptions& opts) {
  if (opts.exits == nullptr) {
    move_p<kAtomicDeposit<AccA>>(p, dispx, dispy, dispz, qw, acc, g,
                                 opts.periodic_mask, nullptr,
                                 opts.reflect_mask);
    return;
  }
  float rem[3] = {0, 0, 0};
  const MoveResult r =
      move_p<kAtomicDeposit<AccA>>(p, dispx, dispy, dispz, qw, acc, g,
                                   opts.periodic_mask, rem, opts.reflect_mask);
  if (r == MoveResult::Exited) {
    ExitRecord rec;
    rec.p = p;
    rec.rem[0] = rem[0];
    rec.rem[1] = rem[1];
    rec.rem[2] = rem[2];
    if (opts.exits_mutex) {
      std::lock_guard lk(*opts.exits_mutex);
      opts.exits->push_back(rec);
    } else {
      opts.exits->push_back(rec);
    }
    p.i = -1;  // tombstone; compact_exited() removes it
  }
}

/// The per-particle generic push body, shared verbatim by the parallel
/// Auto kernel, the scalar tails of the blocked strategies, and the
/// serial tile-range path — one definition, so a tile pushes each particle
/// exactly as the untiled kernels do.
template <class A, class AccA>
inline void push_one(const A& a, index_t n, const InterpolatorArray& interp,
                     AccA& acc, const Grid& g, const MoverOptions& opts,
                     const PushConsts& c) {
  Particle p = a.load(n);
  const Interpolator& ip = interp(p.i);
  const FieldsAtPoint f = interpolate(ip, p.dx, p.dy, p.dz);
  boris(p.ux, p.uy, p.uz, c.qdt2m * f.ex, c.qdt2m * f.ey, c.qdt2m * f.ez,
        f.bx, f.by, f.bz, c.qdt2m);
  const float rg =
      1.0f / std::sqrt(1.0f + p.ux * p.ux + p.uy * p.uy + p.uz * p.uz);
  const float dispx = c.cdtdx2 * p.ux * rg;
  const float dispy = c.cdtdy2 * p.uy * rg;
  const float dispz = c.cdtdz2 * p.uz * rg;
  finish_move(p, dispx, dispy, dispz, c.qw_sign * p.w, acc, g, opts);
  a.store(n, p);
}

/// Shared scalar push over [n0, n1): the remainder tail of the blocked
/// Manual/AdHoc strategies (one implementation instead of two copies).
/// Runs under its own prof region so summaries attribute tail work
/// separately from the vector kernels.
template <class A, class AccA>
void push_scalar_range(const A& a, const InterpolatorArray& interp,
                       AccA& acc, const Grid& g, const MoverOptions& opts,
                       const PushConsts& c, index_t n0, index_t n1) {
  if (n0 >= n1) return;
  prof::ScopedRegion tail("push_scalar_tail");
  for (index_t n = n0; n < n1; ++n) push_one(a, n, interp, acc, g, opts, c);
}

// ----------------------------------------------------------------------
// Auto: one loop over particles, written the portable way, vectorization
// left to the compiler (it will not vectorize through move_p).
// ----------------------------------------------------------------------
template <class A>
void push_auto(Species& sp, const A& a, const InterpolatorArray& interp,
               AccumulatorArray& acc, const Grid& g,
               const MoverOptions& opts) {
  const PushConsts c = make_consts(sp, g);
  pk::parallel_for("advance_p[auto]", sp.np, [&](index_t n) {
    push_one(a, n, interp, acc, g, opts, c);
  });
}

// ----------------------------------------------------------------------
// Guided: kernel split. Phase 1 (forced-SIMD): gather + Boris + new
// momenta + displacements into block-local arrays. Phase 2 (scalar): the
// branchy mover. The split is the paper's "separate difficult-to-
// vectorize" refactoring; #pragma omp simd is the guided pragma.
// ----------------------------------------------------------------------
/// One Guided block [n0, n1), n1 - n0 <= kPushBlock: forced-SIMD compute
/// phase into stack arrays, then the scalar mover phase. Per-particle
/// results are independent of the blocking, so the serial tile-range path
/// reuses this with tile-local block bases and stays bit-identical.
template <class A, class AccA>
inline void push_guided_block(const A& a, const InterpolatorArray& interp,
                              AccA& acc, const Grid& g,
                              const MoverOptions& opts, const PushConsts& c,
                              index_t n0, index_t n1) {
  constexpr index_t kBlock = kPushBlock;
  const int cnt = static_cast<int>(n1 - n0);
  float dispx[kBlock], dispy[kBlock], dispz[kBlock];
  float nux[kBlock], nuy[kBlock], nuz[kBlock];

  PK_OMP_SIMD
    for (int k = 0; k < cnt; ++k) {
      const Particle p = a.load(n0 + k);
      const Interpolator& ip = interp(p.i);
      const float ex =
          ip.ex + p.dy * ip.dexdy + p.dz * (ip.dexdz + p.dy * ip.d2exdydz);
      const float ey =
          ip.ey + p.dz * ip.deydz + p.dx * (ip.deydx + p.dz * ip.d2eydzdx);
      const float ez =
          ip.ez + p.dx * ip.dezdx + p.dy * (ip.dezdy + p.dx * ip.d2ezdxdy);
      const float cbx = ip.cbx + p.dx * ip.dcbxdx;
      const float cby = ip.cby + p.dy * ip.dcbydy;
      const float cbz = ip.cbz + p.dz * ip.dcbzdz;
      float ux = p.ux, uy = p.uy, uz = p.uz;
      boris(ux, uy, uz, c.qdt2m * ex, c.qdt2m * ey, c.qdt2m * ez, cbx, cby,
            cbz, c.qdt2m);
      const float rg = 1.0f / std::sqrt(1.0f + ux * ux + uy * uy + uz * uz);
      nux[k] = ux;
      nuy[k] = uy;
      nuz[k] = uz;
      dispx[k] = c.cdtdx2 * ux * rg;
      dispy[k] = c.cdtdy2 * uy * rg;
      dispz[k] = c.cdtdz2 * uz * rg;
    }
  for (int k = 0; k < cnt; ++k) {
    Particle p = a.load(n0 + k);
    p.ux = nux[k];
    p.uy = nuy[k];
    p.uz = nuz[k];
    finish_move(p, dispx[k], dispy[k], dispz[k], c.qw_sign * p.w, acc, g,
                opts);
    a.store(n0 + k, p);
  }
}

template <class A>
void push_guided(Species& sp, const A& a, const InterpolatorArray& interp,
                 AccumulatorArray& acc, const Grid& g,
                 const MoverOptions& opts) {
  constexpr index_t kBlock = kPushBlock;
  const PushConsts c = make_consts(sp, g);
  const index_t nblocks = (sp.np + kBlock - 1) / kBlock;
  pk::parallel_for("advance_p[guided]", nblocks, [&](index_t b) {
    const index_t n0 = b * kBlock;
    const index_t n1 = std::min(sp.np, n0 + kBlock);
    push_guided_block(a, interp, acc, g, opts, c, n0, n1);
  });
}

// ----------------------------------------------------------------------
// Manual: portable SIMD library. 8-lane blocks (the particle record is 8
// floats), vector Boris, scalar mover. The block load is the accessor's
// load_vecs: an 8x8 register transpose for AoS, straight dense plane /
// tile-row loads for SoA / AoSoA.
// ----------------------------------------------------------------------
/// One full W-wide Manual block starting at n0: vector Boris off a
/// load_vecs transpose, scalar movers. Used by the parallel kernel (lane
/// bases aligned to the array) and the serial tile-range path (lane bases
/// aligned to the tile range — same physics, few-ulp when misaligned).
template <class A, class AccA>
inline void push_manual_block(const A& a, const InterpolatorArray& interp,
                              AccA& acc, const Grid& g,
                              const MoverOptions& opts, const PushConsts& c,
                              index_t n0) {
  constexpr int W = kManualVecWidth;
  using F = simd::simd<float, W>;
  {
    const ParticleVecs<W> v = a.template load_vecs<W>(n0);
    const F dx = v.dx, dy = v.dy, dz = v.dz;
    F ux = v.ux, uy = v.uy, uz = v.uz;
    // Interpolator gathers, one field at a time.
    auto gf = [&](auto member) {
      return F([&](int l) { return interp(v.cell[l]).*member; });
    };
    const F ex = gf(&Interpolator::ex) + dy * gf(&Interpolator::dexdy) +
                 dz * (gf(&Interpolator::dexdz) +
                       dy * gf(&Interpolator::d2exdydz));
    const F ey = gf(&Interpolator::ey) + dz * gf(&Interpolator::deydz) +
                 dx * (gf(&Interpolator::deydx) +
                       dz * gf(&Interpolator::d2eydzdx));
    const F ez = gf(&Interpolator::ez) + dx * gf(&Interpolator::dezdx) +
                 dy * (gf(&Interpolator::dezdy) +
                       dx * gf(&Interpolator::d2ezdxdy));
    const F cbx = gf(&Interpolator::cbx) + dx * gf(&Interpolator::dcbxdx);
    const F cby = gf(&Interpolator::cby) + dy * gf(&Interpolator::dcbydy);
    const F cbz = gf(&Interpolator::cbz) + dz * gf(&Interpolator::dcbzdz);

    const F qdt2m(c.qdt2m);
    const F hax = qdt2m * ex, hay = qdt2m * ey, haz = qdt2m * ez;
    ux += hax;
    uy += hay;
    uz += haz;
    const F one(1.0f);
    const F gmi = simd::rsqrt(one + ux * ux + uy * uy + uz * uz);
    const F tx = qdt2m * cbx * gmi;
    const F ty = qdt2m * cby * gmi;
    const F tz = qdt2m * cbz * gmi;
    const F sfac = F(2.0f) / (one + tx * tx + ty * ty + tz * tz);
    const F wx = ux + (uy * tz - uz * ty);
    const F wy = uy + (uz * tx - ux * tz);
    const F wz = uz + (ux * ty - uy * tx);
    ux += (wy * tz - wz * ty) * sfac + hax;
    uy += (wz * tx - wx * tz) * sfac + hay;
    uz += (wx * ty - wy * tx) * sfac + haz;

    const F rg = simd::rsqrt(one + ux * ux + uy * uy + uz * uz);
    const F dispx = F(c.cdtdx2) * ux * rg;
    const F dispy = F(c.cdtdy2) * uy * rg;
    const F dispz = F(c.cdtdz2) * uz * rg;

    for (int l = 0; l < W; ++l) {
      Particle p;
      p.dx = dx[l];
      p.dy = dy[l];
      p.dz = dz[l];
      p.i = v.cell[l];
      p.ux = ux[l];
      p.uy = uy[l];
      p.uz = uz[l];
      p.w = v.w[l];
      finish_move(p, dispx[l], dispy[l], dispz[l], c.qw_sign * p.w, acc, g,
                  opts);
      a.store(n0 + l, p);
    }
  }
}

template <class A>
void push_manual(Species& sp, const A& a, const InterpolatorArray& interp,
                 AccumulatorArray& acc, const Grid& g,
                 const MoverOptions& opts) {
  constexpr int W = kManualVecWidth;
  const PushConsts c = make_consts(sp, g);
  const index_t nfull = sp.np / W;

  pk::parallel_for("advance_p[manual]", nfull, [&](index_t b) {
    push_manual_block(a, interp, acc, g, opts, c, b * W);
  });

  push_scalar_range(a, interp, acc, g, opts, c, nfull * W, sp.np);
}

// ----------------------------------------------------------------------
// AdHoc: VPIC 1.2 style — the per-ISA v4 intrinsics library, 4-particle
// blocks, two 4x4 register transposes per load. The transposes want the
// packed AoS record; non-AoS layouts stage each block into a local AoS
// scratch tile first (the historical pipeline simply was not built for
// them — AdHoc exists as the paper's legacy baseline).
// ----------------------------------------------------------------------
template <class A>
void push_adhoc(Species& sp, const A& a, const InterpolatorArray& interp,
                AccumulatorArray& acc, const Grid& g,
                const MoverOptions& opts) {
  using V = v4::vfloat4;
  constexpr int W = kAdHocVecWidth;
  const PushConsts c = make_consts(sp, g);
  const index_t nfull = sp.np / W;

  pk::parallel_for("advance_p[adhoc]", nfull, [&](index_t b) {
    const index_t n0 = b * W;
    Particle staged[W];
    const float* base;
    if constexpr (A::layout == ParticleLayout::AoS) {
      base = reinterpret_cast<const float*>(a.p + n0);
    } else {
      for (int l = 0; l < W; ++l) staged[l] = a.load(n0 + l);
      base = reinterpret_cast<const float*>(staged);
    }
    // Transpose positions (fields 0-3) and momenta+weight (fields 4-7).
    V dx = V::load(base + 0), dy = V::load(base + 8), dz = V::load(base + 16),
      ci = V::load(base + 24);
    V::transpose(dx, dy, dz, ci);
    V ux = V::load(base + 4), uy = V::load(base + 12), uz = V::load(base + 20),
      w = V::load(base + 28);
    V::transpose(ux, uy, uz, w);

    std::int32_t cell[W];
    {
      float tmp[W];
      ci.store(tmp);
      std::memcpy(cell, tmp, sizeof(cell));
    }
    auto gf = [&](auto member) {
      V r;
      for (int l = 0; l < W; ++l) r.set(l, interp(cell[l]).*member);
      return r;
    };
    const V ex = gf(&Interpolator::ex) + dy * gf(&Interpolator::dexdy) +
                 dz * (gf(&Interpolator::dexdz) +
                       dy * gf(&Interpolator::d2exdydz));
    const V ey = gf(&Interpolator::ey) + dz * gf(&Interpolator::deydz) +
                 dx * (gf(&Interpolator::deydx) +
                       dz * gf(&Interpolator::d2eydzdx));
    const V ez = gf(&Interpolator::ez) + dx * gf(&Interpolator::dezdx) +
                 dy * (gf(&Interpolator::dezdy) +
                       dx * gf(&Interpolator::d2ezdxdy));
    const V cbx = gf(&Interpolator::cbx) + dx * gf(&Interpolator::dcbxdx);
    const V cby = gf(&Interpolator::cby) + dy * gf(&Interpolator::dcbydy);
    const V cbz = gf(&Interpolator::cbz) + dz * gf(&Interpolator::dcbzdz);

    const V qdt2m(c.qdt2m);
    const V hax = qdt2m * ex, hay = qdt2m * ey, haz = qdt2m * ez;
    ux = ux + hax;
    uy = uy + hay;
    uz = uz + haz;
    const V one(1.0f);
    const V gmi = V::rsqrt(one + ux * ux + uy * uy + uz * uz);
    const V tx = qdt2m * cbx * gmi;
    const V ty = qdt2m * cby * gmi;
    const V tz = qdt2m * cbz * gmi;
    const V sfac = V(2.0f) / (one + tx * tx + ty * ty + tz * tz);
    const V wx = ux + (uy * tz - uz * ty);
    const V wy = uy + (uz * tx - ux * tz);
    const V wz = uz + (ux * ty - uy * tx);
    ux = ux + (wy * tz - wz * ty) * sfac + hax;
    uy = uy + (wz * tx - wx * tz) * sfac + hay;
    uz = uz + (wx * ty - wy * tx) * sfac + haz;

    const V rg = V::rsqrt(one + ux * ux + uy * uy + uz * uz);
    const V dispx = V(c.cdtdx2) * ux * rg;
    const V dispy = V(c.cdtdy2) * uy * rg;
    const V dispz = V(c.cdtdz2) * uz * rg;

    for (int l = 0; l < W; ++l) {
      Particle p;
      p.dx = dx[l];
      p.dy = dy[l];
      p.dz = dz[l];
      p.i = cell[l];
      p.ux = ux[l];
      p.uy = uy[l];
      p.uz = uz[l];
      p.w = w[l];
      finish_move(p, dispx[l], dispy[l], dispz[l], c.qw_sign * p.w, acc, g,
                  opts);
      a.store(n0 + l, p);
    }
  });

  push_scalar_range(a, interp, acc, g, opts, c, nfull * W, sp.np);
}

// ======================================================================
// Run-aware variants (docs/PUSH.md). The particle array is segmented into
// maximal same-cell runs; each run
//   * broadcasts its cell's 18-float interpolator record into registers
//     once (replacing W x 14 per-lane gathers with 14 scalar loads), and
//   * accumulates its current into a stack-local Accumulator with plain
//     adds, deposited into the global array with ONE batch of 12 atomics
//     per (run, home cell) instead of 12 per particle.
// Particles whose displacement leaves the cell fall back to the exact
// move_p path (atomic deposits per sub-segment), so physics is identical
// to the generic strategies on any particle order.
// ======================================================================

/// Merge a run's local accumulation into the global record. Other runs
/// (same cell appearing twice in unsorted input, or movers crossing in
/// from neighbor runs) may target the same record concurrently, so the
/// batch is atomic — except into a tile-private block, which only the
/// (serial) owning task touches.
inline void flush_run_accumulator(const Accumulator& local, Accumulator& g,
                                  bool atomic = true) {
  if (atomic) {
    for (int k = 0; k < 4; ++k) {
      pk::atomic_add(&g.jx[k], local.jx[k]);
      pk::atomic_add(&g.jy[k], local.jy[k]);
      pk::atomic_add(&g.jz[k], local.jz[k]);
    }
    return;
  }
  for (int k = 0; k < 4; ++k) {
    g.jx[k] += local.jx[k];
    g.jy[k] += local.jy[k];
    g.jz[k] += local.jz[k];
  }
}

/// Complete a run particle's move: the (overwhelmingly common) stays-in-
/// cell case deposits into the run-local accumulator with plain adds and
/// never touches the grid walk; cell crossers take the generic
/// finish_move/move_p path. The stay predicate and deposit reproduce
/// move_p's f >= 1 branch exactly (same midpoint, same += update).
template <class AccA>
inline void finish_move_run(Particle& p, float dispx, float dispy,
                            float dispz, float qw, Accumulator& local,
                            AccA& acc, const Grid& g,
                            const MoverOptions& opts) {
  const float nx = p.dx + dispx;
  const float ny = p.dy + dispy;
  const float nz = p.dz + dispz;
  if (nx <= 1.0f && nx >= -1.0f && ny <= 1.0f && ny >= -1.0f &&
      nz <= 1.0f && nz >= -1.0f) {
    accumulate_j(local, qw, p.dx + 0.5f * dispx, p.dy + 0.5f * dispy,
                 p.dz + 0.5f * dispz, dispx, dispy, dispz,
                 /*atomic=*/false);
    p.dx = nx;
    p.dy = ny;
    p.dz = nz;
    return;
  }
  finish_move(p, dispx, dispy, dispz, qw, acc, g, opts);
}

/// Scalar run body: push particles [n0, n1) of the run whose hoisted
/// interpolator is `ip`. Shared by the Auto variant and by the ragged
/// sub-W tails of the vectorized variants.
template <class A, class AccA>
inline void push_run_scalar(const A& a, const Interpolator& ip,
                            const PushConsts& c, index_t n0, index_t n1,
                            Accumulator& local, AccA& acc,
                            const Grid& g, const MoverOptions& opts) {
  for (index_t n = n0; n < n1; ++n) {
    Particle p = a.load(n);
    const FieldsAtPoint f = interpolate(ip, p.dx, p.dy, p.dz);
    boris(p.ux, p.uy, p.uz, c.qdt2m * f.ex, c.qdt2m * f.ey, c.qdt2m * f.ez,
          f.bx, f.by, f.bz, c.qdt2m);
    const float rg =
        1.0f / std::sqrt(1.0f + p.ux * p.ux + p.uy * p.uy + p.uz * p.uz);
    finish_move_run(p, c.cdtdx2 * p.ux * rg, c.cdtdy2 * p.uy * rg,
                    c.cdtdz2 * p.uz * rg, c.qw_sign * p.w, local, acc, g,
                    opts);
    a.store(n, p);
  }
}

/// One whole run, Auto style: hoisted interpolator, scalar body, one
/// flush. Shared by the parallel kernel and the serial run-range path.
template <class A, class AccA>
inline void run_body_auto(const A& a, const sort::CellRun& run,
                          const InterpolatorArray& interp, AccA& acc,
                          const Grid& g, const MoverOptions& opts,
                          const PushConsts& c) {
  const Interpolator ip = interp(run.cell);  // hoisted: once per run
  Accumulator local{};
  push_run_scalar(a, ip, c, run.begin, run.begin + run.count, local, acc, g,
                  opts);
  flush_run_accumulator(local, acc.a(run.cell), kAtomicDeposit<AccA>);
}

template <class A>
void push_auto_runs(Species& sp, const A& a, const InterpolatorArray& interp,
                    AccumulatorArray& acc, const Grid& g,
                    const MoverOptions& opts,
                    const std::vector<sort::CellRun>& runs) {
  const PushConsts c = make_consts(sp, g);
  pk::parallel_for(
      "advance_p[auto_runs]", static_cast<index_t>(runs.size()),
      [&](index_t r) {
        run_body_auto(a, runs[static_cast<std::size_t>(r)], interp, acc, g,
                      opts, c);
      });
}

/// One whole run, Guided style (blocked forced-SIMD compute + scalar
/// movers). Shared by the parallel kernel and the serial run-range path.
template <class A, class AccA>
inline void run_body_guided(const A& a, const sort::CellRun& run,
                            const InterpolatorArray& interp, AccA& acc,
                            const Grid& g, const MoverOptions& opts,
                            const PushConsts& c) {
  constexpr index_t kBlock = kPushBlock;
  {
        const Interpolator ip = interp(run.cell);
        Accumulator local{};
        float dispx[kBlock], dispy[kBlock], dispz[kBlock];
        float nux[kBlock], nuy[kBlock], nuz[kBlock];
        const index_t rend = run.begin + run.count;
        for (index_t n0 = run.begin; n0 < rend; n0 += kBlock) {
          const int cnt = static_cast<int>(std::min(rend - n0, kBlock));
          PK_OMP_SIMD
          for (int k = 0; k < cnt; ++k) {
            const Particle p = a.load(n0 + k);
            // Interpolation off broadcast scalars: the compiler hoists the
            // 14 ip loads out of the simd loop — no per-lane gather.
            const float ex = ip.ex + p.dy * ip.dexdy +
                             p.dz * (ip.dexdz + p.dy * ip.d2exdydz);
            const float ey = ip.ey + p.dz * ip.deydz +
                             p.dx * (ip.deydx + p.dz * ip.d2eydzdx);
            const float ez = ip.ez + p.dx * ip.dezdx +
                             p.dy * (ip.dezdy + p.dx * ip.d2ezdxdy);
            const float cbx = ip.cbx + p.dx * ip.dcbxdx;
            const float cby = ip.cby + p.dy * ip.dcbydy;
            const float cbz = ip.cbz + p.dz * ip.dcbzdz;
            float ux = p.ux, uy = p.uy, uz = p.uz;
            boris(ux, uy, uz, c.qdt2m * ex, c.qdt2m * ey, c.qdt2m * ez, cbx,
                  cby, cbz, c.qdt2m);
            const float rg =
                1.0f / std::sqrt(1.0f + ux * ux + uy * uy + uz * uz);
            nux[k] = ux;
            nuy[k] = uy;
            nuz[k] = uz;
            dispx[k] = c.cdtdx2 * ux * rg;
            dispy[k] = c.cdtdy2 * uy * rg;
            dispz[k] = c.cdtdz2 * uz * rg;
          }
          for (int k = 0; k < cnt; ++k) {
            Particle p = a.load(n0 + k);
            p.ux = nux[k];
            p.uy = nuy[k];
            p.uz = nuz[k];
            finish_move_run(p, dispx[k], dispy[k], dispz[k],
                            c.qw_sign * p.w, local, acc, g, opts);
            a.store(n0 + k, p);
          }
        }
        flush_run_accumulator(local, acc.a(run.cell), kAtomicDeposit<AccA>);
  }
}

template <class A>
void push_guided_runs(Species& sp, const A& a,
                      const InterpolatorArray& interp, AccumulatorArray& acc,
                      const Grid& g, const MoverOptions& opts,
                      const std::vector<sort::CellRun>& runs) {
  const PushConsts c = make_consts(sp, g);
  pk::parallel_for(
      "advance_p[guided_runs]", static_cast<index_t>(runs.size()),
      [&](index_t r) {
        run_body_guided(a, runs[static_cast<std::size_t>(r)], interp, acc, g,
                        opts, c);
      });
}

/// One whole run, Manual style (W-wide SIMD blocks + ragged scalar tail).
/// Shared by the parallel kernel and the serial run-range path.
template <class A, class AccA>
inline void run_body_manual(const A& a, const sort::CellRun& run,
                            const InterpolatorArray& interp, AccA& acc,
                            const Grid& g, const MoverOptions& opts,
                            const PushConsts& c) {
  constexpr int W = kManualVecWidth;
  using F = simd::simd<float, W>;
  {
        const Interpolator ip = interp(run.cell);
        Accumulator local{};
        const index_t rend = run.begin + run.count;
        const index_t nfull = run.begin + (run.count / W) * W;
        for (index_t n0 = run.begin; n0 < nfull; n0 += W) {
          // Runs start at arbitrary offsets; the accessor's load_vecs
          // handles the unaligned AoSoA case with a lane gather.
          const ParticleVecs<W> v = a.template load_vecs<W>(n0);
          const F dx = v.dx, dy = v.dy, dz = v.dz;
          F ux = v.ux, uy = v.uy, uz = v.uz;
          // Broadcast the hoisted interpolator: 14 scalar-load broadcasts
          // replacing the generic path's W x 14 indexed gathers.
          const F ex = F(ip.ex) + dy * F(ip.dexdy) +
                       dz * (F(ip.dexdz) + dy * F(ip.d2exdydz));
          const F ey = F(ip.ey) + dz * F(ip.deydz) +
                       dx * (F(ip.deydx) + dz * F(ip.d2eydzdx));
          const F ez = F(ip.ez) + dx * F(ip.dezdx) +
                       dy * (F(ip.dezdy) + dx * F(ip.d2ezdxdy));
          const F cbx = F(ip.cbx) + dx * F(ip.dcbxdx);
          const F cby = F(ip.cby) + dy * F(ip.dcbydy);
          const F cbz = F(ip.cbz) + dz * F(ip.dcbzdz);

          const F qdt2m(c.qdt2m);
          const F hax = qdt2m * ex, hay = qdt2m * ey, haz = qdt2m * ez;
          ux += hax;
          uy += hay;
          uz += haz;
          const F one(1.0f);
          const F gmi = simd::rsqrt(one + ux * ux + uy * uy + uz * uz);
          const F tx = qdt2m * cbx * gmi;
          const F ty = qdt2m * cby * gmi;
          const F tz = qdt2m * cbz * gmi;
          const F sfac = F(2.0f) / (one + tx * tx + ty * ty + tz * tz);
          const F wx = ux + (uy * tz - uz * ty);
          const F wy = uy + (uz * tx - ux * tz);
          const F wz = uz + (ux * ty - uy * tx);
          ux += (wy * tz - wz * ty) * sfac + hax;
          uy += (wz * tx - wx * tz) * sfac + hay;
          uz += (wx * ty - wy * tx) * sfac + haz;

          const F rg = simd::rsqrt(one + ux * ux + uy * uy + uz * uz);
          const F dispx = F(c.cdtdx2) * ux * rg;
          const F dispy = F(c.cdtdy2) * uy * rg;
          const F dispz = F(c.cdtdz2) * uz * rg;

          for (int l = 0; l < W; ++l) {
            Particle p;
            p.dx = dx[l];
            p.dy = dy[l];
            p.dz = dz[l];
            p.i = v.cell[l];
            p.ux = ux[l];
            p.uy = uy[l];
            p.uz = uz[l];
            p.w = v.w[l];
            finish_move_run(p, dispx[l], dispy[l], dispz[l],
                            c.qw_sign * p.w, local, acc, g, opts);
            a.store(n0 + l, p);
          }
        }
        // Ragged sub-W tail of the run.
        push_run_scalar(a, ip, c, nfull, rend, local, acc, g, opts);
        flush_run_accumulator(local, acc.a(run.cell), kAtomicDeposit<AccA>);
  }
}

template <class A>
void push_manual_runs(Species& sp, const A& a,
                      const InterpolatorArray& interp, AccumulatorArray& acc,
                      const Grid& g, const MoverOptions& opts,
                      const std::vector<sort::CellRun>& runs) {
  const PushConsts c = make_consts(sp, g);
  pk::parallel_for(
      "advance_p[manual_runs]", static_cast<index_t>(runs.size()),
      [&](index_t r) {
        run_body_manual(a, runs[static_cast<std::size_t>(r)], interp, acc, g,
                        opts, c);
      });
}

}  // namespace

// ----------------------------------------------------------------------
// Serial tile-task kernels (docs/TILES.md): one tile's index range or run
// sublist, executed in order on the calling thread, depositing into the
// tile-private TileAccumulator block.
// ----------------------------------------------------------------------

void advance_range_serial(Species& sp, const InterpolatorArray& interp,
                          TileAccumulator& acc, const Grid& g,
                          VectorStrategy strategy, const MoverOptions& opts,
                          index_t n0, index_t n1) {
  if (n0 >= n1) return;
  const PushConsts c = make_consts(sp, g);
  dispatch_layout(sp.p, [&](auto a) {
    switch (strategy) {
      case VectorStrategy::Auto:
        for (index_t n = n0; n < n1; ++n)
          push_one(a, n, interp, acc, g, opts, c);
        break;
      case VectorStrategy::Guided:
        for (index_t b = n0; b < n1; b += kPushBlock)
          push_guided_block(a, interp, acc, g, opts, c, b,
                            std::min(n1, b + kPushBlock));
        break;
      case VectorStrategy::Manual: {
        constexpr int W = kManualVecWidth;
        const index_t nfull = n0 + ((n1 - n0) / W) * W;
        for (index_t b = n0; b < nfull; b += W)
          push_manual_block(a, interp, acc, g, opts, c, b);
        push_scalar_range(a, interp, acc, g, opts, c, nfull, n1);
        break;
      }
      case VectorStrategy::AdHoc:
        // The 4-wide transpose pipeline reads whole AoS blocks from a
        // fixed base; per-tile rebasing has no exact equivalent, so tiles
        // run the scalar pipeline (same physics within rsqrt ulps).
        push_scalar_range(a, interp, acc, g, opts, c, n0, n1);
        break;
    }
  });
}

void advance_runs_serial(Species& sp, const InterpolatorArray& interp,
                         TileAccumulator& acc, const Grid& g,
                         VectorStrategy strategy, const MoverOptions& opts,
                         const std::vector<sort::CellRun>& runs,
                         std::size_t r0, std::size_t r1) {
  if (strategy == VectorStrategy::AdHoc)
    throw std::invalid_argument(
        "advance_runs_serial: AdHoc has no run-aware variant");
  const PushConsts c = make_consts(sp, g);
  dispatch_layout(sp.p, [&](auto a) {
    for (std::size_t r = r0; r < r1 && r < runs.size(); ++r) {
      const sort::CellRun& run = runs[r];
      switch (strategy) {
        case VectorStrategy::Auto:
          run_body_auto(a, run, interp, acc, g, opts, c);
          break;
        case VectorStrategy::Guided:
          run_body_guided(a, run, interp, acc, g, opts, c);
          break;
        case VectorStrategy::Manual:
          run_body_manual(a, run, interp, acc, g, opts, c);
          break;
        case VectorStrategy::AdHoc:
          break;  // unreachable: thrown above
      }
    }
  });
}

bool run_aware_profitable(const Species& sp) {
  return run_aware_profitable_range(sp, 0, sp.np, sp.cell_sorted_hint,
                                    sp.steps_since_sort);
}

PushPath advance_species(Species& sp, const InterpolatorArray& interp,
                         AccumulatorArray& acc, const Grid& g,
                         VectorStrategy strategy, const MoverOptions& opts,
                         PushPath path) {
  prof::ScopedRegion region("advance_species");
  if (opts.exits != nullptr && opts.exits_mutex == nullptr &&
      pk::DefaultExecSpace::concurrency() > 1)
    throw std::logic_error(
        "advance_species: opts.exits requires opts.exits_mutex when the "
        "default execution space is concurrent (unlocked push_back from "
        "parallel mover lanes is a data race)");

  const PushPath taken =
      resolve_push_path(sp, strategy, path, 0, sp.np, sp.cell_sorted_hint,
                        sp.steps_since_sort);
  if (taken == PushPath::RunAware) {
    {
      prof::ScopedRegion seg("segment_runs");
      dispatch_layout(sp.p, [&](auto a) {
        sort::segment_runs(sp.np, [a](index_t i) { return a.cell(i); },
                           sp.push_runs);
      });
    }
    dispatch_layout(sp.p, [&](auto a) {
      switch (strategy) {
        case VectorStrategy::Auto:
          push_auto_runs(sp, a, interp, acc, g, opts, sp.push_runs);
          break;
        case VectorStrategy::Guided:
          push_guided_runs(sp, a, interp, acc, g, opts, sp.push_runs);
          break;
        case VectorStrategy::Manual:
          push_manual_runs(sp, a, interp, acc, g, opts, sp.push_runs);
          break;
        case VectorStrategy::AdHoc:
          break;  // unreachable: filtered above
      }
    });
  } else {
    dispatch_layout(sp.p, [&](auto a) {
      switch (strategy) {
        case VectorStrategy::Auto:
          push_auto(sp, a, interp, acc, g, opts);
          break;
        case VectorStrategy::Guided:
          push_guided(sp, a, interp, acc, g, opts);
          break;
        case VectorStrategy::Manual:
          push_manual(sp, a, interp, acc, g, opts);
          break;
        case VectorStrategy::AdHoc:
          push_adhoc(sp, a, interp, acc, g, opts);
          break;
      }
    });
  }
  // Pushing moves particles across cells: age the sortedness hint.
  sp.mark_order_degraded();
  return taken;
}

void advance_species_runs(Species& sp, const InterpolatorArray& interp,
                          AccumulatorArray& acc, const Grid& g,
                          VectorStrategy strategy, const MoverOptions& opts,
                          const std::vector<sort::CellRun>& runs) {
  prof::ScopedRegion region("advance_species_runs");
  if (opts.exits != nullptr && opts.exits_mutex == nullptr &&
      pk::DefaultExecSpace::concurrency() > 1)
    throw std::logic_error(
        "advance_species_runs: opts.exits requires opts.exits_mutex when "
        "the default execution space is concurrent");
  if (strategy == VectorStrategy::AdHoc)
    throw std::invalid_argument(
        "advance_species_runs: AdHoc has no run-aware variant");
  dispatch_layout(sp.p, [&](auto a) {
    switch (strategy) {
      case VectorStrategy::Auto:
        push_auto_runs(sp, a, interp, acc, g, opts, runs);
        break;
      case VectorStrategy::Guided:
        push_guided_runs(sp, a, interp, acc, g, opts, runs);
        break;
      case VectorStrategy::Manual:
        push_manual_runs(sp, a, interp, acc, g, opts, runs);
        break;
      case VectorStrategy::AdHoc:
        break;  // unreachable: thrown above
    }
  });
}

bool run_aware_profitable_range(const Species& sp, index_t n0, index_t n1,
                                bool sorted_hint, int steps_since_sort) {
  // Gates (core/push_tuning.hpp): below min_particles the per-run overhead
  // and segmentation pass dominate; beyond max_stale steps since the last
  // cell sort the probe is not worth running every step; the probe gates
  // on the estimated mean run length covering the per-run overhead
  // (hoisted 18-float load + 12-atomic flush amortized over the run).
  const index_t n = n1 - n0;
  if (n <= 0) return false;
  if (n < kPushGates.min_particles) return false;
  if (!sorted_hint || steps_since_sort < 0) return false;
  if (steps_since_sort == 0) return true;  // fresh from a sort
  if (steps_since_sort > kPushGates.max_stale) return false;
  return dispatch_layout(sp.p, [&](auto a) {
    const auto probe = sort::probe_runs(
        n, [a, n0](index_t i) { return a.cell(n0 + i); });
    return probe.mean_run_estimate() >= kPushGates.min_mean_run;
  });
}

PushPath resolve_push_path(const Species& sp, VectorStrategy strategy,
                           PushPath path, index_t n0, index_t n1,
                           bool sorted_hint, int steps_since_sort) {
  bool use_runs = false;
  switch (path) {
    case PushPath::Generic:
      break;
    case PushPath::RunAware:
      use_runs = strategy != VectorStrategy::AdHoc;  // AdHoc has no variant
      break;
    case PushPath::AutoDetect:
      use_runs = strategy != VectorStrategy::AdHoc &&
                 run_aware_profitable_range(sp, n0, n1, sorted_hint,
                                            steps_since_sort);
      break;
  }
  prof::counter_add(use_runs ? "push.dispatch.run_aware"
                             : "push.dispatch.generic");
  return use_runs ? PushPath::RunAware : PushPath::Generic;
}

index_t compact_exited(Species& sp) {
  return dispatch_layout(sp.p, [&](auto a) {
    index_t out = 0;
    for (index_t n = 0; n < sp.np; ++n) {
      if (a.cell(n) >= 0) {
        if (out != n) a.store(out, a.load(n));
        ++out;
      }
    }
    const index_t removed = sp.np - out;
    sp.np = out;
    return removed;
  });
}

}  // namespace vpic::core
