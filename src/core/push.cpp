// core/push.cpp — the four vectorization-strategy implementations of the
// particle push. See push.hpp for the strategy taxonomy.
//
// Every kernel reads and writes particles through the store's
// ParticleAccessor (core/particle_store.hpp: load/store/cell + load_vecs).
// Each strategy has one body, templated on where a particle's interpolator
// record comes from (GatheredRecord or HoistedRecord) and how its move
// finishes (MoveFinish or RunFinish); push_on is the one entry that picks
// the path and launches the body on an execution space. The structural
// constants (block size, vector widths) and the AutoDetect dispatch gate
// come from core/push_tuning.hpp.
#include "core/push.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "core/boris.hpp"
#include "core/move_p.hpp"
#include "core/push_tuning.hpp"
#include "core/sort_particles.hpp"
#include "core/tiles.hpp"
#include "prof/prof.hpp"
#include "simd/simd.hpp"
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
PK_FORCEINLINE void finish_move_run(Particle& p, float dispx, float dispy,
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

// ----------------------------------------------------------------------
// The two push paths (docs/PUSH.md). Each strategy body below is written
// once and templated on the two things the paths differ in: where a
// particle's interpolator record comes from (a record source, passed by
// value so a hoisted record is a loop-invariant local), and how its move
// finishes (a finish).
// ----------------------------------------------------------------------

/// Generic source: each particle gathers its own cell's record.
struct GatheredRecord {
  const InterpolatorArray* interp;

  PK_FORCEINLINE const Interpolator& operator()(std::int32_t cell) const {
    return (*interp)(cell);
  }
  /// Field `m` of the W lanes' cells: one indexed gather per lane.
  template <class F>
  PK_FORCEINLINE F lanes(const std::int32_t* cell,
                         float Interpolator::*m) const {
    F r;
    for (int l = 0; l < F::size(); ++l) r.set(l, (*interp)(cell[l]).*m);
    return r;
  }
};

/// Run-aware source: the run's one record, hoisted once — 14 scalar
/// loads broadcast to every lane instead of W x 14 gathers.
struct HoistedRecord {
  Interpolator ip;

  PK_FORCEINLINE const Interpolator& operator()(std::int32_t) const {
    return ip;
  }
  template <class F>
  PK_FORCEINLINE F lanes(const std::int32_t*, float Interpolator::*m) const {
    return F(ip.*m);
  }
};

/// Generic finish: every move goes through move_p into the sink.
template <class AccA>
struct MoveFinish {
  AccA& acc;
  const Grid& g;
  const MoverOptions& opts;

  PK_FORCEINLINE void operator()(Particle& p, float dispx, float dispy,
                                 float dispz, float qw) const {
    finish_move(p, dispx, dispy, dispz, qw, acc, g, opts);
  }
};

/// Run-aware finish: a particle that stays in its cell deposits into the
/// run-local record with plain adds (flushed once per run); a crosser
/// takes move_p into the sink.
template <class AccA>
struct RunFinish {
  Accumulator& local;
  AccA& acc;
  const Grid& g;
  const MoverOptions& opts;

  PK_FORCEINLINE void operator()(Particle& p, float dispx, float dispy,
                                 float dispz, float qw) const {
    finish_move_run(p, dispx, dispy, dispz, qw, local, acc, g, opts);
  }
};

// ----------------------------------------------------------------------
// Scalar body: one particle. It is the Auto strategy, the scalar tail of
// the blocked Manual and AdHoc strategies, and AdHoc in a tile.
// ----------------------------------------------------------------------
template <class Rec, class Fin>
PK_FORCEINLINE void push_one(const ParticleAccessor& a, index_t n, Rec rec,
                             const Fin& fin, const PushConsts& c) {
  Particle p = a.load(n);
  const FieldsAtPoint f = interpolate(rec(p.i), p.dx, p.dy, p.dz);
  boris(p.ux, p.uy, p.uz, c.qdt2m * f.ex, c.qdt2m * f.ey, c.qdt2m * f.ez,
        f.bx, f.by, f.bz, c.qdt2m);
  const float rg =
      1.0f / std::sqrt(1.0f + p.ux * p.ux + p.uy * p.uy + p.uz * p.uz);
  fin(p, c.cdtdx2 * p.ux * rg, c.cdtdy2 * p.uy * rg, c.cdtdz2 * p.uz * rg,
      c.qw_sign * p.w);
  a.store(n, p);
}

// ----------------------------------------------------------------------
// Guided body: kernel split. Phase 1 (forced-SIMD): gather + Boris + new
// momenta + displacements into block-local arrays. Phase 2 (scalar): the
// branchy mover. The split is the paper's "separate difficult-to-
// vectorize" refactoring; #pragma omp simd is the guided pragma. One
// block [n0, n1), n1 - n0 <= kPushBlock; per-particle results are
// independent of where blocks start.
// ----------------------------------------------------------------------
template <class Rec, class Fin>
inline void push_guided_block(const ParticleAccessor& a, Rec rec,
                              const Fin& fin, const PushConsts& c, index_t n0,
                              index_t n1) {
  constexpr index_t kBlock = kPushBlock;
  const int cnt = static_cast<int>(n1 - n0);
  float dispx[kBlock], dispy[kBlock], dispz[kBlock];
  float nux[kBlock], nuy[kBlock], nuz[kBlock];

  PK_OMP_SIMD
    for (int k = 0; k < cnt; ++k) {
      const Particle p = a.load(n0 + k);
      // On the run path the record is the hoisted one: the compiler lifts
      // its 14 loads out of the simd loop — no per-lane gather.
      const Interpolator& ip = rec(p.i);
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
    fin(p, dispx[k], dispy[k], dispz[k], c.qw_sign * p.w);
    a.store(n0 + k, p);
  }
}

// ----------------------------------------------------------------------
// Manual body: portable SIMD library. One full W-wide block starting at
// n0 (the particle record is 8 floats), vector Boris, scalar mover. The
// block load is the accessor's load_vecs, an 8x8 register transpose that
// takes any n0.
// ----------------------------------------------------------------------
template <class Rec, class Fin>
inline void push_manual_block(const ParticleAccessor& a, Rec rec,
                              const Fin& fin, const PushConsts& c,
                              index_t n0) {
  constexpr int W = kManualVecWidth;
  using F = simd::simd<float, W>;
  const ParticleVecs<W> v = a.load_vecs<W>(n0);
  const F dx = v.dx, dy = v.dy, dz = v.dz;
  F ux = v.ux, uy = v.uy, uz = v.uz;
  // Interpolator fields, one at a time: per-lane gathers on the generic
  // path, broadcasts of the hoisted record on the run path.
  auto gf = [&](float Interpolator::*m) PK_FORCEINLINE_LAMBDA {
    return rec.template lanes<F>(v.cell, m);
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
    fin(p, dispx[l], dispy[l], dispz[l], c.qw_sign * p.w);
    a.store(n0 + l, p);
  }
}

/// Strategy S over particles [n0, n1): Auto one particle at a time;
/// Guided in kPushBlock blocks from n0; Manual in W-wide blocks from n0,
/// then the scalar body for the sub-W tail. The run-aware path pushes
/// each run this way, and the generic path its sub-W tails (as Auto).
template <VectorStrategy S, class Rec, class Fin>
inline void push_span(const ParticleAccessor& a, Rec rec, const Fin& fin,
                      const PushConsts& c, index_t n0, index_t n1) {
  if constexpr (S == VectorStrategy::Guided) {
    for (index_t b = n0; b < n1; b += kPushBlock)
      push_guided_block(a, rec, fin, c, b, std::min(n1, b + kPushBlock));
  } else if constexpr (S == VectorStrategy::Manual) {
    constexpr int W = kManualVecWidth;
    const index_t nfull = n0 + ((n1 - n0) / W) * W;
    for (index_t b = n0; b < nfull; b += W)
      push_manual_block(a, rec, fin, c, b);
    for (index_t n = nfull; n < n1; ++n) push_one(a, n, rec, fin, c);
  } else {
    for (index_t n = n0; n < n1; ++n) push_one(a, n, rec, fin, c);
  }
}

// ----------------------------------------------------------------------
// AdHoc: VPIC 1.2 style — the per-ISA v4 intrinsics library, 4-particle
// blocks, two 4x4 register transposes per load straight from the packed
// records. AdHoc exists as the paper's legacy baseline: it is generic
// only, and runs into the shared array only: a tile runs the scalar body.
// ----------------------------------------------------------------------
template <class Fin>
inline void push_adhoc_block(const ParticleAccessor& a, GatheredRecord rec,
                             const Fin& fin, const PushConsts& c,
                             index_t b0) {
  using V = v4::vfloat4;
  constexpr int W = kAdHocVecWidth;
  const float* base = reinterpret_cast<const float*>(a.p + b0);
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
  auto gf = [&](float Interpolator::*member) PK_FORCEINLINE_LAMBDA {
    V r;
    for (int l = 0; l < W; ++l) r.set(l, rec(cell[l]).*member);
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
    fin(p, dispx[l], dispy[l], dispz[l], c.qw_sign * p.w);
    a.store(b0 + l, p);
  }
}

// ----------------------------------------------------------------------
// Launches on an execution space. pk::DefaultExecSpace runs the untiled
// step's static RangePolicy kernels; pk::Serial runs one tile inside its
// stealing task, never a nested OpenMP team.
// ----------------------------------------------------------------------

constexpr const char* kGenericKernel[] = {
    "advance_p[auto]", "advance_p[guided]", "advance_p[manual]",
    "advance_p[adhoc]"};
constexpr const char* kRunKernel[] = {
    "advance_p[auto_runs]", "advance_p[guided_runs]", "advance_p[manual_runs]",
    nullptr};

/// Generic path over [n0, n1): Auto launches one particle per iteration
/// and Guided one kPushBlock block; Manual and AdHoc launch their full
/// W-wide blocks, then push the sub-W tail with the scalar body on the
/// calling thread.
template <class Space, VectorStrategy S, class Fin>
void push_generic(const ParticleAccessor& a, GatheredRecord rec,
                  const Fin& fin, const PushConsts& c, index_t n0,
                  index_t n1) {
  constexpr index_t G = S == VectorStrategy::Auto     ? 1
                        : S == VectorStrategy::Guided ? kPushBlock
                        : S == VectorStrategy::Manual ? kManualVecWidth
                                                      : kAdHocVecWidth;
  constexpr bool kBlocked =
      S == VectorStrategy::Manual || S == VectorStrategy::AdHoc;
  const index_t nchunks = kBlocked ? (n1 - n0) / G : (n1 - n0 + G - 1) / G;
  pk::parallel_for(
      kGenericKernel[static_cast<int>(S)], pk::RangePolicy<Space>(nchunks),
      [&](index_t k) {
        const index_t b = n0 + k * G;
        if constexpr (S == VectorStrategy::Auto)
          push_one(a, b, rec, fin, c);
        else if constexpr (S == VectorStrategy::Guided)
          push_guided_block(a, rec, fin, c, b, std::min(n1, b + G));
        else if constexpr (S == VectorStrategy::Manual)
          push_manual_block(a, rec, fin, c, b);
        else
          push_adhoc_block(a, rec, fin, c, b);
      });
  if constexpr (kBlocked)
    push_span<VectorStrategy::Auto>(a, rec, fin, c, n0 + nchunks * G, n1);
}

/// One run [b, e) of `cell`: pushed with the cell's hoisted record, its
/// stay-in-cell current flushed once.
template <VectorStrategy S, class AccA>
PK_FORCEINLINE void push_run(const ParticleAccessor& a,
                             const InterpolatorArray& interp, AccA& acc,
                             const Grid& g, const MoverOptions& opts,
                             const PushConsts& c, std::int32_t cell,
                             index_t b, index_t e) {
  Accumulator local{};
  push_span<S>(a, HoistedRecord{interp(cell)},
               RunFinish<AccA>{local, acc, g, opts}, c, b, e);
  flush_run_accumulator(local, acc.a(cell), kAtomicDeposit<AccA>);
}

/// Most chunks a run-aware launch splits its range into: one per member
/// of the execution space, up to this many.
constexpr int kMaxRunChunks = 256;

/// Run-aware path over [n0, n1), finding the runs while it pushes. The
/// range splits into one chunk per member of Space, and each chunk's
/// nominal start moves forward, before the launch, to the next run start
/// (a slot whose cell differs from the slot before), so no run straddles
/// two chunks. Each chunk then walks its maximal same-cell runs in slot
/// order: it scans a run's end before pushing it (the push moves crossers
/// to other cells) and reads no slot outside the chunk, which another
/// member may be pushing. The runs, and the order each chunk pushes and
/// flushes them in, are those of sort::segment_runs over the range.
template <class Space, VectorStrategy S, class AccA>
void push_runs_found(const ParticleAccessor& a,
                     const InterpolatorArray& interp, AccA& acc,
                     const Grid& g, const MoverOptions& opts,
                     const PushConsts& c, index_t n0, index_t n1) {
  const index_t n = n1 - n0;
  const int chunks = static_cast<int>(std::clamp<index_t>(
      std::min<index_t>(Space::concurrency(), kMaxRunChunks), 1,
      std::max<index_t>(n, 1)));
  index_t start[kMaxRunChunks + 1];
  start[0] = n0;
  for (int k = 1; k < chunks; ++k) {
    index_t b = std::max(start[k - 1], n0 + n * k / chunks);
    while (b > n0 && b < n1 && a.cell(b) == a.cell(b - 1)) ++b;
    start[k] = b;
  }
  start[chunks] = n1;
  pk::parallel_for(kRunKernel[static_cast<int>(S)],
                   pk::RangePolicy<Space>(chunks), [&](index_t k) {
                     const index_t end = start[k + 1];
                     for (index_t b = start[k]; b < end;) {
                       const std::int32_t cell = a.cell(b);
                       index_t e = b + 1;
                       while (e < end && a.cell(e) == cell) ++e;
                       push_run<S>(a, interp, acc, g, opts, c, cell, b, e);
                       b = e;
                     }
                   });
}

template <VectorStrategy S>
using StrategyTag = std::integral_constant<VectorStrategy, S>;

/// The push's one strategy switch: calls f with the strategy as a
/// compile-time tag.
template <class F>
void with_strategy(VectorStrategy s, F&& f) {
  switch (s) {
    case VectorStrategy::Auto:
      return f(StrategyTag<VectorStrategy::Auto>{});
    case VectorStrategy::Guided:
      return f(StrategyTag<VectorStrategy::Guided>{});
    case VectorStrategy::Manual:
      return f(StrategyTag<VectorStrategy::Manual>{});
    case VectorStrategy::AdHoc:
      return f(StrategyTag<VectorStrategy::AdHoc>{});
  }
}

/// The exit queue is a plain vector: concurrent mover lanes need its
/// mutex. A serial launch (one tile) never races.
template <class Space>
void require_guarded_exits(const MoverOptions& opts) {
  if (opts.exits != nullptr && opts.exits_mutex == nullptr &&
      Space::concurrency() > 1)
    throw std::logic_error(
        "push: opts.exits requires opts.exits_mutex when the execution "
        "space is concurrent (unlocked push_back from parallel mover lanes "
        "is a data race)");
}

/// The gate (core/push_tuning.hpp): the species is in exact cell order,
/// and [n0, n1) holds enough particles to pay for the per-run overhead
/// (hoisted 18-float load + 12-atomic flush amortized over the run).
bool run_aware_profitable_range(const Species& sp, index_t n0, index_t n1) {
  return sp.exact_cell_order() && n1 - n0 >= kPushGates.min_particles;
}

/// The push-path decision: resolve `path` to Generic or RunAware for
/// `strategy` on particles [n0, n1) from the species' order, and count
/// the outcome as
/// push.dispatch.run_aware or push.dispatch.generic. AdHoc has no
/// run-aware variant, so it always resolves to Generic.
PushPath resolve_push_path(const Species& sp, VectorStrategy strategy,
                           PushPath path, index_t n0, index_t n1) {
  bool use_runs = false;
  switch (path) {
    case PushPath::Generic:
      break;
    case PushPath::RunAware:
      use_runs = strategy != VectorStrategy::AdHoc;
      break;
    case PushPath::AutoDetect:
      use_runs = strategy != VectorStrategy::AdHoc &&
                 run_aware_profitable_range(sp, n0, n1);
      break;
  }
  prof::counter_add(use_runs ? "push.dispatch.run_aware"
                             : "push.dispatch.generic");
  return use_runs ? PushPath::RunAware : PushPath::Generic;
}

}  // namespace

template <class Space, class AccA>
PushPath push_on(Species& sp, const InterpolatorArray& interp, AccA& acc,
                 const Grid& g, VectorStrategy strategy,
                 const MoverOptions& opts, PushPath path, index_t n0,
                 index_t n1) {
  require_guarded_exits<Space>(opts);
  const PushPath taken = resolve_push_path(sp, strategy, path, n0, n1);
  const PushConsts c = make_consts(sp, g);
  const ParticleAccessor a = sp.p.accessor();
  with_strategy(strategy, [&](auto s) {
    constexpr VectorStrategy S = decltype(s)::value;
    if constexpr (S != VectorStrategy::AdHoc) {
      if (taken == PushPath::RunAware) {
        push_runs_found<Space, S>(a, interp, acc, g, opts, c, n0, n1);
        return;
      }
    }
    const GatheredRecord rec{&interp};
    const MoveFinish<AccA> fin{acc, g, opts};
    // AdHoc's v4 pipeline runs into the shared array only; a tile's
    // block gets the scalar body.
    if constexpr (S != VectorStrategy::AdHoc || kAtomicDeposit<AccA>)
      push_generic<Space, S>(a, rec, fin, c, n0, n1);
    else
      push_generic<Space, VectorStrategy::Auto>(a, rec, fin, c, n0, n1);
  });
  return taken;
}

template PushPath push_on<pk::DefaultExecSpace>(
    Species&, const InterpolatorArray&, AccumulatorArray&, const Grid&,
    VectorStrategy, const MoverOptions&, PushPath, index_t, index_t);
template PushPath push_on<pk::Serial>(Species&, const InterpolatorArray&,
                                      TileAccumulator&, const Grid&,
                                      VectorStrategy, const MoverOptions&,
                                      PushPath, index_t, index_t);

PushPath advance_species(Species& sp, const InterpolatorArray& interp,
                         AccumulatorArray& acc, const Grid& g,
                         VectorStrategy strategy, const MoverOptions& opts,
                         PushPath path) {
  prof::ScopedRegion region("advance_species");
  const std::size_t exits0 = opts.exits ? opts.exits->size() : 0;
  const PushPath taken = push_on<pk::DefaultExecSpace>(
      sp, interp, acc, g, strategy, opts, path, 0, sp.np);
  // Pushing moves particles across cells. A Standard-sorted species gets
  // its exact cell order back, unless an exit left a tombstone.
  const bool tombstones = opts.exits && opts.exits->size() != exits0;
  if (sp.cell_sorted_hint && !tombstones)
    sort_particles(sp, sort::SortOrder::Standard, 0, 0, g.nv());
  else
    sp.mark_order_degraded();
  return taken;
}

bool run_aware_profitable(const Species& sp) {
  return run_aware_profitable_range(sp, 0, sp.np);
}

index_t compact_exited(Species& sp) {
  index_t out = 0;
  for (index_t n = 0; n < sp.np; ++n) {
    if (sp.p.cell(n) >= 0) {
      if (out != n) sp.p(out) = sp.p(n);
      ++out;
    }
  }
  const index_t removed = sp.np - out;
  sp.np = out;
  return removed;
}

}  // namespace vpic::core
