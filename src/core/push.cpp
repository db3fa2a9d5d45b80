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
#include <vector>

#include "core/boris.hpp"
#include "core/move_p.hpp"
#include "core/push_tuning.hpp"
#include "core/sort_particles.hpp"
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

// ----------------------------------------------------------------------
// Deposit sinks (docs/PUSH.md, "Deposit sinks"). A chunk deposits through
// an AtomicSink or an OwnerSink; the run-aware path flushes each run's
// record into it and sends the run's crossers' other segments to it.
// ----------------------------------------------------------------------

/// The shared array with atomic adds: a push of a species not in exact
/// cell order, whose chunks may all deposit into any cell.
struct AtomicSink {
  AccumulatorArray* acc;

  PK_FORCEINLINE void deposit(index_t v, float qw, float mx, float my,
                              float mz, float ux, float uy,
                              float uz) const {
    acc->deposit(v, qw, mx, my, mz, ux, uy, uz);
  }
};

/// A chunk of a run-aware push in exact cell order: each cell's particles
/// form one run in one chunk, so the chunk owns its runs' cells and
/// flushes their records with plain adds. Every other segment, a
/// crosser's outside its run's cell, goes to the chunk's log, which
/// push_on applies in chunk order once every chunk is done: a cell sums
/// its run's record first and the logged segments after it in slot
/// order, wherever chunks start.
struct OwnerSink {
  AccumulatorArray* acc;
  std::vector<DepositSegment>* log;

  void deposit(index_t v, float qw, float mx, float my, float mz, float ux,
               float uy, float uz) const {
    log->push_back(
        {static_cast<std::int32_t>(v), qw, mx, my, mz, ux, uy, uz});
  }
};

/// Add a run's record into its cell's record of the shared array.
inline void add_record(Accumulator& cell, const Accumulator& run,
                       bool atomic) {
  float* dst = reinterpret_cast<float*>(&cell);
  const float* src = reinterpret_cast<const float*>(&run);
  for (int k = 0; k < 12; ++k) {
    if (atomic)
      pk::atomic_add(&dst[k], src[k]);
    else
      dst[k] += src[k];
  }
}
inline void flush(const AtomicSink& s, index_t v, const Accumulator& r) {
  add_record(s.acc->a(v), r, /*atomic=*/true);
}
inline void flush(const OwnerSink& s, index_t v, const Accumulator& r) {
  add_record(s.acc->a(v), r, /*atomic=*/false);
}

/// A run's move_p sink: a segment in the run's cell goes to the run-local
/// record, any other to the chunk's sink.
template <class Sink>
struct RunSink {
  Accumulator* local;
  index_t cell;
  Sink rest;

  PK_FORCEINLINE void deposit(index_t v, float qw, float mx, float my,
                              float mz, float ux, float uy,
                              float uz) const {
    if (v == cell)
      accumulate_j(*local, qw, mx, my, mz, ux, uy, uz, /*atomic=*/false);
    else
      rest.deposit(v, qw, mx, my, mz, ux, uy, uz);
  }
};

/// Complete a particle's move through `sink`, honoring the boundary
/// options: periodic wrap by default, reflecting walls on reflect_mask
/// axes, and, with an exit queue, exit-collection for rank-decomposed
/// axes (the exited slot is tombstoned for compact_exited).
template <class Sink>
inline void finish_move(Particle& p, float dispx, float dispy, float dispz,
                        float qw, const Sink& sink, const Grid& g,
                        const MoverOptions& opts,
                        std::vector<ExitRecord>* exits) {
  float rem[3];
  if (move_p(p, dispx, dispy, dispz, qw, sink, g, opts.periodic_mask,
             exits ? rem : nullptr, opts.reflect_mask) ==
          MoveResult::Exited &&
      exits) {
    exits->push_back({p, {rem[0], rem[1], rem[2]}});
    p.i = -1;  // tombstone; compact_exited() removes it
  }
}

/// A run's cell crosser, out of line: inlined, move_p and the sink's log
/// append bloat the run loop every stayer goes through, which slowed the
/// push per particle.
template <class Sink>
[[gnu::noinline]] void finish_crosser(Particle& p, float dispx, float dispy,
                                      float dispz, float qw,
                                      const RunSink<Sink>& run, const Grid& g,
                                      const MoverOptions& opts,
                                      std::vector<ExitRecord>* exits) {
  finish_move(p, dispx, dispy, dispz, qw, run, g, opts, exits);
}

/// Complete a run particle's move: the (overwhelmingly common) stays-in-
/// cell case deposits into the run-local accumulator with plain adds and
/// never touches the grid walk; a cell crosser takes move_p through the
/// run's sink. The stay predicate and deposit reproduce move_p's f >= 1
/// branch exactly (same midpoint, same += update).
template <class Sink>
PK_FORCEINLINE void finish_move_run(Particle& p, float dispx, float dispy,
                                    float dispz, float qw,
                                    const RunSink<Sink>& run, const Grid& g,
                                    const MoverOptions& opts,
                                    std::vector<ExitRecord>* exits) {
  const float nx = p.dx + dispx;
  const float ny = p.dy + dispy;
  const float nz = p.dz + dispz;
  if (nx <= 1.0f && nx >= -1.0f && ny <= 1.0f && ny >= -1.0f &&
      nz <= 1.0f && nz >= -1.0f) {
    accumulate_j(*run.local, qw, p.dx + 0.5f * dispx, p.dy + 0.5f * dispy,
                 p.dz + 0.5f * dispz, dispx, dispy, dispz,
                 /*atomic=*/false);
    p.dx = nx;
    p.dy = ny;
    p.dz = nz;
    return;
  }
  finish_crosser(p, dispx, dispy, dispz, qw, run, g, opts, exits);
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
template <class Sink>
struct MoveFinish {
  Sink sink;
  const Grid& g;
  const MoverOptions& opts;
  std::vector<ExitRecord>* exits;

  PK_FORCEINLINE void operator()(Particle& p, float dispx, float dispy,
                                 float dispz, float qw) const {
    finish_move(p, dispx, dispy, dispz, qw, sink, g, opts, exits);
  }
};

/// Run-aware finish: a particle that stays in its cell deposits into the
/// run-local record with plain adds (flushed once per run); a crosser
/// takes move_p through the run's sink.
template <class Sink>
struct RunFinish {
  RunSink<Sink> run;
  const Grid& g;
  const MoverOptions& opts;
  std::vector<ExitRecord>* exits;

  PK_FORCEINLINE void operator()(Particle& p, float dispx, float dispy,
                                 float dispz, float qw) const {
    finish_move_run(p, dispx, dispy, dispz, qw, run, g, opts, exits);
  }
};

// ----------------------------------------------------------------------
// Scalar body: one particle. It is the Auto strategy and the scalar tail
// of the blocked Manual and AdHoc strategies.
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

// ----------------------------------------------------------------------
// AdHoc: VPIC 1.2 style — the per-ISA v4 intrinsics library, 4-particle
// blocks, two 4x4 register transposes per load straight from the packed
// records. AdHoc exists as the paper's legacy baseline: it is generic
// only.
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

/// Strategy S over particles [n0, n1): Auto one particle at a time;
/// Guided in kPushBlock blocks from n0; Manual and AdHoc in W-wide blocks
/// from n0, then the scalar body for the sub-W tail. A generic chunk
/// pushes its slice this way, and the run-aware path each run (AdHoc has
/// no run-aware path).
template <VectorStrategy S, class Rec, class Fin>
inline void push_span(const ParticleAccessor& a, Rec rec, const Fin& fin,
                      const PushConsts& c, index_t n0, index_t n1) {
  if constexpr (S == VectorStrategy::Guided) {
    for (index_t b = n0; b < n1; b += kPushBlock)
      push_guided_block(a, rec, fin, c, b, std::min(n1, b + kPushBlock));
  } else if constexpr (S == VectorStrategy::Manual ||
                       S == VectorStrategy::AdHoc) {
    constexpr int W = S == VectorStrategy::Manual ? kManualVecWidth
                                                  : kAdHocVecWidth;
    const index_t nfull = n0 + ((n1 - n0) / W) * W;
    for (index_t b = n0; b < nfull; b += W) {
      if constexpr (S == VectorStrategy::Manual)
        push_manual_block(a, rec, fin, c, b);
      else
        push_adhoc_block(a, rec, fin, c, b);
    }
    for (index_t n = nfull; n < n1; ++n) push_one(a, n, rec, fin, c);
  } else {
    for (index_t n = n0; n < n1; ++n) push_one(a, n, rec, fin, c);
  }
}

// ----------------------------------------------------------------------
// Launches on an execution space: one chunk per member. pk::DefaultExecSpace
// runs the chunks on the OpenMP team; pk::Serial runs one chunk.
// ----------------------------------------------------------------------

constexpr const char* kGenericKernel[] = {
    "advance_p[auto]", "advance_p[guided]", "advance_p[manual]",
    "advance_p[adhoc]"};
constexpr const char* kRunKernel[] = {
    "advance_p[auto_runs]", "advance_p[guided_runs]", "advance_p[manual_runs]",
    nullptr};

/// Particles per block of each strategy's generic body.
constexpr index_t kBlockOf[] = {1, kPushBlock, kManualVecWidth,
                                kAdHocVecWidth};

/// Most chunks a launch splits its range into: one per member of the
/// execution space, up to this many.
constexpr int kMaxChunks = 256;

/// The slices of one launch: chunk k pushes [start[k], start[k + 1]).
struct Chunks {
  int count = 1;
  index_t start[kMaxChunks + 1];
};

/// One chunk per member of Space over [n0, n1). On the generic path every
/// boundary lies on a multiple of the block G from n0, so each particle
/// goes through the kernel it would in one chunk. On the run-aware path
/// each boundary moves forward to the next run start (a slot whose cell
/// differs from the slot before), so no run straddles two chunks.
template <class Space>
Chunks split_range(const ParticleAccessor& a, bool runs, index_t G,
                   index_t n0, index_t n1) {
  Chunks ch;
  const index_t n = n1 - n0;
  ch.count = static_cast<int>(std::clamp<index_t>(
      std::min<index_t>(Space::concurrency(), kMaxChunks), 1,
      std::max<index_t>(n, 1)));
  ch.start[0] = n0;
  for (int k = 1; k < ch.count; ++k) {
    index_t b = n0 + n * k / ch.count;
    if (runs) {
      b = std::max(ch.start[k - 1], b);
      while (b > n0 && b < n1 && a.cell(b) == a.cell(b - 1)) ++b;
    } else {
      b = n0 + (b - n0) / G * G;
    }
    ch.start[k] = b;
  }
  ch.start[ch.count] = n1;
  return ch;
}

/// One run [b, e) of `cell`: pushed with the cell's hoisted record, its
/// stay-in-cell current flushed once.
template <VectorStrategy S, class Sink>
PK_FORCEINLINE void push_run(const ParticleAccessor& a,
                             const InterpolatorArray& interp,
                             const Sink& sink, const Grid& g,
                             const MoverOptions& opts,
                             std::vector<ExitRecord>* exits,
                             const PushConsts& c, std::int32_t cell,
                             index_t b, index_t e) {
  const HoistedRecord rec{interp(cell)};
  Accumulator local{};
  push_span<S>(a, rec, RunFinish<Sink>{{&local, cell, sink}, g, opts, exits},
               c, b, e);
  flush(sink, cell, local);
}

/// Push the chunks of `ch` on Space: chunk k deposits through sink_of(k)
/// and queues its exits on exits[k] (none when null). On the run-aware
/// path each chunk walks its maximal same-cell runs in slot order: it
/// scans a run's end before pushing it (the push moves crossers to other
/// cells) and reads no slot outside the chunk, which another member may
/// be pushing. The runs, and the order each chunk pushes and flushes them
/// in, are those of sort::segment_runs over the range.
template <class Space, VectorStrategy S, class SinkOf>
void launch(const ParticleAccessor& a, const InterpolatorArray& interp,
            const Grid& g, const MoverOptions& opts, const PushConsts& c,
            bool runs, const Chunks& ch, SinkOf sink_of,
            std::vector<ExitRecord>* exits) {
  using Sink = decltype(sink_of(index_t{0}));
  pk::parallel_for(
      runs ? kRunKernel[static_cast<int>(S)]
           : kGenericKernel[static_cast<int>(S)],
      pk::RangePolicy<Space>(ch.count), [&](index_t k) {
        const Sink sink = sink_of(k);
        std::vector<ExitRecord>* const ex = exits ? exits + k : nullptr;
        const index_t end = ch.start[k + 1];
        if constexpr (S != VectorStrategy::AdHoc) {
          if (runs) {
            for (index_t b = ch.start[k]; b < end;) {
              const std::int32_t cell = a.cell(b);
              index_t e = b + 1;
              while (e < end && a.cell(e) == cell) ++e;
              push_run<S>(a, interp, sink, g, opts, ex, c, cell, b, e);
              b = e;
            }
            return;
          }
        }
        push_span<S>(a, GatheredRecord{&interp},
                     MoveFinish<Sink>{sink, g, opts, ex}, c, ch.start[k],
                     end);
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

/// The push-path decision: resolve `path` to Generic or RunAware for
/// `strategy` from the species' order, and count the outcome as
/// push.dispatch.run_aware or push.dispatch.generic. AutoDetect takes the
/// run-aware path exactly when the species is in exact cell order. AdHoc
/// has no run-aware variant, so it always resolves to Generic.
PushPath resolve_push_path(const Species& sp, VectorStrategy strategy,
                           PushPath path) {
  const bool use_runs =
      strategy != VectorStrategy::AdHoc &&
      (path == PushPath::RunAware ||
       (path == PushPath::AutoDetect && sp.exact_cell_order()));
  prof::counter_add(use_runs ? "push.dispatch.run_aware"
                             : "push.dispatch.generic");
  return use_runs ? PushPath::RunAware : PushPath::Generic;
}

}  // namespace

template <class Space>
PushPath push_on(Species& sp, const InterpolatorArray& interp,
                 AccumulatorArray& acc, const Grid& g,
                 VectorStrategy strategy, const MoverOptions& opts,
                 PushPath path, index_t n0, index_t n1) {
  const PushPath taken = resolve_push_path(sp, strategy, path);
  const bool runs = taken == PushPath::RunAware;
  const PushConsts c = make_consts(sp, g);
  const ParticleAccessor a = sp.p.accessor();
  with_strategy(strategy, [&](auto s) {
    constexpr VectorStrategy S = decltype(s)::value;
    const Chunks ch =
        split_range<Space>(a, runs, kBlockOf[static_cast<int>(S)], n0, n1);
    const auto nc = static_cast<std::size_t>(ch.count);
    SortScratch& scr = sp.sort_scratch();
    std::vector<ExitRecord>* exits = nullptr;
    if (opts.exits) {
      if (scr.exit_chunks.size() < nc) scr.exit_chunks.resize(nc);
      exits = scr.exit_chunks.data();
    }
    if (runs && sp.exact_cell_order()) {
      if (scr.deposit_logs.size() < nc) scr.deposit_logs.resize(nc);
      DepositLog* const logs = scr.deposit_logs.data();
      launch<Space, S>(
          a, interp, g, opts, c, runs, ch,
          [&acc, logs](index_t k) {
            return OwnerSink{&acc, &logs[k].segments};
          },
          exits);
      acc.apply(logs, nc);
    } else {
      launch<Space, S>(a, interp, g, opts, c, runs, ch,
                       [&acc](index_t) { return AtomicSink{&acc}; }, exits);
    }
    for (std::size_t k = 0; exits && k < nc; ++k) {
      opts.exits->insert(opts.exits->end(), exits[k].begin(),
                         exits[k].end());
      exits[k].clear();
    }
  });
  return taken;
}

// pk::DefaultExecSpace is pk::OpenMP in an OpenMP build, pk::Serial in
// the others.
template PushPath push_on<pk::OpenMP>(Species&, const InterpolatorArray&,
                                      AccumulatorArray&, const Grid&,
                                      VectorStrategy, const MoverOptions&,
                                      PushPath, index_t, index_t);
template PushPath push_on<pk::Serial>(Species&, const InterpolatorArray&,
                                      AccumulatorArray&, const Grid&,
                                      VectorStrategy, const MoverOptions&,
                                      PushPath, index_t, index_t);

PushPath advance_species(Species& sp, const InterpolatorArray& interp,
                         AccumulatorArray& acc, const Grid& g,
                         VectorStrategy strategy, const MoverOptions& opts,
                         PushPath path) {
  if (opts.exits)
    throw std::invalid_argument(
        "advance_species: exits belong to push_on's callers, which compact "
        "and ship them");
  prof::ScopedRegion region("advance_species");
  const PushPath taken = push_on<pk::DefaultExecSpace>(
      sp, interp, acc, g, strategy, opts, path, 0, sp.np);
  // Pushing moves particles across cells: a Standard-sorted species gets
  // its exact cell order back.
  if (sp.cell_sorted_hint)
    sort_particles(sp, sort::SortOrder::Standard, 0, 0, g.nv());
  else
    sp.mark_order_degraded();
  return taken;
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
