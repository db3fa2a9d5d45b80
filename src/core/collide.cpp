// core/collide.cpp — Takizuka–Abe binary collisions (see collide.hpp).

#include "core/collide.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/simulation.hpp"
#include "pk/pk.hpp"
#include "prof/prof.hpp"
#include "sort/counting.hpp"

namespace vpic::core {

namespace {

/// Scatter one pair: rotate the relative velocity g = ua - ub by a
/// Gaussian polar angle (variance nu0 dt (qa qb / m_ab)^2 / g^3) and a
/// uniform azimuth, then share the change with reduced-mass weights so
/// total momentum is conserved exactly. All math in doubles; stores
/// round once to float.
bool scatter_pair(Particle& pa, Particle& pb, double ma, double mb,
                  double qa, double qb, double nu0_dt, double u_floor,
                  double delta_n, double phi_u) {
  const double gx = static_cast<double>(pa.ux) - pb.ux;
  const double gy = static_cast<double>(pa.uy) - pb.uy;
  const double gz = static_cast<double>(pa.uz) - pb.uz;
  const double g2 = gx * gx + gy * gy + gz * gz;
  if (g2 <= 0) return false;  // identical momenta: no scattering axis
  const double g = std::sqrt(g2);
  const double m_ab = ma * mb / (ma + mb);
  const double g_eff = g > u_floor ? g : u_floor;
  const double var =
      nu0_dt * (qa * qa * qb * qb) / (m_ab * m_ab * g_eff * g_eff * g_eff);
  const double delta = delta_n * std::sqrt(var);
  const double d2 = delta * delta;
  const double sin_t = 2.0 * delta / (1.0 + d2);
  const double omc = 2.0 * d2 / (1.0 + d2);  // 1 - cos(theta)
  const double phi = 2.0 * 3.14159265358979323846 * phi_u;
  const double stc = sin_t * std::cos(phi);
  const double sts = sin_t * std::sin(phi);
  const double g_perp = std::sqrt(gx * gx + gy * gy);
  double dgx, dgy, dgz;
  if (g_perp > 1e-30 * g) {
    dgx = (gx / g_perp) * gz * stc - (gy / g_perp) * g * sts - gx * omc;
    dgy = (gy / g_perp) * gz * stc + (gx / g_perp) * g * sts - gy * omc;
    dgz = -g_perp * stc - gz * omc;
  } else {
    // g along z: any perpendicular frame works, pick x-y.
    dgx = g * stc;
    dgy = g * sts;
    dgz = -g * omc;
  }
  pa.ux = static_cast<float>(pa.ux + (m_ab / ma) * dgx);
  pa.uy = static_cast<float>(pa.uy + (m_ab / ma) * dgy);
  pa.uz = static_cast<float>(pa.uz + (m_ab / ma) * dgz);
  pb.ux = static_cast<float>(pb.ux - (m_ab / mb) * dgx);
  pb.uy = static_cast<float>(pb.uy - (m_ab / mb) * dgy);
  pb.uz = static_cast<float>(pb.uz - (m_ab / mb) * dgz);
  return true;
}

/// Deterministic Fisher–Yates off a counter-based stream.
void shuffle(index_t* v, std::size_t n, std::uint64_t seed) {
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        uniform01(seed, i - 1) * static_cast<double>(i));
    std::swap(v[i - 1], v[j < i ? j : i - 1]);
  }
}

/// Flat cell index of the particle range [begin, end): a stable counting
/// argsort of its voxels, read from the records and rebased to the
/// range's lowest voxel. Cell c (voxel base + c) is the slice
/// idx[first(c), last(c)) of range-local indices, ascending — the
/// index-order scan — and cells ascend by voxel.
struct CellIndex {
  index_t begin = 0;
  std::int32_t base = 0;
  index_t ncells = 0;
  int nthreads = 1;
  std::unique_ptr<index_t[]> idx;
  std::unique_ptr<index_t[]> offsets;  // counting-sort histogram rows

  CellIndex() = default;
  CellIndex(const Species& sp, index_t b, index_t e) : begin(b) {
    const index_t n = e - b;
    if (n <= 0) return;
    nthreads = pk::DefaultExecSpace::concurrency();
    const ParticleAccessor a = sp.p.accessor();
    pk::MinMaxValue<std::int32_t> mm{};
    pk::parallel_reduce<pk::MinMax<std::int32_t>>(
        "collide/cell_span", pk::RangePolicy<>(n),
        [=](index_t i, pk::MinMaxValue<std::int32_t>& r) {
          const std::int32_t v = a.cell(b + i);
          if (v < r.min_val) r.min_val = v;
          if (v > r.max_val) r.max_val = v;
        },
        mm);
    base = mm.min_val;
    ncells = static_cast<index_t>(mm.max_val) - base + 1;
    offsets = std::make_unique_for_overwrite<index_t[]>(
        sort::detail::counting_hist_cells(nthreads, ncells));
    idx = std::make_unique_for_overwrite<index_t[]>(
        static_cast<std::size_t>(n));
    const auto cell = [a, b, lo = base](index_t i) {
      return a.cell(b + i) - lo;
    };
    sort::detail::counting_offsets(cell, n, ncells, offsets.get(), nthreads);
    sort::detail::counting_scatter_index(cell, n, ncells, offsets.get(),
                                         nthreads, idx.get());
  }

  // The scatter leaves the last thread's histogram row at each cell's
  // one-past-the-end slot (sort::detail::counting_fill_keys).
  [[nodiscard]] index_t last(index_t c) const {
    return offsets[static_cast<std::size_t>(nthreads - 1) *
                       static_cast<std::size_t>(ncells) +
                   static_cast<std::size_t>(c)];
  }
  [[nodiscard]] index_t first(index_t c) const {
    return c > 0 ? last(c - 1) : 0;
  }
  /// Cell of `voxel` (possibly empty), or -1 outside the indexed span.
  [[nodiscard]] index_t find(std::int32_t voxel) const {
    const index_t c = static_cast<index_t>(voxel) - base;
    return c >= 0 && c < ncells ? c : -1;
  }
};

/// Cells per dynamically scheduled chunk. Work follows the (possibly
/// clumped) population, not the voxel count, so chunks are handed out on
/// demand rather than split statically.
constexpr index_t kCellChunk = 64;

}  // namespace

// The cells of [a_begin, a_end) are independent (disjoint particles,
// voxel-keyed streams), so they run in parallel with bit-identical
// results at any thread count.
CollisionStats collide_range(Species& sa, Species& sb, const Grid& g,
                             const CollisionParams& prm, index_t a_begin,
                             index_t a_end, index_t b_begin, index_t b_end,
                             std::uint64_t step, std::uint64_t pair_key,
                             const ModuleRng& rng) {
  const bool self = &sa == &sb;
  const double nu0_dt = prm.nu0 * static_cast<double>(g.dt);
  CellIndex ca(sa, a_begin, a_end);
  CellIndex cb;
  if (!self) cb = CellIndex(sb, b_begin, b_end);
  const index_t nchunks = (ca.ncells + kCellChunk - 1) / kCellChunk;
  std::vector<CollisionStats> chunk_st(static_cast<std::size_t>(nchunks));

  const ParticleAccessor aa = sa.p.accessor();
  const ParticleAccessor ab = sb.p.accessor();
  const auto cell = [&](index_t c, CollisionStats& st) {
    const index_t a0 = ca.first(c);
    index_t* const la = ca.idx.get() + a0;
    const auto na = static_cast<std::size_t>(ca.last(c) - a0);
    const std::int32_t voxel = ca.base + static_cast<std::int32_t>(c);
    index_t* lb = nullptr;
    std::size_t nb = 0;
    if (!self) {
      const index_t cbi = cb.find(voxel);
      if (cbi < 0) return;
      const index_t b0 = cb.first(cbi);
      lb = cb.idx.get() + b0;
      nb = static_cast<std::size_t>(cb.last(cbi) - b0);
    }
    // A cell with nothing to pair returns before any draw: the streams
    // are counter-based, so skipping them changes no other cell.
    const std::size_t npair = self ? na / 2 : std::min(na, nb);
    if (npair == 0) return;
    const std::uint64_t seed_cell =
        rng.stream(step, pair_key, static_cast<std::uint64_t>(voxel));
    const std::uint64_t seed_theta = hash64(seed_cell ^ 2);
    const std::uint64_t seed_phi = hash64(seed_cell ^ 3);
    shuffle(la, na, hash64(seed_cell ^ 1));
    if (self) {
      for (std::size_t k = 0; k < npair; ++k) {
        const index_t i0 = ca.begin + la[2 * k];
        const index_t i1 = ca.begin + la[2 * k + 1];
        Particle pa = aa.load(i0);
        Particle pb = aa.load(i1);
        if (scatter_pair(pa, pb, sa.m, sa.m, sa.q, sa.q, nu0_dt,
                         prm.u_floor, normal(seed_theta, k),
                         uniform01(seed_phi, k))) {
          aa.store(i0, pa);
          aa.store(i1, pb);
          ++st.pairs;
        }
      }
    } else {
      shuffle(lb, nb, hash64(seed_cell ^ 4));
      for (std::size_t k = 0; k < npair; ++k) {
        const index_t ia = ca.begin + la[k];
        const index_t ib = cb.begin + lb[k];
        Particle pa = aa.load(ia);
        Particle pb = ab.load(ib);
        if (scatter_pair(pa, pb, sa.m, sb.m, sa.q, sb.q, nu0_dt,
                         prm.u_floor, normal(seed_theta, k),
                         uniform01(seed_phi, k))) {
          aa.store(ia, pa);
          ab.store(ib, pb);
          ++st.pairs;
        }
      }
    }
    ++st.cells;
  };
  pk::parallel_for(
      "collide/cells", pk::TeamPolicy<>(nchunks, 1),
      [&](const pk::TeamMember& m) {
        const index_t c0 = m.league_rank() * kCellChunk;
        const index_t c1 = std::min(ca.ncells, c0 + kCellChunk);
        CollisionStats st;  // local: neighbouring chunks share a line
        for (index_t c = c0; c < c1; ++c) cell(c, st);
        chunk_st[static_cast<std::size_t>(m.league_rank())] = st;
      });

  CollisionStats st;
  for (const CollisionStats& s : chunk_st) {
    st.pairs += s.pairs;
    st.cells += s.cells;
  }
  return st;
}

void CollisionModule::attach(Simulation& sim) {
  rng_ = sim.module_rng(id());
}

void CollisionModule::plan(Simulation& sim, const ModuleStepContext& ctx,
                           StepComposer& c) {
  if (prm_.interval <= 0 || ctx.next_step % prm_.interval != 0) return;
  const std::size_t ns = sim.num_species();
  std::vector<std::pair<std::size_t, std::size_t>> pairs = prm_.pairs;
  for (const auto& [a, b] : pairs)
    if (a >= ns || b >= ns)
      throw std::invalid_argument(
          "CollisionModule: species pair (" + std::to_string(a) + ", " +
          std::to_string(b) + ") is out of range for " + std::to_string(ns) +
          " species");
  if (pairs.empty())
    for (std::size_t a = 0; a < ns; ++a)
      for (std::size_t b = a; b < ns; ++b) pairs.emplace_back(a, b);

  for (const auto& [a, b] : pairs) {
    std::vector<std::string> wr{ctx.particles(sim.species(a).name)};
    if (b != a) wr.push_back(ctx.particles(sim.species(b).name));
    c.add_spine({"collide[" + sim.species(a).name + ":" +
                     sim.species(b).name + "]",
                 {},
                 std::move(wr),
                 [this, &sim, a = a, b = b, step = ctx.next_step] {
                   Species& sa = sim.species(a);
                   Species& sb = sim.species(b);
                   const CollisionStats st = collide_range(
                       sa, sb, sim.grid(), prm_, 0, sa.np, 0, sb.np,
                       static_cast<std::uint64_t>(step), a * 1024 + b, rng_);
                   pairs_ += st.pairs;
                   cells_ += st.cells;
                   prof::counter_add("collide.pairs", st.pairs);
                 }});
  }
  ++steps_;
}

void CollisionModule::save_state(ModuleStateWriter& w) const {
  w.add_pod("steps", steps_);
  w.add_pod("pairs", pairs_);
  w.add_pod("cells", cells_);
}

void CollisionModule::load_state(ModuleStateReader& r,
                                 std::uint32_t /*version*/) {
  steps_ = r.pod<std::uint64_t>("steps");
  pairs_ = r.pod<std::uint64_t>("pairs");
  cells_ = r.pod<std::uint64_t>("cells");
}

void CollisionModule::clear_state() {
  steps_ = 0;
  pairs_ = 0;
  cells_ = 0;
}

}  // namespace vpic::core
