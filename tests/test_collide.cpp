// Tests for the Takizuka–Abe collision module (core/collide.hpp):
// conservation laws and Maxwellianization of the collide_range operator
// (driven directly, no field dynamics), bit-identity with a serial
// std::map reference at 1 and 4 OpenMP threads, bit-determinism of the
// collision-enabled step across thread counts, and checkpoint round-trips
// of a collision-enabled run, including the module's counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <vector>

#include "core/collide.hpp"
#include "core/decks.hpp"
#include "core/rng.hpp"
#include "core/simulation.hpp"
#include "pk/pk.hpp"

namespace core = vpic::core;
namespace pk = vpic::pk;
namespace fs = std::filesystem;
using pk::index_t;

namespace {

class PkEnv : public ::testing::Environment {
 public:
  void SetUp() override { pk::initialize(1); }
};
[[maybe_unused]] const auto* const env =
    ::testing::AddGlobalTestEnvironment(new PkEnv);

/// One-cell species with an anisotropic Gaussian momentum spread:
/// sigma_x = uth_x, sigma_y = sigma_z = uth_perp.
core::Species make_cell_species(index_t n, float uth_x, float uth_perp,
                                const core::Grid& g, std::uint64_t seed) {
  core::Species sp("test", -1.0f, 1.0f, n);
  const auto v = static_cast<std::int32_t>(g.voxel(1, 1, 1));
  for (index_t i = 0; i < n; ++i) {
    core::Particle p{};
    p.i = v;
    p.ux = uth_x * static_cast<float>(core::normal(seed, 3 * i + 0));
    p.uy = uth_perp * static_cast<float>(core::normal(seed, 3 * i + 1));
    p.uz = uth_perp * static_cast<float>(core::normal(seed, 3 * i + 2));
    p.w = 1.0f;
    sp.p.set(i, p);
  }
  sp.np = n;
  return sp;
}

struct Moments {
  double px = 0, py = 0, pz = 0;  // total momentum (m * u)
  double ke = 0;                  // non-relativistic kinetic energy
  double tx = 0, ty = 0, tz = 0;  // per-axis temperature (variance of u)
};

Moments moments(const core::Species& sp) {
  Moments m;
  std::vector<core::Particle> ps(static_cast<std::size_t>(sp.np));
  std::copy_n(sp.p.data(), sp.np, ps.data());
  for (const auto& p : ps) {
    m.px += static_cast<double>(sp.m) * p.ux;
    m.py += static_cast<double>(sp.m) * p.uy;
    m.pz += static_cast<double>(sp.m) * p.uz;
    m.ke += 0.5 * sp.m *
            (static_cast<double>(p.ux) * p.ux +
             static_cast<double>(p.uy) * p.uy +
             static_cast<double>(p.uz) * p.uz);
  }
  const double n = static_cast<double>(sp.np);
  for (const auto& p : ps) {
    m.tx += (p.ux - m.px / n) * (p.ux - m.px / n);
    m.ty += (p.uy - m.py / n) * (p.uy - m.py / n);
    m.tz += (p.uz - m.pz / n) * (p.uz - m.pz / n);
  }
  m.tx /= n;
  m.ty /= n;
  m.tz /= n;
  return m;
}

std::vector<core::Particle> canon(const core::Species& sp) {
  std::vector<core::Particle> out(static_cast<std::size_t>(sp.np));
  std::copy_n(sp.p.data(), sp.np, out.data());
  return out;
}

bool same_particles(core::Simulation& a, core::Simulation& b) {
  if (a.num_species() != b.num_species()) return false;
  for (std::size_t s = 0; s < a.num_species(); ++s) {
    const auto pa = canon(a.species(s));
    const auto pb = canon(b.species(s));
    if (pa.size() != pb.size()) return false;
    if (!pa.empty() &&
        std::memcmp(pa.data(), pb.data(),
                    pa.size() * sizeof(core::Particle)) != 0)
      return false;
  }
  return true;
}

core::Simulation make_colliding_lpi(std::uint64_t seed = 42) {
  core::decks::LpiParams p;
  p.nx = 12;
  p.ny = 4;
  p.nz = 4;
  p.ppc = 4;
  p.sort_interval = 10;
  p.seed = seed;
  auto sim = core::decks::make_lpi(p);
  sim.config().energy_interval = 5;
  core::CollisionParams cp;
  cp.nu0 = 1e-3;
  sim.add_module<core::CollisionModule>(cp);
  return sim;
}

// ----------------------------------------------------------------------
// Reference oracle: collide_range as first written — serial, with
// std::map<voxel, std::vector<index>> cell lists. Cells are visited in
// ascending voxel order and each list holds its particles in index order.
// ----------------------------------------------------------------------

namespace ref {

bool scatter_pair(core::Particle& pa, core::Particle& pb, double ma,
                  double mb, double qa, double qb, double nu0_dt,
                  double u_floor, double delta_n, double phi_u) {
  const double gx = static_cast<double>(pa.ux) - pb.ux;
  const double gy = static_cast<double>(pa.uy) - pb.uy;
  const double gz = static_cast<double>(pa.uz) - pb.uz;
  const double g2 = gx * gx + gy * gy + gz * gz;
  if (g2 <= 0) return false;
  const double g = std::sqrt(g2);
  const double m_ab = ma * mb / (ma + mb);
  const double g_eff = g > u_floor ? g : u_floor;
  const double var =
      nu0_dt * (qa * qa * qb * qb) / (m_ab * m_ab * g_eff * g_eff * g_eff);
  const double delta = delta_n * std::sqrt(var);
  const double d2 = delta * delta;
  const double sin_t = 2.0 * delta / (1.0 + d2);
  const double omc = 2.0 * d2 / (1.0 + d2);
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

void shuffle(std::vector<index_t>& v, std::uint64_t seed) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        core::uniform01(seed, i - 1) * static_cast<double>(i));
    std::swap(v[i - 1], v[j < i ? j : i - 1]);
  }
}

std::map<std::int32_t, std::vector<index_t>> cell_lists(
    const core::Species& sp, index_t begin, index_t end) {
  std::map<std::int32_t, std::vector<index_t>> cells;
  for (index_t i = begin; i < end; ++i) cells[sp.p.cell(i)].push_back(i);
  return cells;
}

core::CollisionStats collide_range(core::Species& sa, core::Species& sb,
                                   const core::Grid& g,
                                   const core::CollisionParams& prm,
                                   index_t a_begin, index_t a_end,
                                   index_t b_begin, index_t b_end,
                                   std::uint64_t step, std::uint64_t pair_key,
                                   const core::ModuleRng& rng) {
  core::CollisionStats st;
  const bool self = &sa == &sb;
  const double nu0_dt = prm.nu0 * static_cast<double>(g.dt);
  auto cells_a = cell_lists(sa, a_begin, a_end);
  auto cells_b = self ? std::map<std::int32_t, std::vector<index_t>>{}
                      : cell_lists(sb, b_begin, b_end);
  const core::ParticleAccessor aa = sa.p.accessor();
  const core::ParticleAccessor ab = sb.p.accessor();
  for (auto& [voxel, la] : cells_a) {
    const std::uint64_t seed_cell =
        rng.stream(step, pair_key, static_cast<std::uint64_t>(voxel));
    const std::uint64_t seed_theta = core::hash64(seed_cell ^ 2);
    const std::uint64_t seed_phi = core::hash64(seed_cell ^ 3);
    shuffle(la, core::hash64(seed_cell ^ 1));
    std::size_t npair = 0;
    if (self) {
      npair = la.size() / 2;
      for (std::size_t k = 0; k < npair; ++k) {
        core::Particle pa = aa.load(la[2 * k]);
        core::Particle pb = aa.load(la[2 * k + 1]);
        if (scatter_pair(pa, pb, sa.m, sa.m, sa.q, sa.q, nu0_dt,
                         prm.u_floor, core::normal(seed_theta, k),
                         core::uniform01(seed_phi, k))) {
          aa.store(la[2 * k], pa);
          aa.store(la[2 * k + 1], pb);
          ++st.pairs;
        }
      }
    } else {
      const auto itb = cells_b.find(voxel);
      if (itb == cells_b.end()) continue;
      auto& lb = itb->second;
      shuffle(lb, core::hash64(seed_cell ^ 4));
      npair = la.size() < lb.size() ? la.size() : lb.size();
      for (std::size_t k = 0; k < npair; ++k) {
        core::Particle pa = aa.load(la[k]);
        core::Particle pb = ab.load(lb[k]);
        if (scatter_pair(pa, pb, sa.m, sb.m, sa.q, sb.q, nu0_dt,
                         prm.u_floor, core::normal(seed_theta, k),
                         core::uniform01(seed_phi, k))) {
          aa.store(la[k], pa);
          ab.store(lb[k], pb);
          ++st.pairs;
        }
      }
    }
    if (npair) ++st.cells;
  }
  return st;
}

}  // namespace ref

/// A fresh species holding a copy of `src`'s live particles.
core::Species clone(const core::Species& src) {
  core::Species out(src.name, src.q, src.m, src.np);
  for (index_t i = 0; i < src.np; ++i) out.p.set(i, src.p.get(i));
  out.np = src.np;
  return out;
}

fs::path scratch(const std::string& tag) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("vpic_col_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

}  // namespace

// ----------------------------------------------------------------------
// collide_range physics (no field dynamics).
// ----------------------------------------------------------------------

TEST(CollideRange, ConservesMomentumAndEnergy) {
  const core::Grid g(4, 4, 4, 4, 4, 4, 0.1f);
  auto sp = make_cell_species(2000, 0.10f, 0.05f, g, 7);
  core::CollisionParams prm;
  prm.nu0 = 2e-3;
  const core::ModuleRng rng{core::hash64(123)};
  const Moments before = moments(sp);
  std::uint64_t pairs = 0;
  for (int it = 0; it < 50; ++it)
    pairs += core::collide_range(sp, sp, g, prm, 0, sp.np, 0, sp.np,
                                 static_cast<std::uint64_t>(it), 0, rng)
                 .pairs;
  EXPECT_EQ(pairs, 50u * 1000u);
  const Moments after = moments(sp);
  // Momentum is conserved pairwise exactly; only float store rounding
  // accumulates. Energy is conserved by the rotation (|g| preserved).
  const double pscale = 2000 * 0.10;
  EXPECT_NEAR(after.px, before.px, 1e-3 * pscale);
  EXPECT_NEAR(after.py, before.py, 1e-3 * pscale);
  EXPECT_NEAR(after.pz, before.pz, 1e-3 * pscale);
  EXPECT_NEAR(after.ke, before.ke, 2e-3 * before.ke);
}

TEST(CollideRange, MaxwellianizesAnisotropicDistribution) {
  const core::Grid g(4, 4, 4, 4, 4, 4, 0.1f);
  // Tx = 4 x Tperp initially.
  auto sp = make_cell_species(4000, 0.10f, 0.05f, g, 11);
  core::CollisionParams prm;
  prm.nu0 = 5e-3;
  const core::ModuleRng rng{core::hash64(321)};
  const Moments before = moments(sp);
  const double aniso_before = before.tx / (0.5 * (before.ty + before.tz));
  ASSERT_GT(aniso_before, 3.0);
  for (int it = 0; it < 400; ++it)
    core::collide_range(sp, sp, g, prm, 0, sp.np, 0, sp.np,
                        static_cast<std::uint64_t>(it), 0, rng);
  const Moments after = moments(sp);
  const double aniso_after = after.tx / (0.5 * (after.ty + after.tz));
  // Collisions drive T_x / T_perp toward 1 while conserving energy.
  EXPECT_LT(aniso_after, 0.5 * aniso_before);
  EXPECT_GT(aniso_after, 0.8);
  EXPECT_NEAR(after.ke, before.ke, 5e-3 * before.ke);
}

TEST(CollideRange, InterSpeciesConservesTotalMomentum) {
  const core::Grid g(4, 4, 4, 4, 4, 4, 0.1f);
  auto a = make_cell_species(1500, 0.10f, 0.10f, g, 21);
  core::Species b = make_cell_species(1500, 0.02f, 0.02f, g, 22);
  b.m = 4.0f;  // unequal masses exercise the reduced-mass split
  core::CollisionParams prm;
  prm.nu0 = 2e-3;
  const core::ModuleRng rng{core::hash64(99)};
  const Moments ba = moments(a), bb = moments(b);
  for (int it = 0; it < 50; ++it) {
    const auto st = core::collide_range(a, b, g, prm, 0, a.np, 0, b.np,
                                        static_cast<std::uint64_t>(it), 1,
                                        rng);
    EXPECT_EQ(st.pairs, 1500u);
  }
  const Moments aa = moments(a), ab = moments(b);
  const double pscale = 1500 * 0.10 * 4.0;
  EXPECT_NEAR(aa.px + ab.px, ba.px + bb.px, 1e-3 * pscale);
  EXPECT_NEAR(aa.py + ab.py, ba.py + bb.py, 1e-3 * pscale);
  EXPECT_NEAR(aa.pz + ab.pz, ba.pz + bb.pz, 1e-3 * pscale);
  // Energy flows from the hot light species to the cold heavy one.
  EXPECT_LT(aa.ke, ba.ke);
  EXPECT_GT(ab.ke, bb.ke);
  EXPECT_NEAR(aa.ke + ab.ke, ba.ke + bb.ke, 5e-3 * (ba.ke + bb.ke));
}

TEST(CollideRange, MatchesSerialReferenceAtAnyThreadCount) {
  // A multi-cell deck with an odd ppc (self pairs leave one particle
  // over), stepped at one thread so the particles are out of cell order.
  core::decks::LpiParams p;
  p.nx = 16;
  p.ny = 8;
  p.nz = 8;
  p.ppc = 5;
  core::Simulation sim = core::decks::make_lpi(p);
  sim.run(7);
  const core::Species& e = sim.species(0);
  bool unsorted = false;
  for (index_t i = 1; i < e.np && !unsorted; ++i)
    unsorted = e.p.cell(i) < e.p.cell(i - 1);
  ASSERT_TRUE(unsorted);
  core::CollisionParams prm;
  prm.nu0 = 5e-2;
  const core::ModuleRng rng{core::hash64(77)};

  // Restores the suite's one thread however the test exits.
  struct OneThreadAfter {
    ~OneThreadAfter() { pk::initialize(1); }
  } restore;
  for (const int threads : {1, 4}) {
    pk::initialize(threads);
    const index_t ne = sim.species(0).np, ni = sim.species(1).np;
    struct Case {
      std::size_t a, b;
      index_t a0, a1, b0, b1;
    };
    // Whole ranges, then sub-ranges: the tile-task shape.
    const Case cases[] = {
        {0, 0, 0, ne, 0, ne},
        {0, 1, 0, ne, 0, ni},
        {1, 1, ni / 3, 2 * ni / 3, 0, 0},
        {0, 1, ne / 4, 3 * ne / 4, ni / 3, ni},
    };
    for (const Case& c : cases) {
      SCOPED_TRACE(testing::Message()
                   << threads << " threads, pair " << c.a << ":" << c.b
                   << " [" << c.a0 << ", " << c.a1 << ")");
      core::Species ra = clone(sim.species(c.a));
      core::Species rb = clone(sim.species(c.b));
      core::Species ga = clone(sim.species(c.a));
      core::Species gb = clone(sim.species(c.b));
      const bool self = c.a == c.b;
      const std::uint64_t key = c.a * 1024 + c.b;
      const core::CollisionStats want =
          ref::collide_range(ra, self ? ra : rb, sim.grid(), prm, c.a0,
                             c.a1, c.b0, c.b1, 3, key, rng);
      const core::CollisionStats got =
          core::collide_range(ga, self ? ga : gb, sim.grid(), prm, c.a0,
                              c.a1, c.b0, c.b1, 3, key, rng);
      ASSERT_GT(want.pairs, 0u);
      ASSERT_GT(want.cells, 1u);
      EXPECT_EQ(got.pairs, want.pairs);
      EXPECT_EQ(got.cells, want.cells);
      const auto want_a = canon(ra), got_a = canon(ga);
      EXPECT_EQ(std::memcmp(got_a.data(), want_a.data(),
                            got_a.size() * sizeof(core::Particle)),
                0);
      if (!self) {
        const auto want_b = canon(rb), got_b = canon(gb);
        EXPECT_EQ(std::memcmp(got_b.data(), want_b.data(),
                              got_b.size() * sizeof(core::Particle)),
                  0);
      }
    }
  }
}

// ----------------------------------------------------------------------
// CollisionModule in the step pipeline.
// ----------------------------------------------------------------------

TEST(CollisionModule, ChangesDynamicsAndCountsPairs) {
  auto plain = [] {
    core::decks::LpiParams p;
    p.nx = 12;
    p.ny = 4;
    p.nz = 4;
    p.ppc = 4;
    return core::decks::make_lpi(p);
  };
  auto with = plain();
  core::CollisionParams cp;
  cp.nu0 = 1e-3;
  auto& col = with.add_module<core::CollisionModule>(cp);
  auto without = plain();
  with.run(10);
  without.run(10);
  EXPECT_GT(col.pairs_scattered(), 0u);
  EXPECT_EQ(col.steps_applied(), 10u);
  EXPECT_FALSE(same_particles(with, without));
}

TEST(CollisionModule, RejectsOutOfRangeSpeciesPair) {
  core::decks::LpiParams p;
  p.nx = 8;
  p.ny = 4;
  p.nz = 4;
  p.ppc = 2;
  auto sim = core::decks::make_lpi(p);
  ASSERT_EQ(sim.num_species(), 2u);
  core::CollisionParams cp;
  cp.pairs = {{0, 2}};
  sim.add_module<core::CollisionModule>(cp);
  EXPECT_THROW(sim.step(), std::invalid_argument);
}

TEST(CollisionModule, BitDeterministicAcrossThreadCounts) {
  // From a Standard sort every push is in exact cell order and every cell
  // pairs from voxel-keyed streams, so 30 steps give the same particle and
  // field bytes at 1, 2 and 4 kernel threads.
  const auto run = [](int threads) {
    pk::initialize(threads);
    auto sim = make_colliding_lpi();
    for (std::size_t s = 0; s < sim.num_species(); ++s)
      core::sort_particles(sim.species(s), vpic::sort::SortOrder::Standard,
                           0, 0, sim.grid().nv());
    sim.run(30);
    return sim;
  };
  const auto bytes = [](const pk::View<float, 1>& v) {
    std::vector<float> b(static_cast<std::size_t>(v.size()));
    std::memcpy(b.data(), v.data(), b.size() * sizeof(float));
    return b;
  };
  auto ref = run(1);
  for (const int threads : {2, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    auto sim = run(threads);
    for (std::size_t s = 0; s < sim.num_species(); ++s) {
      const auto a = canon(ref.species(s));
      const auto b = canon(sim.species(s));
      ASSERT_EQ(a.size(), b.size());
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(core::Particle)),
                0)
          << sim.species(s).name;
    }
    const auto& fa = ref.fields();
    const auto& fb = sim.fields();
    for (const auto& [va, vb] :
         {std::pair{&fa.ex, &fb.ex}, std::pair{&fa.ey, &fb.ey},
          std::pair{&fa.ez, &fb.ez}, std::pair{&fa.bx, &fb.bx},
          std::pair{&fa.by, &fb.by}, std::pair{&fa.bz, &fb.bz},
          std::pair{&fa.jx, &fb.jx}, std::pair{&fa.jy, &fb.jy},
          std::pair{&fa.jz, &fb.jz}})
      EXPECT_EQ(bytes(*va), bytes(*vb));
  }
  pk::initialize(1);
}

TEST(CollisionModule, UntiledStepPublishesCollidePhases) {
  auto sim = make_colliding_lpi();
  sim.step();
  bool saw_collide = false;
  for (const auto& st : sim.last_phase_stats())
    if (st.name.rfind("collide[", 0) == 0) saw_collide = true;
  EXPECT_TRUE(saw_collide);
}

TEST(CollisionModule, CheckpointRoundTripsBitIdentically) {
  const fs::path dir = scratch("rt");
  auto sim = make_colliding_lpi();
  sim.run(20);
  auto* col = dynamic_cast<core::CollisionModule*>(sim.find_module("collide"));
  ASSERT_NE(col, nullptr);
  const std::uint64_t pairs_at_ckpt = col->pairs_scattered();
  ASSERT_GT(pairs_at_ckpt, 0u);
  sim.checkpoint((dir / "a.ckpt").string());
  sim.run(15);

  // The checkpoint restores bit-identically (collisions scan in index
  // order), counters included.
  auto restored = make_colliding_lpi();
  restored.restore((dir / "a.ckpt").string());
  EXPECT_TRUE(restored.last_restore_skips().empty());
  auto* rcol =
      dynamic_cast<core::CollisionModule*>(restored.find_module("collide"));
  ASSERT_NE(rcol, nullptr);
  EXPECT_EQ(rcol->pairs_scattered(), pairs_at_ckpt);
  restored.run(15);
  EXPECT_TRUE(same_particles(sim, restored));
  EXPECT_EQ(rcol->pairs_scattered(), col->pairs_scattered());
}
