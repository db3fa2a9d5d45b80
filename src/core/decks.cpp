#include "core/decks.hpp"

#include <cmath>

#include "core/rng.hpp"

namespace vpic::core::decks {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Append `ppc` particles of species `sp` into cell voxel `v`, uniformly
/// placed, Maxwellian with thermal spread `uth` and drift (udx,udy,udz),
/// each with statistical weight `weight` (so the cell's added density is
/// ppc * weight).
void fill_cell(Species& sp, const Grid& g, index_t v, int ppc, float weight,
               float uth, float udx, float udy, float udz,
               std::uint64_t seed) {
  (void)g;
  for (int k = 0; k < ppc; ++k) {
    Particle p;
    const std::uint64_t ctr =
        static_cast<std::uint64_t>(v) * 4096 + static_cast<std::uint64_t>(k);
    p.dx = static_cast<float>(2.0 * uniform01(seed, 6 * ctr + 0) - 1.0);
    p.dy = static_cast<float>(2.0 * uniform01(seed, 6 * ctr + 1) - 1.0);
    p.dz = static_cast<float>(2.0 * uniform01(seed, 6 * ctr + 2) - 1.0);
    p.i = static_cast<std::int32_t>(v);
    p.ux = udx + uth * static_cast<float>(normal(seed, 6 * ctr + 3));
    p.uy = udy + uth * static_cast<float>(normal(seed, 6 * ctr + 4));
    p.uz = udz + uth * static_cast<float>(normal(seed, 6 * ctr + 5));
    p.w = weight;
    if (sp.np >= sp.capacity())
      throw std::length_error("deck: species capacity exceeded");
    sp.p.set(sp.np++, p);
  }
}

}  // namespace

Simulation make_lpi(const LpiParams& p) {
  SimulationConfig cfg;
  const float dxc = 0.5f;  // cell size in c/wp
  cfg.grid = Grid(p.nx, p.ny, p.nz, dxc * static_cast<float>(p.nx),
                  dxc * static_cast<float>(p.ny),
                  dxc * static_cast<float>(p.nz),
                  Grid::courant_dt(dxc, dxc, dxc));
  cfg.strategy = p.strategy;
  cfg.sort_order = p.sort_order;
  cfg.sort_interval = p.sort_interval;
  cfg.seed = p.seed;
  Simulation sim(cfg);

  const Grid& g = sim.grid();
  const int x_begin = 1 + static_cast<int>(p.slab_begin * p.nx);
  const int x_end = static_cast<int>(p.slab_end * p.nx);

  // Gaussian clumping (LpiParams::clump_factor): per-cell particle count
  // scaled up near the slab center, per-particle weight scaled down by
  // the same factor, so physical density stays uniform while the
  // computational load clumps. At clump_factor == 0 this reduces exactly
  // to the flat ppc the deck always had.
  const double cz = 0.5 * (1 + p.nz);
  // The clump is a Gaussian pileup *plane* at the slab mid-plane (sigma =
  // an eighth of nz), uniform in x/y — the shape of a compression front
  // at the critical surface. Concentrating along z only is deliberate:
  // z is the slowest axis of the voxel numbering, so the knob dials in a
  // reproducible imbalance between contiguous cell ranges without
  // changing the x/y profile.
  const double sz = std::max(1.0, p.nz / 8.0);
  auto cell_ppc = [&](int, int, int iz) {
    if (p.clump_factor <= 0) return p.ppc;
    const double zt = (iz - cz) / sz;
    const double boost = 1.0 + p.clump_factor * std::exp(-0.5 * zt * zt);
    return std::max(1, static_cast<int>(std::lround(p.ppc * boost)));
  };

  // Capacity pre-pass: the clumped counts are deterministic, so size the
  // stores exactly instead of guessing a headroom factor.
  index_t total = 0;
  for (int iz = 1; iz <= g.nz; ++iz)
    for (int iy = 1; iy <= g.ny; ++iy)
      for (int ix = x_begin; ix <= x_end; ++ix)
        total += cell_ppc(ix, iy, iz);
  const index_t cap = total + 64;
  const std::size_t ele = sim.add_species("electron", -1.0f, 1.0f, cap);
  const std::size_t ion = sim.add_species("ion", 1.0f, p.mi_me, cap);

  for (int iz = 1; iz <= g.nz; ++iz)
    for (int iy = 1; iy <= g.ny; ++iy)
      for (int ix = x_begin; ix <= x_end; ++ix) {
        const index_t v = g.voxel(ix, iy, iz);
        const int nc = cell_ppc(ix, iy, iz);
        const float w = 1.0f / static_cast<float>(nc);
        fill_cell(sim.species(ele), g, v, nc, w, p.uth_e, 0, 0, 0,
                  hash64(p.seed + 1));
        fill_cell(sim.species(ion), g, v, nc, w, p.uth_i, 0, 0, 0,
                  hash64(p.seed + 2));
      }

  // Laser antenna: drive Ey on the low-x face with a ramped sine.
  const float amp = p.laser_amplitude;
  const float omega = p.laser_omega;
  const int ramp = p.laser_ramp_steps;
  sim.set_injection_hook([amp, omega, ramp](Simulation& s) {
    Grid& g2 = s.grid();
    const auto t = static_cast<float>(s.step_count()) * g2.dt;
    float envelope = 1.0f;
    if (ramp > 0) {
      const float r = static_cast<float>(s.step_count()) /
                      static_cast<float>(ramp);
      envelope = r < 1.0f ? r : 1.0f;
    }
    const float drive = amp * envelope *
                        std::sin(omega * t);
    auto& ey = s.fields().ey;
    for (int iz = 1; iz <= g2.nz; ++iz)
      for (int iy = 1; iy <= g2.ny; ++iy)
        ey(g2.voxel(1, iy, iz)) = drive;
    s.fields().update_ghosts_periodic();
  });
  return sim;
}

Simulation make_reconnection(const ReconnectionParams& p) {
  SimulationConfig cfg;
  const float dxc = 0.5f;
  cfg.grid = Grid(p.nx, p.ny, p.nz, dxc * static_cast<float>(p.nx),
                  dxc * static_cast<float>(p.ny),
                  dxc * static_cast<float>(p.nz),
                  Grid::courant_dt(dxc, dxc, dxc));
  cfg.strategy = p.strategy;
  cfg.seed = p.seed;
  Simulation sim(cfg);

  const auto cap = cfg.grid.interior_cells() * p.ppc + 64;
  const std::size_t ele = sim.add_species("electron", -1.0f, 1.0f, cap);
  const std::size_t ion = sim.add_species("ion", 1.0f, 25.0f, cap);

  Grid& g = sim.grid();
  const float zc = 0.5f * static_cast<float>(p.nz);
  const float L = p.sheet_half_width;

  // Harris field: Bx(z) = b0 * tanh((z - zc)/L), plus a GEM island
  // perturbation derived from psi = pert*b0*cos(2 pi x/Lx)*cos(pi z/Lz).
  auto& f = sim.fields();
  for (int iz = 1; iz <= g.nz; ++iz)
    for (int iy = 1; iy <= g.ny; ++iy)
      for (int ix = 1; ix <= g.nx; ++ix) {
        const index_t v = g.voxel(ix, iy, iz);
        const float z = (static_cast<float>(iz) - 0.5f) - zc;
        const float x = static_cast<float>(ix) - 0.5f;
        f.bx(v) = p.b0 * std::tanh(z / L);
        const float kx = static_cast<float>(2.0 * kPi) /
                         static_cast<float>(g.nx);
        const float kz = static_cast<float>(kPi) / static_cast<float>(g.nz);
        // delta B = curl(psi y-hat): dBx = -dpsi/dz, dBz = dpsi/dx.
        f.bx(v) += p.perturbation * p.b0 * kz * std::cos(kx * x) *
                   std::sin(kz * (z + zc));
        f.bz(v) -= p.perturbation * p.b0 * kx * std::sin(kx * x) *
                   std::cos(kz * (z + zc));
      }
  f.update_ghosts_periodic();

  // Current-sheet drift localized as sech^2((z-zc)/L); electrons and ions
  // drift oppositely along y to carry the Harris current.
  for (int iz = 1; iz <= g.nz; ++iz) {
    const float z = (static_cast<float>(iz) - 0.5f) - zc;
    const float sech = 1.0f / std::cosh(z / L);
    const float drift = p.drift * sech * sech;
    for (int iy = 1; iy <= g.ny; ++iy)
      for (int ix = 1; ix <= g.nx; ++ix) {
        const index_t v = g.voxel(ix, iy, iz);
        const float w = 1.0f / static_cast<float>(p.ppc);
        fill_cell(sim.species(ele), g, v, p.ppc, w, p.uth, 0, -drift, 0,
                  hash64(p.seed + 1));
        fill_cell(sim.species(ion), g, v, p.ppc, w, p.uth * 0.2f, 0, drift,
                  0, hash64(p.seed + 2));
      }
  }
  return sim;
}

Simulation make_weibel(const WeibelParams& p) {
  SimulationConfig cfg;
  const float dxc = 0.5f;
  cfg.grid = Grid(p.nx, p.ny, p.nz, dxc * static_cast<float>(p.nx),
                  dxc * static_cast<float>(p.ny),
                  dxc * static_cast<float>(p.nz),
                  Grid::courant_dt(dxc, dxc, dxc));
  cfg.strategy = p.strategy;
  cfg.seed = p.seed;
  Simulation sim(cfg);

  const auto cap = cfg.grid.interior_cells() * p.ppc + 64;
  const std::size_t ele = sim.add_species("electron", -1.0f, 1.0f, cap);
  const std::size_t ion = sim.add_species("ion", 1.0f, 1836.0f, cap);

  Grid& g = sim.grid();
  const int half = p.ppc / 2;
  for (int iz = 1; iz <= g.nz; ++iz)
    for (int iy = 1; iy <= g.ny; ++iy)
      for (int ix = 1; ix <= g.nx; ++ix) {
        const index_t v = g.voxel(ix, iy, iz);
        const float w = 1.0f / static_cast<float>(p.ppc);
        fill_cell(sim.species(ele), g, v, half, w, p.uth, 0, 0, p.u_beam,
                  hash64(p.seed + 1));
        fill_cell(sim.species(ele), g, v, p.ppc - half, w, p.uth, 0, 0,
                  -p.u_beam, hash64(p.seed + 2));
        fill_cell(sim.species(ion), g, v, p.ppc, w, p.uth * 0.05f, 0, 0, 0,
                  hash64(p.seed + 3));
      }
  return sim;
}

}  // namespace vpic::core::decks
