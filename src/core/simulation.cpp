#include "core/simulation.hpp"

#include <stdexcept>

#include "core/rng.hpp"

namespace vpic::core {

void Simulation::load_uniform_plasma(std::size_t species_idx, int ppc,
                                     float uth, float udx, float udy,
                                     float udz) {
  Species& sp = species_[species_idx];
  const Grid& g = fields_.grid;
  const index_t want = g.interior_cells() * ppc;
  if (want > sp.capacity())
    throw std::length_error("load_uniform_plasma: species capacity " +
                            std::to_string(sp.capacity()) +
                            " < required " + std::to_string(want));

  const std::uint64_t seed = hash64(cfg_.seed + 0x5eed0000 + species_idx);
  index_t n = sp.np;
  for (int iz = 1; iz <= g.nz; ++iz)
    for (int iy = 1; iy <= g.ny; ++iy)
      for (int ix = 1; ix <= g.nx; ++ix) {
        const index_t v = g.voxel(ix, iy, iz);
        for (int k = 0; k < ppc; ++k) {
          Particle p;
          const std::uint64_t ctr = static_cast<std::uint64_t>(v) * 1000 +
                                    static_cast<std::uint64_t>(k);
          p.dx = static_cast<float>(2.0 * uniform01(seed, 6 * ctr + 0) - 1.0);
          p.dy = static_cast<float>(2.0 * uniform01(seed, 6 * ctr + 1) - 1.0);
          p.dz = static_cast<float>(2.0 * uniform01(seed, 6 * ctr + 2) - 1.0);
          p.i = static_cast<std::int32_t>(v);
          p.ux = udx + uth * static_cast<float>(normal(seed, 6 * ctr + 3));
          p.uy = udy + uth * static_cast<float>(normal(seed, 6 * ctr + 4));
          p.uz = udz + uth * static_cast<float>(normal(seed, 6 * ctr + 5));
          // Unit physical density regardless of ppc: with |q| = m = 1 this
          // puts the species plasma frequency at 1/dt-independent omega_p=1
          // (cell sizes are in units of c/omega_p).
          p.w = 1.0f / static_cast<float>(ppc);
          sp.p.set(n++, p);
        }
      }
  sp.np = n;
}

// ---- physics-module registry (docs/MODULES.md) -----------------------

PhysicsModule& Simulation::add_module(std::unique_ptr<PhysicsModule> m) {
  if (!m) throw std::invalid_argument("add_module: null module");
  for (const auto& e : modules_)
    if (e->id() == m->id())
      throw std::invalid_argument("add_module: duplicate module id '" +
                                  std::string(m->id()) + "'");
  // Keep ascending stage order, ties in registration order, so plan()
  // composes the step in the canonical stage sequence.
  auto pos = modules_.end();
  for (auto it = modules_.begin(); it != modules_.end(); ++it)
    if ((*it)->stage() > m->stage()) {
      pos = it;
      break;
    }
  PhysicsModule& ref = *m;
  modules_.insert(pos, std::move(m));
  ref.attach(*this);
  return ref;
}

PhysicsModule* Simulation::find_module(std::string_view id) {
  for (const auto& m : modules_)
    if (m->id() == id) return m.get();
  return nullptr;
}

// ---- step execution --------------------------------------------------

// The one step shape: the phase graph composed from the registered
// modules, run level by level on the calling thread, each phase's
// kernels on its OpenMP team (docs/ASYNC.md).
void Simulation::step() {
  prof::ScopedRegion step_region("step");
  StepGraph g;
  StepComposer c(g);
  const ModuleStepContext ctx{step_count_ + 1};
  for (const auto& m : modules_) m->plan(*this, ctx, c);
  g.validate();
  // Phase bodies' interval seeds and record timestamps read step_count_
  // post-increment.
  ++step_count_;
  g.execute();
  last_phase_stats_ = g.last_stats();
}

EnergyReport Simulation::energies() const {
  EnergyReport r;
  r.field = fields_.field_energy();
  for (const auto& sp : species_) r.species.push_back(sp.kinetic_energy());
  return r;
}

pk::View<double, 1> Simulation::charge_density() const {
  const Grid& g = fields_.grid;
  pk::View<double, 1> rho("rho", g.nv());
  const double inv_v = 1.0 / (static_cast<double>(g.dx) * g.dy * g.dz);
  for (const auto& sp : species_) {
    for (index_t n = 0; n < sp.np; ++n) {
      const Particle p = sp.p.get(n);
      int ix, iy, iz;
      g.cell_of(p.i, ix, iy, iz);
      // Trilinear node deposit (nodes = cell corners).
      const double wx1 = 0.5 * (1.0 + p.dx), wx0 = 1.0 - wx1;
      const double wy1 = 0.5 * (1.0 + p.dy), wy0 = 1.0 - wy1;
      const double wz1 = 0.5 * (1.0 + p.dz), wz0 = 1.0 - wz1;
      const double qw = static_cast<double>(sp.q) * p.w * inv_v;
      auto add = [&](int jx, int jy, int jz, double w) {
        // Wrap node indices periodically onto interior nodes 1..n.
        jx = jx > g.nx ? 1 : jx;
        jy = jy > g.ny ? 1 : jy;
        jz = jz > g.nz ? 1 : jz;
        rho(g.voxel(jx, jy, jz)) += qw * w;
      };
      add(ix, iy, iz, wx0 * wy0 * wz0);
      add(ix + 1, iy, iz, wx1 * wy0 * wz0);
      add(ix, iy + 1, iz, wx0 * wy1 * wz0);
      add(ix + 1, iy + 1, iz, wx1 * wy1 * wz0);
      add(ix, iy, iz + 1, wx0 * wy0 * wz1);
      add(ix + 1, iy, iz + 1, wx1 * wy0 * wz1);
      add(ix, iy + 1, iz + 1, wx0 * wy1 * wz1);
      add(ix + 1, iy + 1, iz + 1, wx1 * wy1 * wz1);
    }
  }
  return rho;
}

}  // namespace vpic::core
