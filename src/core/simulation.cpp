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

// Two step shapes, one executor. Untiled: the registry-composed phase
// graph runs level by level on the calling thread. Tiled (docs/TILES.md):
// the domain is over-decomposed into z-slab tiles, each (phase x tile)
// pair is a task, and every level of several tasks is one round of the
// work-stealing pool; each tile writes only its own planes of the
// accumulator and logs the rest, and the logs applied in fixed tile order
// keep results bit-deterministic run-to-run and across worker counts.
void Simulation::step() {
  prof::ScopedRegion step_region("step");
  const bool tiled = cfg_.tiles.enabled;
  if (tiled) ensure_tiles();
  StepGraph g = build_step_graph(step_count_ + 1);
  g.validate();
  // Phase bodies' interval seeds and record timestamps read step_count_
  // post-increment.
  ++step_count_;
  const pk::StealStats steal = g.execute(tiled ? steal_pool_.get() : nullptr);
  last_phase_stats_ = g.last_stats();
  last_concurrency_peak_ = g.last_concurrency_peak();
  if (tiled) {
    tile_stats_.steal = steal;
    finish_tiled_step();
  }
}

StepGraph Simulation::build_step_graph(std::int64_t next_step) {
  StepGraph g;
  StepComposer c(g);
  ModuleStepContext ctx;
  ctx.next_step = next_step;
  if (cfg_.tiles.enabled) {
    ctx.tiled = true;
    ctx.tiles = &tile_map_;
    ctx.poll = [this] {
      if (phase_poll_) phase_poll_();
    };
  }
  for (const auto& m : modules_) m->plan(*this, ctx, c);
  return g;
}

int Simulation::tile_count() const {
  return cfg_.tiles.count > 0
             ? std::clamp(cfg_.tiles.count, 1, fields_.grid.nz)
             : TileMap::auto_count(fields_.grid,
                                   std::max(1, cfg_.tiles.workers));
}

void Simulation::ensure_tiles() {
  const int want = tile_count();
  const auto nt = static_cast<std::size_t>(want);
  if (tile_map_.count() != want) tile_map_ = TileMap(fields_.grid, want);
  // Ranges that still cover the live particles stay as they are: a
  // restore that adopted its checkpoint's ranges resumes the particle
  // order the uninterrupted run has (docs/TILES.md). Other restores, a
  // hook that appended particles and a new species leave none that do.
  // In a Standard deck their re-bucketing is a Standard sort: it reorders
  // the array in one counting pass, as the bucketing does, and leaves the
  // exact cell order the push keeps, so from the first tiled step on a
  // tile logs only its cell crossers' segments, not those of particles
  // drifting out of its planes until the first interval sort.
  const bool standard = cfg_.sort_order == sort::SortOrder::Standard &&
                        cfg_.sort_interval > 0;
  for (auto& sp : species_) {
    if (!tiles_cover(sp, nt)) {
      if (standard && !sp.exact_cell_order())
        sort_particles(sp, sort::SortOrder::Standard, 0, 0,
                       fields_.grid.nv());
      bucket_by_tile(sp, tile_map_);
    }
  }
  // Tile t of species s logs in deposit_logs[s * nt + t]; every species
  // after the first writes its planes of its staged accumulator.
  auto& logs = sort_scratch_->deposit_logs;
  if (logs.size() < species_.size() * nt)
    logs.resize(species_.size() * nt);
  if (!staged_acc_.empty() && staged_acc_.front().a.size() != acc_.a.size())
    staged_acc_.clear();
  while (staged_acc_.size() + 1 < species_.size())
    staged_acc_.emplace_back(fields_.grid);
  // One worker builds no pool: every level runs on the calling thread.
  const int workers = std::max(1, cfg_.tiles.workers);
  if ((steal_pool_ ? steal_pool_->workers() : 1) != workers)
    steal_pool_ = workers == 1 ? nullptr
                               : std::make_unique<pk::StealPool>(
                                     workers, cfg_.tiles.steal_seed);
}

void Simulation::finish_tiled_step() {
  tile_stats_.tiles = tile_map_.count();
  double imb = 1.0;
  for (const auto& sp : species_) imb = std::max(imb, tile_imbalance(sp));
  tile_stats_.imbalance = imb;
  prof::counter_add("tiles.step");
  prof::counter_add("tiles.imbalance_x100",
                    static_cast<std::uint64_t>(imb * 100.0));
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
