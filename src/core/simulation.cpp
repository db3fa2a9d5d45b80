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
// work-stealing pool; tile-private accumulator blocks merged in fixed
// tile order keep results bit-deterministic run-to-run and across worker
// counts.
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
  const int workers = std::max(1, cfg_.tiles.workers);
  const int want = tile_count();
  // One worker builds no pool: every level runs on the calling thread.
  const bool pool_ok = (steal_pool_ ? steal_pool_->workers() : 1) == workers;
  const bool blocks_ok =
      tile_acc_.size() == species_.size() &&
      (species_.empty() ||
       static_cast<int>(tile_acc_.front().size()) == want);
  if (!tiles_dirty_ && tile_map_.count() == want && pool_ok && blocks_ok)
    return;

  tile_map_ = TileMap(fields_.grid, want);
  // Ranges that still cover the live particles stay as they are: a
  // restore that adopted its checkpoint's ranges resumes the particle
  // order the uninterrupted run has (docs/TILES.md).
  for (auto& sp : species_)
    if (!tiles_cover(sp, static_cast<std::size_t>(want)))
      bucket_by_tile(sp, tile_map_);
  tile_acc_.clear();
  tile_acc_.resize(species_.size());
  for (auto& per_sp : tile_acc_) {
    per_sp.reserve(static_cast<std::size_t>(want));
    for (int t = 0; t < want; ++t)
      per_sp.emplace_back(fields_.grid, tile_map_, t);
  }
  if (!pool_ok)
    steal_pool_ = workers == 1 ? nullptr
                               : std::make_unique<pk::StealPool>(
                                     workers, cfg_.tiles.steal_seed);
  tiles_dirty_ = false;
}

void Simulation::finish_tiled_step() {
  // Resolve how per-tile AutoDetect dispatch went (bit per species, set
  // by any tile that took the run-aware path).
  if (tiled_runs_used_ && tiled_runs_used_->size() == species_.size())
    for (std::size_t s = 0; s < species_.size(); ++s)
      last_push_paths_[s] =
          (*tiled_runs_used_)[s].load(std::memory_order_relaxed)
              ? PushPath::RunAware
              : PushPath::Generic;
  // A hook that appended particles leaves them outside every tile range:
  // force a re-bucket before the next step.
  for (const auto& sp : species_)
    if (!sp.tiles.empty() && sp.tiles.back().end != sp.np)
      tiles_dirty_ = true;
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
