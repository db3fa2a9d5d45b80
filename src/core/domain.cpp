#include "core/domain.hpp"

#include <stdexcept>

#include "core/move_p.hpp"
#include "core/rng.hpp"
#include "core/sort_particles.hpp"
#include "prof/prof.hpp"

namespace vpic::core {

namespace {

// Tags for the per-step message families.
constexpr int kTagFieldUp = 200;    // plane nz -> next's ghost 0
constexpr int kTagFieldDown = 201;  // plane 1 -> prev's ghost nz+1
constexpr int kTagAccUp = 210;      // plane nz -> next's ghost 0
constexpr int kTagExitUpCount = 220;
constexpr int kTagExitUpData = 221;
constexpr int kTagExitDownCount = 222;
constexpr int kTagExitDownData = 223;

Grid make_local_grid(const DomainConfig& cfg, int nranks, int rank) {
  if (cfg.nz % nranks != 0)
    throw std::invalid_argument(
        "DistributedSimulation: nz must be divisible by the rank count");
  const int nz_local = cfg.nz / nranks;
  Grid g(cfg.nx, cfg.ny, nz_local, cfg.lx, cfg.ly,
         cfg.lz * static_cast<float>(nz_local) / static_cast<float>(cfg.nz),
         cfg.dt);
  if (g.dt <= 0) g.dt = Grid::courant_dt(g.dx, g.dy, g.dz, 0.7f);
  g.z0 = static_cast<float>(rank * nz_local) * g.dz;
  return g;
}

}  // namespace

DistributedSimulation::DistributedSimulation(const DomainConfig& cfg,
                                             mpi::Comm& comm)
    : cfg_(cfg),
      comm_(comm),
      prev_((comm.rank() - 1 + comm.size()) % comm.size()),
      next_((comm.rank() + 1) % comm.size()),
      z_offset_(comm.rank() * (cfg.nz / comm.size())),
      fields_(make_local_grid(cfg, comm.size(), comm.rank())),
      interp_(fields_.grid),
      acc_(fields_.grid) {}

std::size_t DistributedSimulation::add_species(std::string name, float q,
                                               float m,
                                               index_t local_capacity) {
  species_.emplace_back(std::move(name), q, m, local_capacity);
  species_.back().scratch = sort_scratch_;
  return species_.size() - 1;
}

void DistributedSimulation::load_uniform_plasma(std::size_t species_idx,
                                                int ppc, float uth,
                                                float udx, float udy,
                                                float udz) {
  Species& sp = species_[species_idx];
  const Grid& g = fields_.grid;
  const std::uint64_t seed =
      hash64(cfg_.seed + 0x5eed0000 + species_idx);
  index_t n = sp.np;
  for (int iz = 1; iz <= g.nz; ++iz)
    for (int iy = 1; iy <= g.ny; ++iy)
      for (int ix = 1; ix <= g.nx; ++ix) {
        // Global cell id: identical across decompositions.
        const std::uint64_t gid =
            (static_cast<std::uint64_t>(z_offset_ + iz - 1) *
                 static_cast<std::uint64_t>(cfg_.ny) +
             static_cast<std::uint64_t>(iy - 1)) *
                static_cast<std::uint64_t>(cfg_.nx) +
            static_cast<std::uint64_t>(ix - 1);
        for (int k = 0; k < ppc; ++k) {
          if (n >= sp.capacity())
            throw std::length_error("distributed load: capacity exceeded");
          Particle p;
          const std::uint64_t ctr =
              gid * 1024 + static_cast<std::uint64_t>(k);
          p.dx = static_cast<float>(2.0 * uniform01(seed, 6 * ctr + 0) - 1.0);
          p.dy = static_cast<float>(2.0 * uniform01(seed, 6 * ctr + 1) - 1.0);
          p.dz = static_cast<float>(2.0 * uniform01(seed, 6 * ctr + 2) - 1.0);
          p.i = static_cast<std::int32_t>(g.voxel(ix, iy, iz));
          p.ux = udx + uth * static_cast<float>(normal(seed, 6 * ctr + 3));
          p.uy = udy + uth * static_cast<float>(normal(seed, 6 * ctr + 4));
          p.uz = udz + uth * static_cast<float>(normal(seed, 6 * ctr + 5));
          p.w = 1.0f / static_cast<float>(ppc);
          sp.p.set(n++, p);
        }
      }
  sp.np = n;
}

DistributedSimulation::FieldHalo DistributedSimulation::begin_field_halo() {
  fields_.update_ghosts_periodic(0b011);  // x, y periodic locally
  const std::size_t nf = fields_.plane_floats();
  FieldHalo h;
  h.up.resize(nf);
  h.down.resize(nf);
  h.from_prev.resize(nf);
  h.from_next.resize(nf);
  fields_.pack_z_plane(fields_.grid.nz, h.up.data());  // -> next's ghost 0
  fields_.pack_z_plane(1, h.down.data());  // -> prev's ghost nz+1
  h.recvs[0] = comm_.irecv(prev_, kTagFieldUp, std::span<float>(h.from_prev));
  h.recvs[1] =
      comm_.irecv(next_, kTagFieldDown, std::span<float>(h.from_next));
  comm_.isend(next_, kTagFieldUp, std::span<const float>(h.up));
  comm_.isend(prev_, kTagFieldDown, std::span<const float>(h.down));
  return h;
}

void DistributedSimulation::complete_field_halo(FieldHalo& h) {
  // Drain both receives through the polling interface (wait_any) rather
  // than blocking wait(): requests complete in whichever order the
  // messages land.
  std::vector<mpi::Request> pending(h.recvs.begin(), h.recvs.end());
  while (!pending.empty()) {
    const std::size_t i = mpi::wait_any(std::span<mpi::Request>(pending));
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
  }
  fields_.unpack_z_plane(0, h.from_prev.data());
  fields_.unpack_z_plane(fields_.grid.nz + 1, h.from_next.data());
}

void DistributedSimulation::exchange_field_ghosts() {
  FieldHalo h = begin_field_halo();
  complete_field_halo(h);
}

void DistributedSimulation::exchange_exits(std::vector<ExitRecord>& exits) {
  const Grid& g = fields_.grid;
  // Bounded relay: with a CFL-respecting dt a particle can cross at most a
  // couple of slab faces per step.
  for (int round = 0; round < 8; ++round) {
    std::int64_t outstanding =
        comm_.allreduce(static_cast<std::int64_t>(exits.size()),
                        mpi::ReduceOp::Sum);
    if (outstanding == 0) return;
    exchanged_ += static_cast<std::int64_t>(exits.size());

    std::vector<ExitRecord> up, down;
    for (const auto& e : exits) {
      int ix, iy, iz;
      g.cell_of(e.p.i, ix, iy, iz);
      (iz > g.nz ? up : down).push_back(e);
    }
    exits.clear();

    const auto bytes = [](const std::vector<ExitRecord>& v) {
      return std::span<const ExitRecord>(v);
    };
    std::int64_t n_up = static_cast<std::int64_t>(up.size());
    std::int64_t n_down = static_cast<std::int64_t>(down.size());
    std::int64_t from_prev_n = 0, from_next_n = 0;
    auto rc0 = comm_.irecv(prev_, kTagExitUpCount, from_prev_n);
    auto rc1 = comm_.irecv(next_, kTagExitDownCount, from_next_n);
    comm_.isend(next_, kTagExitUpCount, n_up);
    comm_.isend(prev_, kTagExitDownCount, n_down);
    comm_.isend(next_, kTagExitUpData, bytes(up));
    comm_.isend(prev_, kTagExitDownData, bytes(down));
    rc0.wait();
    rc1.wait();
    std::vector<ExitRecord> from_prev(
        static_cast<std::size_t>(from_prev_n));
    std::vector<ExitRecord> from_next(
        static_cast<std::size_t>(from_next_n));
    comm_.irecv(prev_, kTagExitUpData, std::span<ExitRecord>(from_prev))
        .wait();
    comm_.irecv(next_, kTagExitDownData, std::span<ExitRecord>(from_next))
        .wait();

    // Re-inject and complete the interrupted moves. Records from prev
    // crossed up through its top face: they enter through our plane 1.
    // Records from next crossed down: they enter through our plane nz.
    auto reinject = [&](const ExitRecord& rec, int enter_plane) {
      int ix, iy, iz;
      g.cell_of(rec.p.i, ix, iy, iz);
      (void)iz;
      Particle p = rec.p;
      p.i = static_cast<std::int32_t>(g.voxel(ix, iy, enter_plane));
      // The exit species is the one currently being advanced (the caller
      // loops species sequentially and drains exits per species).
      Species& sp = species_[current_species_];
      float rem[3] = {0, 0, 0};
      const MoveResult r =
          move_p(p, rec.rem[0], rec.rem[1], rec.rem[2], sp.q * p.w, acc_,
                 g, 0b011, rem);
      if (r == MoveResult::Exited) {
        ExitRecord again;
        again.p = p;
        again.rem[0] = rem[0];
        again.rem[1] = rem[1];
        again.rem[2] = rem[2];
        exits.push_back(again);
      } else {
        if (sp.np >= sp.capacity())
          throw std::length_error("reinjection: species capacity exceeded");
        sp.p.set(sp.np++, p);
      }
    };
    for (const auto& rec : from_prev) reinject(rec, 1);
    for (const auto& rec : from_next) reinject(rec, g.nz);
  }
  if (comm_.allreduce(static_cast<std::int64_t>(exits.size()),
                      mpi::ReduceOp::Sum) != 0)
    throw std::runtime_error("particle exchange failed to converge");
}

// The one schedule (docs/ASYNC.md). The leading z-halo exchange is in
// flight while every species not in exact cell order is Standard-sorted
// (the previous step compacted its exit tombstones, so the sort can key
// every record). The interpolator stencil for plane iz reads field planes
// iz and iz+1 only, so planes 1..nz-1 never touch the z ghosts, and
// neither does the push of the particles in those cells: in a cell-sorted
// species, slots [0, k). Only the plane-nz interpolator load and the push
// of [k, np) need the halo. cfg_.overlap decides only whether the halo
// completes before the push of [0, k) or after it; nothing else differs,
// so at one kernel thread both settings give the same bits.
void DistributedSimulation::step() {
  prof::ScopedRegion step_region("step");
  const Grid& g = fields_.grid;

  FieldHalo halo = begin_field_halo();
  {
    prof::ScopedRegion r("sort");
    for (Species& sp : species_)
      if (!sp.exact_cell_order())
        sort_particles(sp, sort::SortOrder::Standard, 0, 0, g.nv());
  }
  if (!cfg_.overlap) complete_field_halo(halo);
  interp_.load_planes(fields_, 1, g.nz - 1);
  acc_.clear();

  // voxel = (iz*sy + iy)*sx + ix is monotone in iz, so the plane-nz
  // particles of a cell-sorted species are the slots from the first one
  // at or past voxel(0, 0, nz).
  const index_t boundary = g.voxel(0, 0, g.nz);
  std::vector<index_t> split(species_.size());
  std::vector<std::vector<ExitRecord>> exits(species_.size());
  const auto push = [&](std::size_t s, index_t n0, index_t n1) {
    MoverOptions opts;
    opts.periodic_mask = 0b011;  // x, y periodic; z decomposed
    opts.exits = &exits[s];
    push_on<pk::DefaultExecSpace>(species_[s], interp_, acc_, g,
                                  cfg_.strategy, opts, PushPath::AutoDetect,
                                  n0, n1);
  };
  {
    prof::ScopedRegion r("interior_push");
    for (std::size_t s = 0; s < species_.size(); ++s) {
      const ParticleAccessor a = species_[s].p.accessor();
      index_t lo = 0, hi = species_[s].np;
      while (lo < hi) {
        const index_t mid = lo + (hi - lo) / 2;
        if (a.cell(mid) < boundary) lo = mid + 1;
        else hi = mid;
      }
      split[s] = lo;
      push(s, 0, lo);
    }
  }

  if (cfg_.overlap) complete_field_halo(halo);
  interp_.load_planes(fields_, g.nz, g.nz);

  for (std::size_t s = 0; s < species_.size(); ++s) {
    Species& sp = species_[s];
    current_species_ = s;
    {
      prof::ScopedRegion r("boundary_push");
      push(s, split[s], sp.np);
    }
    // The push moved particles across cells, and the exchange appends
    // re-injected ones: the next step sorts the species again.
    sp.mark_order_degraded();
    compact_exited(sp);
    exchange_exits(exits[s]);
  }

  finish_accumulate_and_fields();
  ++step_count_;
}

// The step's tail: accumulator boundary-plane exchange + unload, then the
// FDTD advance with halo refresh after each sub-step.
void DistributedSimulation::finish_accumulate_and_fields() {
  acc_.reduce_ghosts_periodic();
  // Boundary edges at plane 1 need the previous rank's plane-nz deposits.
  {
    const std::size_t na = acc_.plane_floats();
    std::vector<float> up(na), from_prev(na);
    acc_.pack_z_plane(fields_.grid.nz, up.data());
    auto r = comm_.irecv(prev_, kTagAccUp, std::span<float>(from_prev));
    comm_.isend(next_, kTagAccUp, std::span<const float>(up));
    r.wait();
    acc_.unpack_z_plane(0, from_prev.data());
  }
  acc_.unload(fields_, 0b011);

  fields_.advance_b_half();
  exchange_field_ghosts();
  fields_.advance_e();
  exchange_field_ghosts();
  fields_.advance_b_half();
  // (next step's leading exchange_field_ghosts refreshes the halos)
}

DistributedEnergy DistributedSimulation::energies() {
  // The trailing advance_b_half of step() leaves z-halos stale; refresh so
  // the local integral uses consistent fields (interior-only sums do not
  // strictly need it, but keep the invariant simple).
  exchange_field_ghosts();
  DistributedEnergy e;
  e.field = comm_.allreduce(fields_.field_energy(), mpi::ReduceOp::Sum);
  for (auto& sp : species_)
    e.species.push_back(
        comm_.allreduce(sp.kinetic_energy(), mpi::ReduceOp::Sum));
  return e;
}

std::int64_t DistributedSimulation::global_np(std::size_t species_idx) {
  return comm_.allreduce(
      static_cast<std::int64_t>(species_[species_idx].np),
      mpi::ReduceOp::Sum);
}

}  // namespace vpic::core
