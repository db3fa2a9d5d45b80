// core/tracer.cpp — passive tracer particles (see tracer.hpp).

#include "core/tracer.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>

#include "core/boris.hpp"
#include "core/interpolator.hpp"
#include "core/move_p.hpp"
#include "core/simulation.hpp"

namespace vpic::core {

namespace {

/// move_p deposit sink that drops the current: tracers are passive and
/// never feed J.
struct DiscardDeposits {
  void deposit(index_t, float, float, float, float, float, float,
               float) const {}
};

}  // namespace

void TracerModule::run(Simulation& sim, std::int64_t next_step) {
  if (!seeded_) {
    seeded_ = true;
    if (prm_.species < sim.num_species() && prm_.stride > 0) {
      const Species& sp = sim.species(prm_.species);
      for (index_t i = 0; i < sp.np; i += prm_.stride) {
        if (tracers_.size() >= prm_.max_tracers) break;
        TracerParticle t;
        t.id = static_cast<std::uint32_t>(tracers_.size());
        t.p = sp.p(i);
        tracers_.push_back(t);
      }
    }
  }
  if (tracers_.empty() || prm_.species >= sim.num_species()) return;

  const Species& sp = sim.species(prm_.species);
  const Grid& g = sim.grid();
  const InterpolatorArray& interp = sim.interpolator();
  const float qdt2m = 0.5f * sp.q * g.dt / sp.m;
  const float cdtdx2 = 2.0f * g.cvac * g.dt / g.dx;
  const float cdtdy2 = 2.0f * g.cvac * g.dt / g.dy;
  const float cdtdz2 = 2.0f * g.cvac * g.dt / g.dz;
  const bool sample =
      prm_.sample_interval > 0 && next_step % prm_.sample_interval == 0;

  DiscardDeposits sink;
  for (TracerParticle& t : tracers_) {
    Particle& p = t.p;
    // Same gather, Boris and periodic move as the species push (push.cpp),
    // so a tracer that starts on a species particle shadows it until their
    // trajectories decorrelate.
    const FieldsAtPoint f = interpolate(interp(p.i), p.dx, p.dy, p.dz);
    boris(p.ux, p.uy, p.uz, qdt2m * f.ex, qdt2m * f.ey, qdt2m * f.ez, f.bx,
          f.by, f.bz, qdt2m);
    const float rg =
        1.0f / std::sqrt(1.0f + p.ux * p.ux + p.uy * p.uy + p.uz * p.uz);
    move_p(p, cdtdx2 * p.ux * rg, cdtdy2 * p.uy * rg,
                  cdtdz2 * p.uz * rg, 0.0f, sink, g);

    if (sample) {
      TracerSample s;
      s.step = next_step;
      s.id = t.id;
      s.voxel = p.i;
      s.dx = p.dx;
      s.dy = p.dy;
      s.dz = p.dz;
      s.ux = p.ux;
      s.uy = p.uy;
      s.uz = p.uz;
      if (ring_.size() < prm_.ring_capacity) {
        ring_.push_back(s);
      } else if (!ring_.empty()) {
        ring_[ring_head_] = s;
        ring_head_ = (ring_head_ + 1) % ring_.size();
      }
      ++total_;
    }
  }
}

void TracerModule::plan(Simulation& sim, const ModuleStepContext& ctx,
                        StepComposer& c) {
  // Cache the sink path so the destructor flush works even when no
  // checkpoint ever fires.
  csv_path_ = sim.config().tracer_csv_path;
  if (prm_.species >= sim.num_species()) return;
  const Species& sp = sim.species(prm_.species);
  c.add_branch({"tracer",
                {ctx.particles(sp.name), "interp"},
                {"tracer", "diag"},
                [this, &sim, step = ctx.next_step] { run(sim, step); }});
  c.edge("interpolate", "tracer");
  c.join("tracer");
}

std::vector<TracerSample> TracerModule::trajectory() const {
  std::vector<TracerSample> out;
  out.reserve(ring_.size());
  if (ring_.size() < prm_.ring_capacity) {
    out = ring_;
  } else {
    for (std::size_t k = 0; k < ring_.size(); ++k)
      out.push_back(ring_[(ring_head_ + k) % ring_.size()]);
  }
  return out;
}

void TracerModule::on_checkpoint(Simulation& sim) {
  csv_path_ = sim.config().tracer_csv_path;
  flush_csv();
}

void TracerModule::flush_csv() {
  if (csv_path_.empty() || csv_written_ >= total_) return;
  std::error_code ec;
  const auto size = std::filesystem::file_size(csv_path_, ec);
  const bool need_header = ec || size == 0;
  std::ofstream os(csv_path_, std::ios::app);
  if (!os) return;  // sink trouble must not fail the checkpoint
  if (need_header) os << "step,id,voxel,dx,dy,dz,ux,uy,uz\n";
  os.precision(9);  // round-trips float exactly
  const auto traj = trajectory();
  // Unflushed tail of the ring; samples evicted before this flush are
  // gone from the CSV too (ring_capacity bounds the gap).
  std::uint64_t fresh = total_ - csv_written_;
  if (fresh > traj.size()) fresh = traj.size();
  for (std::size_t k = traj.size() - static_cast<std::size_t>(fresh);
       k < traj.size(); ++k) {
    const TracerSample& s = traj[k];
    os << s.step << ',' << s.id << ',' << s.voxel << ',' << s.dx << ','
       << s.dy << ',' << s.dz << ',' << s.ux << ',' << s.uy << ',' << s.uz
       << '\n';
  }
  csv_written_ = total_;
}

void TracerModule::save_state(ModuleStateWriter& w) const {
  const std::uint8_t seeded = seeded_ ? 1 : 0;
  w.add_pod("seeded", seeded);
  w.add_pod("ring_head", static_cast<std::uint64_t>(ring_head_));
  w.add_pod("total", total_);
  w.add_vector("particles", tracers_);
  w.add_vector("ring", ring_);
}

void TracerModule::load_state(ModuleStateReader& r,
                              std::uint32_t /*version*/) {
  seeded_ = r.pod<std::uint8_t>("seeded") != 0;
  ring_head_ = static_cast<std::size_t>(r.pod<std::uint64_t>("ring_head"));
  total_ = r.pod<std::uint64_t>("total");
  tracers_ = r.vector<TracerParticle>("particles");
  ring_ = r.vector<TracerSample>("ring");
  // Everything up to the checkpoint was flushed when it was taken
  // (on_checkpoint runs before commit returns); only post-restore samples
  // are new for the CSV.
  csv_written_ = total_;
}

void TracerModule::clear_state() {
  seeded_ = false;
  tracers_.clear();
  ring_.clear();
  ring_head_ = 0;
  total_ = 0;
  csv_written_ = 0;
}

}  // namespace vpic::core
