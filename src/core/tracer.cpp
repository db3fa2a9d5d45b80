// core/tracer.cpp — passive tracer particles (see tracer.hpp).

#include "core/tracer.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>

#include "core/interpolator.hpp"
#include "core/simulation.hpp"

namespace vpic::core {

namespace {

/// move_p's face-splitting walk without the current deposit: advance a
/// passive particle by a cell-local displacement, wrapping periodically
/// at domain faces.
void move_tracer(Particle& p, float dispx, float dispy, float dispz,
                 const Grid& g) {
  for (int guard = 0; guard < 16; ++guard) {
    float f = 1.0f;
    int axis = -1, dir = 0;
    auto consider = [&](float pos, float disp, int ax) {
      if (disp > 0) {
        const float fa = (1.0f - pos) / disp;
        if (fa < f) {
          f = fa;
          axis = ax;
          dir = +1;
        }
      } else if (disp < 0) {
        const float fa = (-1.0f - pos) / disp;
        if (fa < f) {
          f = fa;
          axis = ax;
          dir = -1;
        }
      }
    };
    consider(p.dx, dispx, 0);
    consider(p.dy, dispy, 1);
    consider(p.dz, dispz, 2);
    if (f >= 1.0f) {
      f = 1.0f;
      axis = -1;
    }
    p.dx += dispx * f;
    p.dy += dispy * f;
    p.dz += dispz * f;
    dispx -= dispx * f;
    dispy -= dispy * f;
    dispz -= dispz * f;
    if (axis < 0) return;

    int ix, iy, iz;
    g.cell_of(p.i, ix, iy, iz);
    int c[3] = {ix, iy, iz};
    float* local[3] = {&p.dx, &p.dy, &p.dz};
    *local[axis] = static_cast<float>(-dir);
    c[axis] += dir;
    const int n_axis = (axis == 0) ? g.nx : (axis == 1) ? g.ny : g.nz;
    c[axis] = Grid::wrap(c[axis], n_axis);
    p.i = static_cast<std::int32_t>(g.voxel(c[0], c[1], c[2]));
  }
}

}  // namespace

void TracerModule::run(Simulation& sim, std::int64_t next_step) {
  if (!seeded_) {
    seeded_ = true;
    if (prm_.species < sim.num_species() && prm_.stride > 0) {
      const Species& sp = sim.species(prm_.species);
      dispatch_layout(sp.p, [&](auto a) {
        for (index_t i = 0; i < sp.np; i += prm_.stride) {
          if (tracers_.size() >= prm_.max_tracers) break;
          TracerParticle t;
          t.id = static_cast<std::uint32_t>(tracers_.size());
          t.p = a.load(i);
          tracers_.push_back(t);
        }
      });
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

  for (TracerParticle& t : tracers_) {
    Particle& p = t.p;
    // Same gather + Boris float math as the species push (push.cpp), so a
    // tracer that starts on a species particle shadows it until their
    // trajectories decorrelate.
    const FieldsAtPoint f = interpolate(interp(p.i), p.dx, p.dy, p.dz);
    const float hax = qdt2m * f.ex, hay = qdt2m * f.ey, haz = qdt2m * f.ez;
    float ux = p.ux + hax;
    float uy = p.uy + hay;
    float uz = p.uz + haz;
    const float gmi =
        1.0f / std::sqrt(1.0f + ux * ux + uy * uy + uz * uz);
    const float tx = qdt2m * f.bx * gmi;
    const float ty = qdt2m * f.by * gmi;
    const float tz = qdt2m * f.bz * gmi;
    const float sfac = 2.0f / (1.0f + (tx * tx + ty * ty + tz * tz));
    const float sx = tx * sfac, sy = ty * sfac, sz = tz * sfac;
    const float wx = ux + (uy * tz - uz * ty);
    const float wy = uy + (uz * tx - ux * tz);
    const float wz = uz + (ux * ty - uy * tx);
    ux += wy * sz - wz * sy;
    uy += wz * sx - wx * sz;
    uz += wx * sy - wy * sx;
    ux += hax;
    uy += hay;
    uz += haz;
    p.ux = ux;
    p.uy = uy;
    p.uz = uz;
    const float rg =
        1.0f / std::sqrt(1.0f + ux * ux + uy * uy + uz * uz);
    move_tracer(p, cdtdx2 * ux * rg, cdtdy2 * uy * rg, cdtdz2 * uz * rg, g);

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
  std::vector<std::string> rd = ctx.particles(sp.name);
  rd.push_back("interp");
  const auto poll = ctx.poll;
  c.add_branch({"tracer",
                std::move(rd),
                {"tracer", "diag"},
                [this, &sim, poll, ns = ctx.next_step] {
                  if (poll) poll();
                  run(sim, ns);
                },
                0.0});
  c.edge("interpolate", "tracer");
  if (ctx.tiled) {
    // The tiled step has no spine tail yet at the Push stage: order the
    // particle-read conflict against the source species' tile pushes
    // explicitly.
    for (int t = 0; t < ctx.tiles->count(); ++t)
      c.edge("push[" + sp.name + ".t" + std::to_string(t) + "]", "tracer");
  }
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
