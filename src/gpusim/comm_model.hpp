// gpusim/comm_model.hpp
//
// alpha-beta communication model for the strong-scaling study (Fig. 10).
// VPIC exchanges field halos and migrating particles with up to six
// neighbors per step using non-blocking point-to-point MPI (paper Section
// 2.1). With the testbed absent, per-step communication time is modeled as
//
//   t_comm = n_msgs * alpha + bytes / link_bw
//
// with halo bytes from the surface of a cubic per-rank subdomain and
// particle-migration bytes from the surface/volume flux estimate.
#pragma once

#include <cmath>
#include <cstdint>

#include "gpusim/device.hpp"

namespace vpic::gpusim {

struct CommParams {
  int neighbors = 6;               // face-adjacent exchange partners
  double field_bytes_per_face_point = 32;  // 8 floats of E/B halo
  double particle_bytes = 32;      // one migrating particle record
  // Fraction of surface-cell particles crossing a face per step
  // (~ v_th * dt / dx for a CFL-respecting thermal plasma).
  double migration_fraction_of_surface = 0.05;
  double sync_overhead_us = 5;     // per-step collective/sync cost
};

struct CommEstimate {
  double seconds = 0;
  double halo_bytes = 0;
  double particle_bytes = 0;
  double messages = 0;
};

/// Per-step communication time for one rank owning `cells_per_rank` grid
/// points and `particles_per_rank` particles, on `dev`'s interconnect.
inline CommEstimate model_comm(const DeviceSpec& dev, double cells_per_rank,
                               double particles_per_rank, int nranks,
                               const CommParams& p = {}) {
  CommEstimate e;
  if (nranks <= 1) return e;  // single rank: no exchange

  // Cubic subdomain: one face holds (cells)^(2/3) points.
  const double face_points = std::pow(std::max(1.0, cells_per_rank), 2.0 / 3.0);
  e.halo_bytes = static_cast<double>(p.neighbors) * face_points *
                 p.field_bytes_per_face_point;

  // Particles crossing faces per step: proportional to the ratio of
  // surface cells to volume cells times a CFL-like flux factor.
  const double surface_cells =
      std::min(cells_per_rank,
               static_cast<double>(p.neighbors) * face_points);
  const double flux_fraction =
      p.migration_fraction_of_surface * surface_cells /
      std::max(1.0, cells_per_rank);
  e.particle_bytes =
      flux_fraction * particles_per_rank * p.particle_bytes;

  e.messages = 2.0 * p.neighbors;  // halo + particle message per neighbor
  const double alpha_s = dev.link_latency_us * 1e-6;
  const double beta_s =
      (e.halo_bytes + e.particle_bytes) / (dev.link_bw_gbs * 1e9);
  e.seconds = e.messages * alpha_s + beta_s + p.sync_overhead_us * 1e-6;
  return e;
}

// ----------------------------------------------------------------------
// Comm/compute overlap model. The overlapped runtime schedule
// (DistributedSimulation::step with DomainConfig::overlap, docs/ASYNC.md)
// hides the halo exchange behind halo-independent compute: the particle
// sort, interpolator planes 1..nz-1 and the interior particle push. Modeled per step as
//
//   hidden  = min(overlappable comm, overlap window)
//   exposed = t_comm - hidden
//   t_step  = t_compute + exposed
//
// where the window is the halo-independent fraction of compute and the
// per-step sync/collective tail is never hideable.
// ----------------------------------------------------------------------

struct OverlapParams {
  // Fraction of per-step compute that does not touch halo data and can
  // run while the exchange is in flight. For a z-slab of nz interior
  // planes that is ~(nz-1)/nz of the interpolator load and the volume
  // fraction of particles below the boundary plane — ~0.9 for the slab
  // shapes of the Fig. 10 sweeps.
  double overlappable_compute_fraction = 0.9;
  // Fraction of comm hideable under the window: flight latency and
  // bandwidth of the nonblocking exchanges. The sync_overhead_us tail
  // (collectives, per-step fences) stays on the critical path.
  double overlappable_comm_fraction = 0.9;
};

struct OverlapEstimate {
  double window_seconds = 0;   // compute available to hide comm under
  double hidden_seconds = 0;   // comm actually hidden
  double exposed_seconds = 0;  // comm left on the critical path
  double step_seconds = 0;     // compute + exposed comm
};

/// Overlapped step time for a rank whose fenced step is
/// `compute_seconds + comm.seconds`.
inline OverlapEstimate model_overlap(const CommEstimate& comm,
                                     double compute_seconds,
                                     const OverlapParams& p = {}) {
  OverlapEstimate o;
  o.window_seconds = p.overlappable_compute_fraction * compute_seconds;
  const double hideable = p.overlappable_comm_fraction * comm.seconds;
  o.hidden_seconds = std::min(hideable, o.window_seconds);
  o.exposed_seconds = comm.seconds - o.hidden_seconds;
  o.step_seconds = compute_seconds + o.exposed_seconds;
  return o;
}

}  // namespace vpic::gpusim
