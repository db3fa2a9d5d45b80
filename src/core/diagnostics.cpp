#include "core/diagnostics.hpp"

#include <cmath>
#include <cstdio>

namespace vpic::core {

void EnergyHistory::record(std::int64_t step, double field,
                           const std::vector<double>& species_ke) {
  steps_.push_back(step);
  field_.push_back(field);
  species_.push_back(species_ke);
}

double EnergyHistory::kinetic(std::size_t i) const {
  double k = 0;
  for (double v : species_[i]) k += v;
  return k;
}

double EnergyHistory::max_relative_drift() const {
  if (steps_.empty()) return 0;
  const double base = total(0);
  if (base == 0) return 0;
  double worst = 0;
  for (std::size_t i = 1; i < steps_.size(); ++i)
    worst = std::max(worst, std::abs(total(i) - base) / std::abs(base));
  return worst;
}

std::string EnergyHistory::to_csv() const {
  std::string out = "step,field";
  const std::size_t nsp = species_.empty() ? 0 : species_[0].size();
  for (std::size_t s = 0; s < nsp; ++s)
    out += ",ke_" + std::to_string(s);
  out += ",total\n";
  char buf[64];
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    out += std::to_string(steps_[i]);
    std::snprintf(buf, sizeof(buf), ",%.9e", field_[i]);
    out += buf;
    for (double v : species_[i]) {
      std::snprintf(buf, sizeof(buf), ",%.9e", v);
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), ",%.9e\n", total(i));
    out += buf;
  }
  return out;
}

Moments compute_moments(const Species& sp, const Grid& g) {
  Moments m{pk::View<float, 1>("density", g.nv()),
            pk::View<float, 1>("mom_ux", g.nv()),
            pk::View<float, 1>("mom_uy", g.nv()),
            pk::View<float, 1>("mom_uz", g.nv())};
  const float inv_vol = 1.0f / (g.dx * g.dy * g.dz);
  for (index_t n = 0; n < sp.np; ++n) {
    const Particle& p = sp.p(n);
    m.density(p.i) += p.w * inv_vol;
    m.ux(p.i) += p.w * p.ux;
    m.uy(p.i) += p.w * p.uy;
    m.uz(p.i) += p.w * p.uz;
  }
  // Normalize first moments to per-cell means (weight-averaged).
  pk::parallel_for(g.nv(), [&](index_t v) {
    const float w_total = m.density(v) / inv_vol;
    if (w_total > 0) {
      m.ux(v) /= w_total;
      m.uy(v) /= w_total;
      m.uz(v) /= w_total;
    }
  });
  return m;
}

std::int64_t Histogram::total() const {
  std::int64_t t = 0;
  for (auto c : counts) t += c;
  return t;
}

std::string Histogram::to_csv() const {
  std::string out = "bin_center,count\n";
  const float width =
      (hi - lo) / static_cast<float>(counts.empty() ? 1 : counts.size());
  char buf[64];
  for (std::size_t b = 0; b < counts.size(); ++b) {
    std::snprintf(buf, sizeof(buf), "%.6e,%lld\n",
                  lo + (static_cast<float>(b) + 0.5f) * width,
                  static_cast<long long>(counts[b]));
    out += buf;
  }
  return out;
}

Histogram momentum_histogram(const Species& sp, MomentumAxis axis, float lo,
                             float hi, int bins) {
  Histogram h;
  h.lo = lo;
  h.hi = hi;
  h.counts.assign(static_cast<std::size_t>(bins), 0);
  const float scale = static_cast<float>(bins) / (hi - lo);
  for (index_t n = 0; n < sp.np; ++n) {
    const Particle& p = sp.p(n);
    const float u = axis == MomentumAxis::X   ? p.ux
                    : axis == MomentumAxis::Y ? p.uy
                                              : p.uz;
    int b = static_cast<int>((u - lo) * scale);
    b = std::max(0, std::min(bins - 1, b));
    ++h.counts[static_cast<std::size_t>(b)];
  }
  return h;
}

std::string field_plane_csv(const pk::View<float, 1>& component,
                            const Grid& g, int iz) {
  std::string out = "ix,iy,value\n";
  char buf[64];
  for (int iy = 1; iy <= g.ny; ++iy)
    for (int ix = 1; ix <= g.nx; ++ix) {
      std::snprintf(buf, sizeof(buf), "%d,%d,%.6e\n", ix, iy,
                    component(g.voxel(ix, iy, iz)));
      out += buf;
    }
  return out;
}

}  // namespace vpic::core
