// core/particle_store.hpp
//
// Particle storage: one pk::View<Particle, 1> of VPIC's packed 32-byte
// record, the layout every deck, example and paper figure runs
// (docs/LAYOUT.md). The record is also the checkpoint's particle stream.
//
// Hot-path kernels take the store's ParticleAccessor, a plain pointer with
// inlineable scalar load/store/cell and a W-wide block load that
// reconstitutes SoA registers from the records with an 8x8 register
// transpose.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "pk/pk.hpp"
#include "simd/transpose.hpp"
#include "simd/vec.hpp"

namespace vpic::core {

using pk::index_t;

struct Particle {
  float dx, dy, dz;   // cell-local position in [-1, 1]
  std::int32_t i;     // voxel index
  float ux, uy, uz;   // normalized momentum (gamma * v / c)
  float w;            // statistical weight
};
static_assert(sizeof(Particle) == 32);

/// Field count / indices of the record reinterpreted as float[8] (the
/// member order above).
inline constexpr int kParticleFields = 8;
inline constexpr int kFieldDx = 0, kFieldDy = 1, kFieldDz = 2, kFieldCell = 3,
                     kFieldUx = 4, kFieldUy = 5, kFieldUz = 6, kFieldW = 7;

/// W particles' worth of fields in SoA registers: what every vector push
/// kernel actually wants.
template <int W>
struct ParticleVecs {
  simd::simd<float, W> dx, dy, dz, ux, uy, uz, w;
  std::int32_t cell[W];
};

/// What kernels read and write particles through. A plain pointer, cheap
/// to copy into kernels, with no View indirection on the hot path.
struct ParticleAccessor {
  Particle* p = nullptr;

  PK_INLINE Particle load(index_t n) const noexcept { return p[n]; }
  PK_INLINE void store(index_t n, const Particle& q) const noexcept {
    p[n] = q;
  }
  PK_INLINE std::int32_t cell(index_t n) const noexcept { return p[n].i; }

  /// Records -> SoA registers: W particles x 8 fields via register
  /// transpose (the seed's load path). Any n0, aligned or not.
  template <int W>
  PK_INLINE ParticleVecs<W> load_vecs(index_t n0) const noexcept {
    static_assert(W == kParticleFields, "the transpose tile must be square");
    auto rows = simd::load_transpose<float, W>(
        reinterpret_cast<const float*>(p + n0), kParticleFields);
    ParticleVecs<W> v;
    v.dx = rows[kFieldDx];
    v.dy = rows[kFieldDy];
    v.dz = rows[kFieldDz];
    v.ux = rows[kFieldUx];
    v.uy = rows[kFieldUy];
    v.uz = rows[kFieldUz];
    v.w = rows[kFieldW];
    alignas(64) float tmp[W];
    rows[kFieldCell].store(tmp);
    std::memcpy(v.cell, tmp, sizeof(v.cell));
    return v;
  }
};

class ParticleStore {
 public:
  ParticleStore() = default;

  ParticleStore(std::string label, index_t capacity)
      : label_(std::move(label)), v_(label_, capacity) {}

  [[nodiscard]] const std::string& label() const noexcept { return label_; }

  /// Capacity in particles.
  [[nodiscard]] index_t size() const noexcept { return v_.size(); }
  [[nodiscard]] bool allocated() const noexcept { return v_.allocated(); }

  PK_INLINE Particle& operator()(index_t n) const noexcept { return v_(n); }
  [[nodiscard]] Particle* data() const noexcept { return v_.data(); }
  [[nodiscard]] const pk::View<Particle, 1>& view() const noexcept {
    return v_;
  }

  [[nodiscard]] PK_INLINE Particle get(index_t n) const noexcept {
    return v_(n);
  }
  PK_INLINE void set(index_t n, const Particle& q) const noexcept {
    v_(n) = q;
  }
  [[nodiscard]] PK_INLINE std::int32_t cell(index_t n) const noexcept {
    return v_(n).i;
  }
  PK_INLINE void set_cell(index_t n, std::int32_t ci) const noexcept {
    v_(n).i = ci;
  }

  [[nodiscard]] ParticleAccessor accessor() const noexcept {
    return ParticleAccessor{v_.data()};
  }

 private:
  std::string label_;
  pk::View<Particle, 1> v_;
};

/// Calls `f` with the store's accessor. Read by nothing in the engine:
/// bench/anatomy/step_anatomy.cpp calls it, and that benchmark stays
/// unedited until ROADMAP item 1 drops the call.
template <class F>
decltype(auto) dispatch_layout(const ParticleStore& s, F&& f) {
  return f(s.accessor());
}

}  // namespace vpic::core
