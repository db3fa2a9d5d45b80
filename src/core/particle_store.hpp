// core/particle_store.hpp
//
// Layout-polymorphic particle storage. A ParticleStore is the same logical
// (particle, field) array under one of two physical layouts
// (core/particle_layout.hpp), both plain strided pk::Views:
//
//  * AoS — pk::View<Particle, 1>: the seed's packed 32-byte record; the
//          manual push kernel reconstitutes SoA registers from it with an
//          8x8 register transpose.
//  * SoA — pk::View<float, 2, LayoutLeft> (particle, field): one dense
//          plane per field, loaded straight into registers.
//
// The voxel index (field 3) is an int32 stored in a float plane for SoA;
// every access goes through std::memcpy (compiles to a plain mov) so no
// float load ever touches the integer bit pattern — the same
// strict-aliasing discipline the manual kernels already use.
//
// Hot-path kernels never switch per element: dispatch_layout() switches
// ONCE per kernel invocation and hands the kernel a typed accessor
// (AosAccessor / SoaAccessor) with inlineable scalar load/store/cell and
// a W-wide vector block load. Kernels are written once against the
// accessor concept and instantiated once per layout.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "core/particle_layout.hpp"
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

/// Field count / indices of the logical record; identical across layouts
/// (and identical to the AoS member order, so an AoS record reinterpreted
/// as float[8] indexes the same way).
inline constexpr int kParticleFields = 8;
inline constexpr int kFieldDx = 0, kFieldDy = 1, kFieldDz = 2, kFieldCell = 3,
                     kFieldUx = 4, kFieldUy = 5, kFieldUz = 6, kFieldW = 7;

/// W particles' worth of fields in SoA registers: what every vector push
/// kernel actually wants, regardless of where the lanes came from.
template <int W>
struct ParticleVecs {
  simd::simd<float, W> dx, dy, dz, ux, uy, uz, w;
  std::int32_t cell[W];
};

// ---------------------------------------------------------------------------
// Accessors. Plain pointer bundles — cheap to copy into kernels, no View
// indirection on the hot path.
// ---------------------------------------------------------------------------

struct AosAccessor {
  static constexpr ParticleLayout layout = ParticleLayout::AoS;
  Particle* p = nullptr;

  PK_INLINE Particle load(index_t n) const noexcept { return p[n]; }
  PK_INLINE void store(index_t n, const Particle& q) const noexcept {
    p[n] = q;
  }
  PK_INLINE std::int32_t cell(index_t n) const noexcept { return p[n].i; }

  /// AoS -> SoA in registers: W particles x 8 fields via register
  /// transpose (the seed's load path).
  template <int W>
  PK_INLINE ParticleVecs<W> load_vecs(index_t n0) const noexcept {
    static_assert(W == kParticleFields, "AoS transpose tile must be square");
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

struct SoaAccessor {
  static constexpr ParticleLayout layout = ParticleLayout::SoA;
  float* base = nullptr;  // plane f starts at base + f * cap
  index_t cap = 0;

  PK_INLINE float* plane(int f) const noexcept { return base + f * cap; }

  PK_INLINE Particle load(index_t n) const noexcept {
    Particle q;
    q.dx = plane(kFieldDx)[n];
    q.dy = plane(kFieldDy)[n];
    q.dz = plane(kFieldDz)[n];
    std::memcpy(&q.i, plane(kFieldCell) + n, sizeof(q.i));
    q.ux = plane(kFieldUx)[n];
    q.uy = plane(kFieldUy)[n];
    q.uz = plane(kFieldUz)[n];
    q.w = plane(kFieldW)[n];
    return q;
  }
  PK_INLINE void store(index_t n, const Particle& q) const noexcept {
    plane(kFieldDx)[n] = q.dx;
    plane(kFieldDy)[n] = q.dy;
    plane(kFieldDz)[n] = q.dz;
    std::memcpy(plane(kFieldCell) + n, &q.i, sizeof(q.i));
    plane(kFieldUx)[n] = q.ux;
    plane(kFieldUy)[n] = q.uy;
    plane(kFieldUz)[n] = q.uz;
    plane(kFieldW)[n] = q.w;
  }
  PK_INLINE std::int32_t cell(index_t n) const noexcept {
    std::int32_t ci;
    std::memcpy(&ci, plane(kFieldCell) + n, sizeof(ci));
    return ci;
  }

  /// Dense plane loads — no transpose at all.
  template <int W>
  PK_INLINE ParticleVecs<W> load_vecs(index_t n0) const noexcept {
    using F = simd::simd<float, W>;
    ParticleVecs<W> v;
    v.dx = F::load(plane(kFieldDx) + n0);
    v.dy = F::load(plane(kFieldDy) + n0);
    v.dz = F::load(plane(kFieldDz) + n0);
    v.ux = F::load(plane(kFieldUx) + n0);
    v.uy = F::load(plane(kFieldUy) + n0);
    v.uz = F::load(plane(kFieldUz) + n0);
    v.w = F::load(plane(kFieldW) + n0);
    std::memcpy(v.cell, plane(kFieldCell) + n0, sizeof(v.cell));
    return v;
  }
};

// ---------------------------------------------------------------------------
// ParticleStore
// ---------------------------------------------------------------------------

class ParticleStore {
 public:
  ParticleStore() = default;

  ParticleStore(std::string label, index_t capacity,
                ParticleLayout layout = ParticleLayout::AoS)
      : layout_(layout), label_(std::move(label)) {
    switch (layout_) {
      case ParticleLayout::AoS:
        aos_ = pk::View<Particle, 1>(label_, capacity);
        break;
      case ParticleLayout::SoA:
        soa_ = pk::View<float, 2, pk::LayoutLeft>(label_, capacity,
                                                  index_t{kParticleFields});
        break;
    }
  }

  [[nodiscard]] ParticleLayout layout() const noexcept { return layout_; }
  [[nodiscard]] const std::string& label() const noexcept { return label_; }

  /// Capacity in particles (the old `View<Particle,1>::size()`).
  [[nodiscard]] index_t size() const noexcept {
    switch (layout_) {
      case ParticleLayout::AoS:
        return aos_.size();
      case ParticleLayout::SoA:
        return soa_.extent(0);
    }
    return 0;
  }

  [[nodiscard]] bool allocated() const noexcept {
    switch (layout_) {
      case ParticleLayout::AoS:
        return aos_.allocated();
      case ParticleLayout::SoA:
        return soa_.allocated();
    }
    return false;
  }

  // --- AoS-only direct record access (the seed API; every pre-layout call
  // site compiles unchanged, and asserts it is not silently applied to a
  // non-AoS store). -------------------------------------------------------

  PK_INLINE Particle& operator()(index_t n) const noexcept {
    assert(layout_ == ParticleLayout::AoS &&
           "direct Particle& access requires the AoS layout; use "
           "get()/set() or dispatch_layout()");
    return aos_(n);
  }

  [[nodiscard]] Particle* data() const noexcept {
    assert(layout_ == ParticleLayout::AoS);
    return aos_.data();
  }

  [[nodiscard]] pk::View<Particle, 1>& aos_view() noexcept {
    assert(layout_ == ParticleLayout::AoS);
    return aos_;
  }
  [[nodiscard]] const pk::View<Particle, 1>& aos_view() const noexcept {
    assert(layout_ == ParticleLayout::AoS);
    return aos_;
  }

  // --- Layout-generic element access (cold paths: loaders, diagnostics,
  // exchange append; hot kernels use the typed accessors). ----------------

  [[nodiscard]] PK_INLINE Particle get(index_t n) const noexcept {
    switch (layout_) {
      case ParticleLayout::AoS:
        return aos_(n);
      case ParticleLayout::SoA:
        return soa_accessor().load(n);
    }
    return Particle{};
  }

  PK_INLINE void set(index_t n, const Particle& q) const noexcept {
    switch (layout_) {
      case ParticleLayout::AoS:
        aos_(n) = q;
        return;
      case ParticleLayout::SoA:
        soa_accessor().store(n, q);
        return;
    }
  }

  [[nodiscard]] PK_INLINE std::int32_t cell(index_t n) const noexcept {
    switch (layout_) {
      case ParticleLayout::AoS:
        return aos_(n).i;
      case ParticleLayout::SoA:
        return soa_accessor().cell(n);
    }
    return -1;
  }

  PK_INLINE void set_cell(index_t n, std::int32_t ci) const noexcept {
    switch (layout_) {
      case ParticleLayout::AoS:
        aos_(n).i = ci;
        return;
      case ParticleLayout::SoA:
        std::memcpy(soa_accessor().plane(kFieldCell) + n, &ci, sizeof(ci));
        return;
    }
  }

  // --- Typed accessors (hot-path; only valid for the matching layout). ---

  [[nodiscard]] AosAccessor aos_accessor() const noexcept {
    assert(layout_ == ParticleLayout::AoS);
    return AosAccessor{aos_.data()};
  }
  [[nodiscard]] SoaAccessor soa_accessor() const noexcept {
    assert(layout_ == ParticleLayout::SoA);
    return SoaAccessor{soa_.data(), soa_.extent(0)};
  }

  // --- Canonical-format conversion (checkpoint serialization, layout
  // migration). The canonical particle stream is the AoS record. ----------

  void export_aos(Particle* dst, index_t count) const {
    switch (layout_) {
      case ParticleLayout::AoS:
        std::memcpy(dst, aos_.data(),
                    static_cast<std::size_t>(count) * sizeof(Particle));
        return;
      case ParticleLayout::SoA: {
        const auto a = soa_accessor();
        for (index_t n = 0; n < count; ++n) dst[n] = a.load(n);
        return;
      }
    }
  }

  void import_aos(const Particle* src, index_t count) const {
    switch (layout_) {
      case ParticleLayout::AoS:
        std::memcpy(aos_.data(), src,
                    static_cast<std::size_t>(count) * sizeof(Particle));
        return;
      case ParticleLayout::SoA: {
        const auto a = soa_accessor();
        for (index_t n = 0; n < count; ++n) a.store(n, src[n]);
        return;
      }
    }
  }

 private:
  ParticleLayout layout_ = ParticleLayout::AoS;
  std::string label_;
  pk::View<Particle, 1> aos_;
  pk::View<float, 2, pk::LayoutLeft> soa_;
};

/// Switch once per kernel invocation, handing `f` the typed accessor for
/// the store's layout. `f` is instantiated once per layout; the layout
/// branch never appears inside the particle loop.
template <class F>
decltype(auto) dispatch_layout(const ParticleStore& s, F&& f) {
  if (s.layout() == ParticleLayout::SoA) return f(s.soa_accessor());
  return f(s.aos_accessor());
}

/// Copy `count` live particles between stores of any layout pair.
inline void copy_particles(const ParticleStore& dst, const ParticleStore& src,
                           index_t count) {
  assert(dst.size() >= count && src.size() >= count);
  if (dst.layout() == ParticleLayout::AoS) {
    src.export_aos(dst.data(), count);
    return;
  }
  dispatch_layout(src, [&](auto sa) {
    dispatch_layout(dst, [&](auto da) {
      for (index_t n = 0; n < count; ++n) da.store(n, sa.load(n));
    });
  });
}

}  // namespace vpic::core
