// pk/view.hpp
//
// pk::View — a reference-counted multidimensional array with a layout
// policy, modeled on Kokkos::View. This is the data-structure half of the
// portability layer: every array in the PIC engine, the sorting library and
// the benchmarks is a View, so layout decisions (AoS vs SoA, LayoutLeft vs
// LayoutRight) are made in one place per container and kernels stay
// layout-agnostic.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>

#include "pk/config.hpp"
#include "pk/layout.hpp"
#include "pk/prof_hooks.hpp"

namespace vpic::pk {

/// Process-wide count of View buffer allocations (allocating constructor
/// only; unmanaged wrappers and aliases don't count). Test/bench hook: the
/// zero-allocation sort pipeline asserts this stays flat across
/// steady-state sorts (tests/test_sort_pipeline.cpp, bench/sort_pipeline).
/// Delegates to the prof allocation counter so registered profiling
/// handlers (src/prof) see the same event stream this counter counts.
inline std::atomic<std::int64_t>& view_alloc_count() noexcept {
  return prof::alloc_count();
}

/// Tag types mirroring Kokkos memory spaces. This build is host-only (the
/// GPU is an analytic model, not an execution target), so both spaces
/// allocate host memory; the tag preserves API shape and documents intent.
struct HostSpace {
  static constexpr const char* name() noexcept { return "HostSpace"; }
};
struct DeviceSimSpace {
  static constexpr const char* name() noexcept { return "DeviceSimSpace"; }
};

template <class T, int Rank, class Layout = LayoutRight,
          class MemSpace = HostSpace>
class View {
  static_assert(Rank >= 1 && Rank <= 4, "pk::View supports ranks 1..4");
  static_assert(std::is_trivially_copyable_v<T>,
                "pk::View elements must be trivially copyable");

 public:
  using value_type = T;
  using layout_type = Layout;
  using memory_space = MemSpace;
  static constexpr int rank = Rank;

  View() = default;

  /// Allocating constructor. Extents are per-dimension element counts; the
  /// label is carried for diagnostics (mirrors Kokkos labels).
  template <class... Ext,
            class = std::enable_if_t<sizeof...(Ext) == std::size_t(Rank)>>
  explicit View(std::string label, Ext... exts)
      : label_(std::move(label)), ext_{static_cast<index_t>(exts)...} {
    for ([[maybe_unused]] auto e : ext_)
      assert(e >= 0 && "negative extent");
    init_map();
    T* raw = new T[static_cast<std::size_t>(size_)]();
    const auto bytes =
        static_cast<std::uint64_t>(size_) * static_cast<std::uint64_t>(sizeof(T));
    // The deleter fires the matching deallocate event when the last owner
    // releases the buffer (alloc/dealloc pairing is asserted in
    // tests/test_prof.cpp).
    data_ = std::shared_ptr<T[]>(
        raw, [label = label_, bytes](T* p) {
          prof::notify_deallocate(MemSpace::name(), label.c_str(), p, bytes);
          delete[] p;
        });
    prof::notify_allocate(MemSpace::name(), label_.c_str(), raw, bytes);
  }

  /// Unmanaged wrapper around caller-owned memory (Kokkos unmanaged views).
  template <class... Ext,
            class = std::enable_if_t<sizeof...(Ext) == std::size_t(Rank)>>
  View(T* ptr, Ext... exts)
      : label_("unmanaged"), ext_{static_cast<index_t>(exts)...} {
    init_map();
    data_ = std::shared_ptr<T[]>(ptr, [](T*) {});
  }

  [[nodiscard]] const std::string& label() const noexcept { return label_; }
  [[nodiscard]] index_t extent(int d) const noexcept {
    return ext_[static_cast<std::size_t>(d)];
  }
  [[nodiscard]] index_t stride(int d) const noexcept {
    return strides_[static_cast<std::size_t>(d)];
  }
  [[nodiscard]] index_t size() const noexcept { return size_; }
  [[nodiscard]] index_t size_bytes() const noexcept {
    return size_ * static_cast<index_t>(sizeof(T));
  }
  [[nodiscard]] T* data() const noexcept { return data_.get(); }
  [[nodiscard]] bool allocated() const noexcept {
    return static_cast<bool>(data_);
  }
  [[nodiscard]] long use_count() const noexcept { return data_.use_count(); }

  /// Shared-ownership handle (used by subview aliasing).
  [[nodiscard]] const std::shared_ptr<T[]>& data_ptr() const noexcept {
    return data_;
  }
  /// Replace the ownership handle without changing the data pointer
  /// (subview plumbing; the handle must alias the same allocation).
  void adopt_ownership(std::shared_ptr<T[]> sp) noexcept {
    data_ = std::move(sp);
  }

  template <class... Idx>
  PK_INLINE T& operator()(Idx... idx) const noexcept {
    static_assert(sizeof...(Idx) == std::size_t(Rank),
                  "index count must equal rank");
    return data_[static_cast<std::size_t>(offset(idx...))];
  }

  /// Flat element access independent of layout (for whole-array sweeps).
  PK_INLINE T& flat(index_t i) const noexcept {
    return data_[static_cast<std::size_t>(i)];
  }

  template <class... Idx>
  PK_INLINE index_t offset(Idx... idx) const noexcept {
    const std::array<index_t, Rank> ii{static_cast<index_t>(idx)...};
    for (int d = 0; d < Rank; ++d) {
      assert(ii[static_cast<std::size_t>(d)] >= 0 &&
             ii[static_cast<std::size_t>(d)] < ext_[static_cast<std::size_t>(d)] &&
             "pk::View index out of bounds");
    }
    index_t off = 0;
    for (int d = 0; d < Rank; ++d)
      off += ii[static_cast<std::size_t>(d)] *
             strides_[static_cast<std::size_t>(d)];
    return off;
  }

 private:
  void init_map() noexcept {
    size_ = 1;
    for (auto e : ext_) size_ *= e;
    strides_ = Layout::template strides<Rank>(ext_);
  }

  std::string label_;
  std::shared_ptr<T[]> data_;
  std::array<index_t, Rank> ext_{};
  std::array<index_t, Rank> strides_{};
  index_t size_ = 0;
};

/// Tag selecting a whole dimension in subview() (Kokkos::ALL).
struct AllTag {};
inline constexpr AllTag ALL{};

namespace detail {

/// Build a rank-1 view aliasing a contiguous slice of another view's
/// storage; the slice shares ownership so the parent stays alive.
template <class T, class L, class M, int RSrc>
View<T, 1, L, M> alias_slice(const View<T, RSrc, L, M>& parent,
                             index_t offset, index_t extent) {
  // Aliasing shared_ptr: same control block, shifted pointer.
  std::shared_ptr<T[]> sp(parent.data_ptr(), parent.data() + offset);
  View<T, 1, L, M> out(parent.data() + offset, extent);
  out.adopt_ownership(std::move(sp));
  return out;
}

}  // namespace detail

/// Contiguous rank-1 slice of a rank-2 view: row for LayoutRight.
/// The slice shares ownership with the parent.
template <class T, class M>
View<T, 1, LayoutRight, M> subview(const View<T, 2, LayoutRight, M>& v,
                                   index_t i, AllTag) {
  assert(i >= 0 && i < v.extent(0));
  return detail::alias_slice<T, LayoutRight, M>(v, i * v.stride(0),
                                                v.extent(1));
}

/// Contiguous rank-1 slice of a rank-2 view: column for LayoutLeft.
template <class T, class M>
View<T, 1, LayoutLeft, M> subview(const View<T, 2, LayoutLeft, M>& v,
                                  AllTag, index_t j) {
  assert(j >= 0 && j < v.extent(1));
  return detail::alias_slice<T, LayoutLeft, M>(v, j * v.stride(1),
                                               v.extent(0));
}

/// Innermost rank-1 slice of a rank-3 LayoutRight view.
template <class T, class M>
View<T, 1, LayoutRight, M> subview(const View<T, 3, LayoutRight, M>& v,
                                   index_t i, index_t j, AllTag) {
  assert(i >= 0 && i < v.extent(0) && j >= 0 && j < v.extent(1));
  return detail::alias_slice<T, LayoutRight, M>(
      v, i * v.stride(0) + j * v.stride(1), v.extent(2));
}

/// deep_copy between views of identical shape (layouts may differ).
template <class T, int R, class LD, class MD, class LS, class MS>
void deep_copy(const View<T, R, LD, MD>& dst, const View<T, R, LS, MS>& src) {
  assert(dst.size() == src.size());
  for (int d = 0; d < R; ++d) assert(dst.extent(d) == src.extent(d));
  if constexpr (std::is_same_v<LD, LS>) {
    std::memcpy(dst.data(), src.data(),
                static_cast<std::size_t>(src.size_bytes()));
  } else {
    // Transposing copy: iterate logical indices.
    if constexpr (R == 1) {
      for (index_t i = 0; i < src.extent(0); ++i) dst(i) = src(i);
    } else if constexpr (R == 2) {
      for (index_t i = 0; i < src.extent(0); ++i)
        for (index_t j = 0; j < src.extent(1); ++j) dst(i, j) = src(i, j);
    } else if constexpr (R == 3) {
      for (index_t i = 0; i < src.extent(0); ++i)
        for (index_t j = 0; j < src.extent(1); ++j)
          for (index_t k = 0; k < src.extent(2); ++k)
            dst(i, j, k) = src(i, j, k);
    } else {
      for (index_t i = 0; i < src.extent(0); ++i)
        for (index_t j = 0; j < src.extent(1); ++j)
          for (index_t k = 0; k < src.extent(2); ++k)
            for (index_t l = 0; l < src.extent(3); ++l)
              dst(i, j, k, l) = src(i, j, k, l);
    }
  }
}

/// Fill a view with a constant (mirrors Kokkos::deep_copy(view, value)).
template <class T, int R, class L, class M>
void deep_copy(const View<T, R, L, M>& dst, const T& value) {
  T* p = dst.data();
  const index_t n = dst.size();
  for (index_t i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = value;
}

/// Allocate a same-shape host copy of a view (mirror + copy).
template <class T, int R, class L, class M>
View<T, R, L, HostSpace> create_mirror_copy(const View<T, R, L, M>& src) {
  View<T, R, L, HostSpace> dst = [&] {
    if constexpr (R == 1)
      return View<T, R, L, HostSpace>(src.label() + "_mirror", src.extent(0));
    else if constexpr (R == 2)
      return View<T, R, L, HostSpace>(src.label() + "_mirror", src.extent(0),
                                      src.extent(1));
    else if constexpr (R == 3)
      return View<T, R, L, HostSpace>(src.label() + "_mirror", src.extent(0),
                                      src.extent(1), src.extent(2));
    else
      return View<T, R, L, HostSpace>(src.label() + "_mirror", src.extent(0),
                                      src.extent(1), src.extent(2),
                                      src.extent(3));
  }();
  deep_copy(dst, src);
  return dst;
}

}  // namespace vpic::pk
