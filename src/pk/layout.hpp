// pk/layout.hpp
//
// Memory layout policies for pk::View. Layout choice is one of the central
// levers the paper discusses (Section 2.3: Cabana/LLAMA-style layout
// control): LayoutRight (row-major, "C" order) is the natural CPU layout,
// LayoutLeft (column-major) is the coalescing-friendly GPU layout. Views are
// templated on the layout so kernels can be written once and instantiated
// per target, exactly as Kokkos does.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace vpic::pk {

using index_t = std::int64_t;

/// Row-major: last index is stride-1. Default host layout.
struct LayoutRight {
  static constexpr const char* name() noexcept { return "LayoutRight"; }

  template <int Rank>
  static std::array<index_t, Rank> strides(
      const std::array<index_t, Rank>& ext) noexcept {
    std::array<index_t, Rank> s{};
    index_t acc = 1;
    for (int d = Rank - 1; d >= 0; --d) {
      s[static_cast<std::size_t>(d)] = acc;
      acc *= ext[static_cast<std::size_t>(d)];
    }
    return s;
  }
};

/// Column-major: first index is stride-1. Default device layout (coalesced
/// when successive threads index the first dimension).
struct LayoutLeft {
  static constexpr const char* name() noexcept { return "LayoutLeft"; }

  template <int Rank>
  static std::array<index_t, Rank> strides(
      const std::array<index_t, Rank>& ext) noexcept {
    std::array<index_t, Rank> s{};
    index_t acc = 1;
    for (int d = 0; d < Rank; ++d) {
      s[static_cast<std::size_t>(d)] = acc;
      acc *= ext[static_cast<std::size_t>(d)];
    }
    return s;
  }
};

}  // namespace vpic::pk
