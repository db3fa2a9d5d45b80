// sort/dispatch_model.hpp
//
// The counting-vs-radix dispatch cost model, as data: one inequality whose
// two coefficients were measured on the reference host (docs/SORTING.md,
// docs/LAYOUT.md "Dispatch constants"). Header-only and pk-only so both
// the sort library and the engine share one model with no layering cycle.
#pragma once

#include <algorithm>
#include <cstdint>

#include "pk/layout.hpp"

namespace vpic::sort {

using pk::index_t;

/// Cost model for the counting-vs-radix sort dispatch: counting sort is
/// expected to win when the histogram work, (nthreads + 1) * key_bound
/// cells, stays within max(n * cells_per_n, cells_floor). The defaults
/// are the measured crossover: one histogram cell per particle, with a
/// 2^17-cell floor below which the radix passes cost more whatever n is.
struct SortDispatchModel {
  double cells_per_n = 1.0;
  double cells_floor = static_cast<double>(index_t{1} << 17);

  [[nodiscard]] bool counting_applicable(index_t n, std::uint64_t key_bound,
                                         int nthreads) const noexcept {
    const double cells =
        static_cast<double>(nthreads + 1) * static_cast<double>(key_bound);
    const double budget =
        std::max(static_cast<double>(n) * cells_per_n, cells_floor);
    return cells <= budget;
  }
};

/// Process-wide active model. sort_by_key and core::sort_particles read
/// it on every dispatch; bench/layout_dispatch.cpp pins it to each side of
/// the crossover to time both sort backends.
inline SortDispatchModel& active_sort_model() noexcept {
  static SortDispatchModel model = {};
  return model;
}

}  // namespace vpic::sort
