// sort/dispatch_model.hpp
//
// The counting-vs-radix dispatch cost model, as data: one inequality whose
// two coefficients were measured on the reference host (docs/SORTING.md,
// docs/LAYOUT.md "Dispatch constants"). The View-level sort_by_key and
// the particle sort (core::sort_particles) each have their own budget:
// their counting passes move different records and cross over at
// different histogram sizes. Header-only and pk-only so the sort library
// and the engine share the models with no layering cycle.
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

/// The View-level sort_by_key's model, process-wide: it reads it on
/// every dispatch, and bench/layout_dispatch.cpp pins it to each side of
/// the crossover to time both backends.
inline SortDispatchModel& active_sort_model() noexcept {
  static SortDispatchModel model = {};
  return model;
}

/// The particle sort's budget: its counting pass scatters whole particle
/// records keyed by the voxel read in place. On 32^3-48^3 LPI decks
/// (bench/layout_dispatch) it beat radix at every ppc from 2 to 16 at 1
/// and 4 threads, (nthreads + 1) * nv / n <= 4.8; the median
/// counting/radix time ratio reached 0.97 at 7.5-7.7 and 1.13 at 9.4-9.7
/// (ppc 1 at 3 and 4 threads). The crossover, with its spread, is in
/// docs/SORTING.md.
inline constexpr SortDispatchModel kParticleSortModel{
    8.0, SortDispatchModel{}.cells_floor};

/// The particle sort's model, process-wide: core::sort_particles reads it
/// on every dispatch, and bench/layout_dispatch.cpp pins it to each side
/// of the crossover to time both backends.
inline SortDispatchModel& particle_sort_model() noexcept {
  static SortDispatchModel model = kParticleSortModel;
  return model;
}

}  // namespace vpic::sort
