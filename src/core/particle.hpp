// core/particle.hpp
//
// Particle storage. A species keeps its particles as VPIC's 32-byte
// records (dx, dy, dz, voxel, ux, uy, uz, w) in a ParticleStore
// (core/particle_store.hpp).
//
// A Species also carries the one sortedness hint the push dispatches on
// (docs/PUSH.md) — untiled over the whole array, tiled per tile range,
// every tile reading the same hint — and, under the tiled step, the
// tiles' index ranges (TileSlot, docs/TILES.md), which a tiled
// checkpoint stores and a tiled restore adopts. Once Standard-sorted, a
// species is put back in exact cell order after every push.
//
// The sort reorders a species through a SortScratch (its workspace and a
// spare particle buffer to swap with `p`). A Simulation points every
// species it adds at its one scratch, since its sorts run one after
// another; a standalone species makes a private one on first use.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/grid.hpp"
#include "core/particle_store.hpp"
#include "pk/pk.hpp"
#include "sort/workspace.hpp"

namespace vpic::core {

/// Per-tile slice of a species under the tile decomposition
/// (core/tiles.hpp): the contiguous index range the tile owns. A tile
/// dispatches its push off the species' sortedness hint and its own
/// range's size; it keeps no sortedness of its own.
struct TileSlot {
  index_t begin = 0, end = 0;  // [begin, end) into the particle array

  [[nodiscard]] index_t count() const noexcept { return end - begin; }
};

/// What the sort reorders through (core/sort_particles.hpp,
/// docs/SORTING.md): the SortWorkspace, whose buffers each sort path sizes
/// on first use and grows geometrically, and the spare particle buffers a
/// reorder writes into before swapping with the species' store
/// (ping-pong). One scratch serves every species of a Simulation, whose
/// sorts run one after another (each sort phase writes "sort.scratch").
/// It keeps one spare per distinct capacity among them, so no species
/// takes a buffer of another capacity and steady-state sorting allocates
/// nothing at any mix of capacities.
struct SortScratch {
  sort::SortWorkspace ws;

  /// The spare matching `p`'s capacity, allocated on first use. The
  /// reference stays valid until `spares` next changes.
  ParticleStore& spare_for(const ParticleStore& p) {
    for (ParticleStore& s : spares)
      if (s.size() == p.size()) return s;
    return spares.emplace_back("sort_spare", p.size());
  }

  std::vector<ParticleStore> spares;
};

struct Species {
  std::string name;
  float q = -1.0f;  // charge (electron = -1 in normalized units)
  float m = 1.0f;   // mass
  ParticleStore p;
  index_t np = 0;  // live particle count (p may be larger)

  // The scratch this species sorts through: its Simulation's, shared with
  // every other species it adds, or null until a standalone species' first
  // sort makes a private one (sort_scratch()).
  std::shared_ptr<SortScratch> scratch;

  // Sortedness tracking for the run-aware push fast path (docs/PUSH.md):
  // sort_particles(Standard) marks the array cell-sorted, and from then on
  // each step re-sorts the species after its push (advance_species, the
  // tiled step's re-sort phase) or, on a rank, before it
  // (core/domain.hpp), so the hint is fresh at every push. A push no sort
  // follows (one that left exit tombstones, a rank's, whose exchange
  // then appends) ages the hint instead, tracked by steps_since_sort.
  // The hint with steps_since_sort == 0 promises exact Standard order
  // (exact_cell_order): the push takes its run-aware path on that alone
  // — untiled over the whole array, tiled per tile range (the tiles share
  // this one hint), on a rank per side of the boundary plane — and the
  // tiled re-bucket (core/tiles.hpp) and the ranks' boundary split take
  // their ranges from it unchecked.
  bool cell_sorted_hint = false;
  int steps_since_sort = -1;  // -1: never cell-sorted

  // Tile decomposition state (core/tiles.hpp): one slot per tile with the
  // owned index range. Empty when untiled.
  std::vector<TileSlot> tiles;

  /// Called by sort_particles after a reorder: Standard order is the
  /// cell-sorted order the run-aware push exploits; any other order
  /// invalidates the hint.
  void mark_sorted(bool cell_sorted) noexcept {
    cell_sorted_hint = cell_sorted;
    steps_since_sort = cell_sorted ? 0 : -1;
  }

  /// True when the array is in exact Standard (cell) order: sorted, and
  /// not pushed or appended to since.
  [[nodiscard]] bool exact_cell_order() const noexcept {
    return cell_sorted_hint && steps_since_sort == 0;
  }

  /// Called after a push that no sort follows, and after an append:
  /// ordering decays as particles cross cells, so the hint ages.
  void mark_order_degraded() noexcept {
    if (steps_since_sort >= 0 &&
        steps_since_sort < std::numeric_limits<int>::max())
      ++steps_since_sort;
  }

  Species() = default;
  Species(std::string name_, float q_, float m_, index_t capacity)
      : name(std::move(name_)),
        q(q_),
        m(m_),
        p("particles_" + name, capacity) {}

  [[nodiscard]] index_t capacity() const noexcept { return p.size(); }

  /// The scratch this species sorts through, made private on first use
  /// when no Simulation shares one with it.
  SortScratch& sort_scratch() {
    if (!scratch) scratch = std::make_shared<SortScratch>();
    return *scratch;
  }

  /// The workspace of that scratch: key, permutation and histogram
  /// buffers, each sized by the sort path that reads it.
  sort::SortWorkspace& sort_ws() { return sort_scratch().ws; }

  /// Kinetic energy sum( w * m c^2 (gamma - 1) ).
  [[nodiscard]] double kinetic_energy() const {
    double total = 0;
    const float mass = m;
    const ParticleAccessor a = p.accessor();
    pk::parallel_reduce(
        pk::RangePolicy<>(np),
        [a, mass](index_t idx, double& acc) {
          const Particle part = a.load(idx);
          const double u2 = static_cast<double>(part.ux) * part.ux +
                            static_cast<double>(part.uy) * part.uy +
                            static_cast<double>(part.uz) * part.uz;
          const double gamma = std::sqrt(1.0 + u2);
          acc += static_cast<double>(part.w) * mass * (gamma - 1.0);
        },
        total);
    return total;
  }

  /// Write the voxel indices (the sorting keys) of the live particles into
  /// the first `np` entries of caller-provided storage. Allocation-free.
  void cell_keys(pk::View<std::uint32_t, 1>& out) const {
    assert(out.size() >= np);
    std::uint32_t* k = out.data();
    const ParticleAccessor a = p.accessor();
    pk::parallel_for(np, [=](index_t idx) {
      k[idx] = static_cast<std::uint32_t>(a.cell(idx));
    });
  }

  /// Allocating convenience overload of the above.
  [[nodiscard]] pk::View<std::uint32_t, 1> cell_keys() const {
    pk::View<std::uint32_t, 1> keys("cell_keys", np);
    cell_keys(keys);
    return keys;
  }
};

}  // namespace vpic::core
