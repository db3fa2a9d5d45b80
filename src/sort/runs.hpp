// sort/runs.hpp
//
// Run segmentation over cell-keyed sequences: the bridge between the
// sorting library (which produces cell-sorted particle arrays) and the
// run-aware particle push (which exploits them, docs/PUSH.md). A "run" is
// a maximal range of consecutive slots sharing one cell key; after a
// Standard-order sort every cell's particles form exactly one run, so the
// push can hoist the cell's interpolator gather and batch its current
// deposit once per run instead of once per particle.
//
// Segmentation is order-agnostic: on unsorted input it simply yields many
// short runs (worst case: length-1 runs on alternating keys), so a
// consumer is always correct and only *fast* when the input is sorted.
// The push takes its run-aware path only on a species in exact cell order
// (core/push.hpp); cell_sorted_exact is the test/bench-time oracle for
// that order.
#pragma once

#include <cstdint>
#include <vector>

#include "pk/pk.hpp"
#include "sort/order_checks.hpp"

namespace vpic::sort {

using pk::index_t;

/// One maximal range of equal cell keys: particles [begin, begin+count).
struct CellRun {
  std::int32_t cell;
  index_t begin;
  index_t count;
};

/// Walk [0, n) yielding maximal equal-key runs, in slot order.
/// KeyFn: index_t -> key (any equality-comparable integer type);
/// Fn: (key, begin, count).
template <class KeyFn, class Fn>
void for_each_run(index_t n, KeyFn&& key, Fn&& fn) {
  index_t begin = 0;
  while (begin < n) {
    const auto k = key(begin);
    index_t end = begin + 1;
    while (end < n && key(end) == k) ++end;
    fn(k, begin, end - begin);
    begin = end;
  }
}

/// Materialize the runs of [0, n) into `out` (cleared first; capacity is
/// reused, so a persistent buffer makes steady-state segmentation
/// allocation-free once grown).
template <class KeyFn>
void segment_runs(index_t n, KeyFn&& key, std::vector<CellRun>& out) {
  out.clear();
  for_each_run(n, key, [&out](auto k, index_t begin, index_t count) {
    out.push_back(CellRun{static_cast<std::int32_t>(k), begin, count});
  });
}

/// Full-certainty sortedness check on materialized keys — delegates to the
/// order_checks predicate the property tests use.
template <class K>
bool cell_sorted_exact(const pk::View<K, 1>& keys) {
  return is_sorted_ascending(keys);
}

}  // namespace vpic::sort
