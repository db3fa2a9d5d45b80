#include "core/step_graph.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <exception>
#include <mutex>
#include <stdexcept>

#include "prof/prof.hpp"

namespace vpic::core {

namespace {

bool intersects(const std::vector<std::string>& a,
                const std::vector<std::string>& b, std::string* which) {
  for (const auto& x : a)
    for (const auto& y : b)
      if (x == y) {
        if (which) *which = x;
        return true;
      }
  return false;
}

}  // namespace

std::size_t StepGraph::add_phase(StepPhase phase) {
  if (phase.name.empty())
    throw std::invalid_argument("StepGraph: phase name must be non-empty");
  if (by_name_.contains(phase.name))
    throw std::invalid_argument("StepGraph: duplicate phase name '" +
                                phase.name + "'");
  const std::size_t id = nodes_.size();
  by_name_.emplace(phase.name, id);
  nodes_.push_back({std::move(phase), {}, {}});
  validated_ = false;
  return id;
}

void StepGraph::add_edge(std::string_view before, std::string_view after) {
  const auto b = by_name_.find(before);
  const auto a = by_name_.find(after);
  if (b == by_name_.end() || a == by_name_.end())
    throw std::invalid_argument(
        "StepGraph: add_edge on unknown phase '" +
        std::string(b == by_name_.end() ? before : after) + "'");
  if (b->second == a->second)
    throw std::invalid_argument("StepGraph: self-edge on phase '" +
                                std::string(before) + "'");
  nodes_[b->second].succ.push_back(a->second);
  nodes_[a->second].pred.push_back(b->second);
  validated_ = false;
}

std::vector<std::vector<bool>> StepGraph::reachability() const {
  const std::size_t n = nodes_.size();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  // DFS from each node; graphs here are tens of phases, O(n^2) is free.
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<std::size_t> stack{s};
    while (!stack.empty()) {
      const std::size_t u = stack.back();
      stack.pop_back();
      for (std::size_t v : nodes_[u].succ)
        if (!reach[s][v]) {
          reach[s][v] = true;
          stack.push_back(v);
        }
    }
  }
  return reach;
}

void StepGraph::validate() const {
  if (validated_) return;
  const std::size_t n = nodes_.size();

  // Cycle check: Kahn's algorithm.
  std::vector<std::size_t> indeg(n, 0);
  for (const Node& node : nodes_)
    for (std::size_t v : node.succ) ++indeg[v];
  std::deque<std::size_t> ready;
  for (std::size_t i = 0; i < n; ++i)
    if (indeg[i] == 0) ready.push_back(i);
  std::size_t processed = 0;
  while (!ready.empty()) {
    const std::size_t u = ready.front();
    ready.pop_front();
    ++processed;
    for (std::size_t v : nodes_[u].succ)
      if (--indeg[v] == 0) ready.push_back(v);
  }
  if (processed != n) {
    for (std::size_t i = 0; i < n; ++i)
      if (indeg[i] != 0)
        throw std::logic_error("StepGraph: cycle through phase '" +
                               nodes_[i].phase.name + "'");
  }

  // Conflict check: every conflicting pair must be ordered by a path.
  const auto reach = reachability();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (reach[i][j] || reach[j][i]) continue;  // ordered: safe
      const StepPhase& a = nodes_[i].phase;
      const StepPhase& b = nodes_[j].phase;
      std::string res;
      const char* kind = nullptr;
      if (intersects(a.writes, b.writes, &res))
        kind = "write-write";
      else if (intersects(a.writes, b.reads, &res) ||
               intersects(a.reads, b.writes, &res))
        kind = "read-write";
      if (kind)
        throw std::logic_error("StepGraph: unordered " + std::string(kind) +
                               " conflict between phases '" + a.name +
                               "' and '" + b.name + "' on resource '" + res +
                               "' (add an edge to order them)");
    }
  }
  validated_ = true;
}

void StepGraph::execute_serial() {
  validate();
  const std::size_t n = nodes_.size();
  stats_.assign(n, PhaseStats{});
  concurrency_peak_ = n ? 1 : 0;
  // Insertion order is the serial reference sequence (drivers add phases
  // in that order). validate() has already proven acyclicity; here we
  // additionally require the insertion order to respect every edge so
  // the serial order is *the* reference order, not merely *a* valid one.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t v : nodes_[i].succ)
      if (v < i)
        throw std::logic_error(
            "StepGraph: execute_serial requires phases added in serial "
            "order, but edge '" +
            nodes_[i].phase.name + "' -> '" + nodes_[v].phase.name +
            "' points backwards");
  for (std::size_t i = 0; i < n; ++i) {
    stats_[i].name = nodes_[i].phase.name;
    stats_[i].instance_id = 0;
    const auto t0 = std::chrono::steady_clock::now();
    {
      prof::ScopedRegion region(nodes_[i].phase.name.c_str());
      nodes_[i].phase.fn();
    }
    stats_[i].seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  }
}

pk::StealStats StepGraph::execute_stealing(pk::StealPool& pool) {
  validate();
  const std::size_t n = nodes_.size();
  stats_.assign(n, PhaseStats{});
  for (std::size_t i = 0; i < n; ++i) stats_[i].name = nodes_[i].phase.name;
  concurrency_peak_ = 0;
  if (n == 0) return pool.run();  // empty round: still resets stats

  std::mutex mu;
  std::vector<std::size_t> indeg(n, 0);
  for (const Node& node : nodes_)
    for (std::size_t v : node.succ) ++indeg[v];
  std::size_t in_flight = 0;
  std::exception_ptr error;
  // Expected load placed on each worker so far (sum of phase costs) —
  // shared by the initial seeding and every newly-ready wave, guarded by
  // `mu`.
  std::vector<double> load(static_cast<std::size_t>(pool.workers()), 0.0);
  auto lpt_place = [&](std::vector<std::size_t>& ids,
                       std::vector<std::pair<int, std::size_t>>& out) {
    // Caller holds `mu`. Longest processing time first onto the
    // least-loaded worker; id tiebreak keeps placement deterministic.
    std::sort(ids.begin(), ids.end(), [&](std::size_t a, std::size_t b) {
      const double ca = nodes_[a].phase.cost, cb = nodes_[b].phase.cost;
      return ca != cb ? ca > cb : a < b;
    });
    for (std::size_t id : ids) {
      const std::size_t w = static_cast<std::size_t>(
          std::min_element(load.begin(), load.end()) - load.begin());
      load[w] += nodes_[id].phase.cost;
      out.emplace_back(static_cast<int>(w), id);
    }
  };

  // The task body: run the phase, then (under the graph mutex) release
  // successors. A single successor continues on the completing worker's
  // own deque (depth-first, cache-warm); a wave of successors is
  // LPT-spread across deques by declared cost so the expected load
  // starts balanced and stealing only covers what the model missed.
  std::function<void(std::size_t)> run_phase = [&](std::size_t id) {
    {
      std::lock_guard lk(mu);
      if (error) return;  // poisoned round: drain without running
      ++in_flight;
      concurrency_peak_ = std::max(concurrency_peak_, in_flight);
    }
    const auto t0 = std::chrono::steady_clock::now();
    std::exception_ptr phase_error;
    try {
      prof::ScopedRegion region(nodes_[id].phase.name.c_str());
      nodes_[id].phase.fn();
    } catch (...) {
      phase_error = std::current_exception();
    }
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    std::vector<std::size_t> newly_ready;
    std::vector<std::pair<int, std::size_t>> placed;
    {
      std::lock_guard lk(mu);
      stats_[id].seconds = secs;
      stats_[id].instance_id = static_cast<std::uint32_t>(
          std::max(0, pk::StealPool::current_worker()));
      --in_flight;
      if (phase_error) {
        if (!error) error = phase_error;
      } else if (!error) {
        for (std::size_t v : nodes_[id].succ)
          if (--indeg[v] == 0) newly_ready.push_back(v);
      }
      if (newly_ready.size() > 1) lpt_place(newly_ready, placed);
    }
    if (newly_ready.size() == 1) {
      const std::size_t v = newly_ready.front();
      pool.spawn([&run_phase, v] { run_phase(v); });
    } else {
      for (auto [w, v] : placed)
        pool.seed(w, [&run_phase, v] { run_phase(v); });
    }
  };

  // LPT seeding of the initially-ready set.
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < n; ++i)
    if (indeg[i] == 0) ready.push_back(i);
  std::vector<std::pair<int, std::size_t>> placed;
  {
    std::lock_guard lk(mu);
    lpt_place(ready, placed);
  }
  for (auto [w, id] : placed)
    pool.seed(w, [&run_phase, id] { run_phase(id); });

  pk::StealStats round = pool.run();
  if (error) std::rethrow_exception(error);
  // A phase that never became ready without an error means a stalled
  // graph — impossible after validate() (acyclic), so purely defensive.
  for (std::size_t i = 0; i < n; ++i)
    if (indeg[i] != 0 && !nodes_[i].pred.empty())
      throw std::logic_error("StepGraph: phase '" + nodes_[i].phase.name +
                             "' never became ready");
  return round;
}

std::string StepGraph::dot() const {
  std::string out = "digraph step {\n  rankdir=LR;\n";
  for (const Node& node : nodes_) {
    out += "  \"" + node.phase.name + "\";\n";
    for (std::size_t v : node.succ)
      out += "  \"" + node.phase.name + "\" -> \"" + nodes_[v].phase.name +
             "\";\n";
  }
  out += "}\n";
  return out;
}

}  // namespace vpic::core
