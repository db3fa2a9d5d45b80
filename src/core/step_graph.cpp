#include "core/step_graph.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
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
  nodes_.push_back({std::move(phase), {}});
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
  validated_ = false;
}

std::vector<std::vector<std::size_t>> StepGraph::levels() const {
  // Kahn's algorithm: a phase is processed once all its predecessors are,
  // so its level is final by then.
  const std::size_t n = nodes_.size();
  std::vector<std::size_t> indeg(n, 0), level(n, 0);
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
    for (std::size_t v : nodes_[u].succ) {
      level[v] = std::max(level[v], level[u] + 1);
      if (--indeg[v] == 0) ready.push_back(v);
    }
  }
  if (processed != n) {
    for (std::size_t i = 0; i < n; ++i)
      if (indeg[i] != 0)
        throw std::logic_error("StepGraph: cycle through phase '" +
                               nodes_[i].phase.name + "'");
  }
  std::vector<std::vector<std::size_t>> out;
  for (std::size_t i = 0; i < n; ++i) {
    if (level[i] >= out.size()) out.resize(level[i] + 1);
    out[level[i]].push_back(i);
  }
  return out;
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
  levels_ = levels();  // the cycle check

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

void StepGraph::execute() {
  validate();
  stats_.assign(nodes_.size(), PhaseStats{});
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    stats_[i].name = nodes_[i].phase.name;
  for (const std::vector<std::size_t>& level : levels_)
    for (const std::size_t id : level) {
      const auto t0 = std::chrono::steady_clock::now();
      {
        prof::ScopedRegion region(nodes_[id].phase.name.c_str());
        nodes_[id].phase.fn();
      }
      stats_[id].seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    }
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
