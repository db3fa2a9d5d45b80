// core/module.cpp — StepComposer composition mechanics (docs/MODULES.md).

#include "core/module.hpp"

#include <algorithm>

namespace vpic::core {

void StepComposer::add(StepPhase p) {
  for (const auto& r : p.reads) resources_.insert(r);
  for (const auto& r : p.writes) resources_.insert(r);
  g_.add_phase(std::move(p));
}

void StepComposer::add_spine(StepPhase p) {
  const std::string name = p.name;
  add_branch(std::move(p));
  pending_.clear();
  tail_ = name;
}

void StepComposer::add_branch(StepPhase p) {
  const std::string name = p.name;
  add(std::move(p));
  if (!tail_.empty()) g_.add_edge(tail_, name);
  for (const auto& j : pending_)
    if (j != tail_) g_.add_edge(j, name);
}

void StepComposer::edge(const std::string& before, const std::string& after) {
  g_.add_edge(before, after);
}

void StepComposer::join(std::string phase) {
  if (std::find(pending_.begin(), pending_.end(), phase) == pending_.end())
    pending_.push_back(std::move(phase));
}

}  // namespace vpic::core
