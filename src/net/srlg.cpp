#include "net/srlg.h"

#include <stdexcept>

namespace prete::net {

SrlgMap srlg_from_groups(int num_fibers,
                         const std::vector<std::vector<FiberId>>& groups) {
  if (num_fibers < 0) {
    throw std::invalid_argument("srlg_from_groups: negative fiber count");
  }
  SrlgMap map;
  map.group_of.assign(static_cast<std::size_t>(num_fibers), -1);
  for (const auto& group : groups) {
    if (group.empty()) {
      throw std::invalid_argument("srlg_from_groups: empty group");
    }
    map.members.emplace_back();
    for (FiberId f : group) {
      if (f < 0 || f >= num_fibers) {
        throw std::invalid_argument("srlg_from_groups: fiber out of range");
      }
      if (map.group_of[static_cast<std::size_t>(f)] >= 0) {
        throw std::invalid_argument(
            "srlg_from_groups: fiber in more than one group");
      }
      map.group_of[static_cast<std::size_t>(f)] = map.num_groups;
      map.members.back().push_back(f);
    }
    ++map.num_groups;
  }
  for (FiberId f = 0; f < num_fibers; ++f) {
    if (map.group_of[static_cast<std::size_t>(f)] < 0) {
      map.group_of[static_cast<std::size_t>(f)] = map.num_groups++;
      map.members.push_back({f});
    }
  }
  return map;
}

std::vector<double> group_probabilities(const SrlgMap& map,
                                        const std::vector<double>& fiber_probs) {
  if (fiber_probs.size() != map.group_of.size()) {
    throw std::invalid_argument("fiber probability vector size mismatch");
  }
  std::vector<double> out(static_cast<std::size_t>(map.num_groups), 0.0);
  for (int g = 0; g < map.num_groups; ++g) {
    double none = 1.0;
    for (FiberId f : map.members[static_cast<std::size_t>(g)]) {
      none *= 1.0 - fiber_probs[static_cast<std::size_t>(f)];
    }
    out[static_cast<std::size_t>(g)] = 1.0 - none;
  }
  return out;
}

}  // namespace prete::net
