#pragma once

#include <vector>

#include "net/graph.h"

namespace prete::net {

// Shared-risk link groups: fibers routed through a common conduit (or in
// close geographical proximity) degrade and fail together. The paper folds
// such fibers into a single measurement entity (§3.1); this module models
// the grouping explicitly so failure scenarios can be generated at the risk
// group level and expanded back to fibers.
struct SrlgMap {
  // group_of[f] = risk group id of fiber f; groups are dense 0..num_groups-1.
  std::vector<int> group_of;
  int num_groups = 0;

  // Fibers belonging to a group.
  std::vector<std::vector<FiberId>> members;

  bool singleton(int group) const {
    return members[static_cast<std::size_t>(group)].size() == 1;
  }
};

// Builds a map from explicit fiber groups (conduit bundles, weather cells).
// Groups must be disjoint; fibers not listed in any group become singleton
// groups. Group ids are assigned in input order, singletons after. Throws
// std::invalid_argument on out-of-range or duplicated fibers.
SrlgMap srlg_from_groups(int num_fibers,
                         const std::vector<std::vector<FiberId>>& groups);

// Collapses per-fiber probabilities to group probabilities:
// p(group) = 1 - prod(1 - p(fiber in group)) — the group fails if any of
// its co-routed fibers' risk materializes (they share the backhoe).
std::vector<double> group_probabilities(const SrlgMap& map,
                                        const std::vector<double>& fiber_probs);

}  // namespace prete::net
