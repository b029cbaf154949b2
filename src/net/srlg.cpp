#include "net/srlg.h"

#include <numeric>
#include <stdexcept>

namespace prete::net {

namespace {

// Union-find over fiber ids.
int find(std::vector<int>& parent, int x) {
  while (parent[static_cast<std::size_t>(x)] != x) {
    parent[static_cast<std::size_t>(x)] =
        parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
    x = parent[static_cast<std::size_t>(x)];
  }
  return x;
}

SrlgMap from_parents(const Network& network, std::vector<int> parent) {
  SrlgMap map;
  map.group_of.assign(static_cast<std::size_t>(network.num_fibers()), -1);
  for (FiberId f = 0; f < network.num_fibers(); ++f) {
    const int root = find(parent, f);
    if (map.group_of[static_cast<std::size_t>(root)] < 0) {
      map.group_of[static_cast<std::size_t>(root)] = map.num_groups++;
      map.members.emplace_back();
    }
    map.group_of[static_cast<std::size_t>(f)] =
        map.group_of[static_cast<std::size_t>(root)];
  }
  for (FiberId f = 0; f < network.num_fibers(); ++f) {
    map.members[static_cast<std::size_t>(map.group_of[static_cast<std::size_t>(f)])]
        .push_back(f);
  }
  return map;
}

}  // namespace

SrlgMap identity_srlg(const Network& network) {
  std::vector<int> parent(static_cast<std::size_t>(network.num_fibers()));
  std::iota(parent.begin(), parent.end(), 0);
  return from_parents(network, std::move(parent));
}

SrlgMap sample_srlg(const Network& network, double share_prob, util::Rng& rng) {
  if (share_prob < 0.0 || share_prob > 1.0) {
    throw std::invalid_argument("share probability out of range");
  }
  std::vector<int> parent(static_cast<std::size_t>(network.num_fibers()));
  std::iota(parent.begin(), parent.end(), 0);
  for (FiberId f = 0; f < network.num_fibers(); ++f) {
    for (FiberId g = f + 1; g < network.num_fibers(); ++g) {
      const Fiber& a = network.fiber(f);
      const Fiber& b = network.fiber(g);
      const bool adjacent = a.a == b.a || a.a == b.b || a.b == b.a || a.b == b.b;
      if (!adjacent) continue;
      if (!rng.bernoulli(share_prob)) continue;
      const int ra = find(parent, f);
      const int rb = find(parent, g);
      if (ra != rb) parent[static_cast<std::size_t>(rb)] = ra;
    }
  }
  return from_parents(network, std::move(parent));
}

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
