#pragma once

#include <optional>
#include <vector>

#include "net/graph.h"
#include "net/paths.h"

namespace prete::net {

using FlowId = int;
using TunnelId = int;

// A source-destination site pair carrying traffic (paper §4.2: "flow").
struct Flow {
  FlowId id = -1;
  NodeId src = -1;
  NodeId dst = -1;
  double demand_gbps = 0.0;
};

// An end-to-end traffic tunnel: a path plus bookkeeping. `dynamic` marks
// tunnels created reactively by Algorithm 1 in response to a degradation.
struct Tunnel {
  TunnelId id = -1;
  FlowId flow = -1;
  Path path;
  bool dynamic = false;
};

// The tunnel table for a network: per-flow pre-established tunnels (T_f in
// the paper) plus any dynamically added ones (Y_f^s).
class TunnelSet {
 public:
  explicit TunnelSet(int num_flows)
      : flow_tunnels_(static_cast<std::size_t>(num_flows)),
        rankings_(static_cast<std::size_t>(num_flows)) {}

  TunnelId add_tunnel(FlowId flow, Path path, bool dynamic = false);

  int num_tunnels() const { return static_cast<int>(tunnels_.size()); }
  int num_flows() const { return static_cast<int>(flow_tunnels_.size()); }
  const Tunnel& tunnel(TunnelId t) const { return tunnels_.at(static_cast<std::size_t>(t)); }
  const std::vector<Tunnel>& tunnels() const { return tunnels_; }
  const std::vector<TunnelId>& tunnels_for_flow(FlowId f) const {
    return flow_tunnels_.at(static_cast<std::size_t>(f));
  }

  // Does tunnel t ride fiber f (in either direction)?
  bool uses_fiber(const Network& net, TunnelId t, FiberId f) const;

  // A tunnel is alive under a fiber-failure set (ascending fiber ids) if
  // none of its links ride a failed fiber.
  bool alive(const Network& net, TunnelId t,
             const std::vector<FiberId>& failed) const;

  // Drops all dynamic tunnels (used when a degradation clears, §4.2: "the
  // tunnel is then updated to its original state"). Keeps the path rankings.
  void clear_dynamic();

  // Yen's ranking of `flow`'s paths in `net` by fiber length, built on first
  // use and kept for the set's lifetime: the ranking depends only on the
  // network and the flow's endpoints, so every degradation reuses it. A
  // request naming another network or other endpoints rebuilds it.
  KShortestPaths& ranked_paths(const Network& net, const Flow& flow);

 private:
  std::vector<Tunnel> tunnels_;
  std::vector<std::vector<TunnelId>> flow_tunnels_;
  std::vector<std::optional<KShortestPaths>> rankings_;  // per flow
};

struct TunnelConfig {
  // Total tunnels per flow (paper §6.1 uses 4: both fiber-disjoint routing
  // and k-shortest paths).
  int tunnels_per_flow = 4;
  // How many of those come from fiber-disjoint peeling; the rest are filled
  // from Yen's k-shortest paths.
  int disjoint_tunnels = 2;
};

// Builds the pre-established tunnel set for all flows. Guarantees, when the
// topology allows it, at least one tunnel that survives any single-fiber cut
// ("at least one residual tunnel exists for every flow under each failure
// scenario", §4.2).
TunnelSet build_tunnels(const Network& net, const std::vector<Flow>& flows,
                        const TunnelConfig& config = {});

}  // namespace prete::net
