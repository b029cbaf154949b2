#pragma once

#include <vector>

#include "net/graph.h"
#include "net/tunnels.h"

namespace prete::te {

struct TunnelUpdateConfig {
  // New tunnels per affected tunnel (Figure 16's "ratio" knob; the paper
  // recommends 1 as the runtime/availability sweet spot).
  double ratio = 1.0;
  // Cap on new tunnels per flow.
  int max_new_tunnels_per_flow = 8;
};

struct TunnelUpdateResult {
  // Ids of the tunnels created (all flagged dynamic in the tunnel set).
  std::vector<net::TunnelId> created;
  // Sum over affected flows of (tunnels wanted - tunnels created): nonzero
  // only when G' genuinely cannot supply enough distinct fiber-avoiding
  // paths (e.g. the degraded fiber is a bridge). Callers should treat a
  // nonzero shortfall as reduced protection, not as an error.
  int shortfall = 0;
};

// Algorithm 1: for every flow with tunnels traversing the degraded fiber,
// establish new tunnels routed on the graph with that fiber removed, so the
// new paths are disjoint from the degraded fiber. Mutates `tunnels` by
// appending dynamic tunnels (Y^s in the paper) and by extending the path
// rankings it keeps for the affected flows.
TunnelUpdateResult update_tunnels_for_degradation(
    const net::Network& network, const std::vector<net::Flow>& flows,
    net::TunnelSet& tunnels, net::FiberId degraded_fiber,
    const TunnelUpdateConfig& config = {});

}  // namespace prete::te
