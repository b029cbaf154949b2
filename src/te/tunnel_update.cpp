#include "te/tunnel_update.h"

#include <algorithm>
#include <cmath>

#include "net/paths.h"

namespace prete::te {

TunnelUpdateResult update_tunnels_for_degradation(
    const net::Network& network, const std::vector<net::Flow>& flows,
    net::TunnelSet& tunnels, net::FiberId degraded_fiber,
    const TunnelUpdateConfig& config) {
  TunnelUpdateResult result;
  const net::LinkWeight weight = net::fiber_length_weight(network);
  // Step 1: G'(V, E) = G minus the degraded fiber's links.
  auto usable = [&](const net::Link& link) {
    return link.fiber != degraded_fiber;
  };

  for (const net::Flow& flow : flows) {
    // Step 2: Lambda = number of this flow's tunnels traversing the fiber.
    int lambda = 0;
    for (net::TunnelId t : tunnels.tunnels_for_flow(flow.id)) {
      if (tunnels.uses_fiber(network, t, degraded_fiber)) ++lambda;
    }
    if (lambda == 0) continue;

    const int want = std::min(
        config.max_new_tunnels_per_flow,
        static_cast<int>(std::ceil(config.ratio * static_cast<double>(lambda))));
    if (want <= 0) continue;

    // Establish new tunnels from G', skipping paths the flow already has.
    const std::vector<net::TunnelId>& own = tunnels.tunnels_for_flow(flow.id);
    const std::size_t existing = own.size();
    int created = 0;
    auto admit = [&](const net::Path& p) {
      if (net::path_uses_fiber(network, p, degraded_fiber)) return;
      for (net::TunnelId t : own) {
        if (tunnels.tunnel(t).path == p) return;
      }
      result.created.push_back(tunnels.add_tunnel(flow.id, p, /*dynamic=*/true));
      ++created;
    };
    // Walk the flow's Yen ranking on the full graph (kept by the tunnel
    // set: it does not depend on which fiber degraded), admitting paths
    // that avoid the fiber until `want` are admitted. The walk stops after
    // kMaxYenBudget paths, or want + existing if that is larger, and the
    // penalty fallback below covers the deficit. The cap and the fallback
    // decide which detours a flow gets: when the top-ranked paths hold too
    // few survivors, the fallback's penalised routes are admitted, not the
    // next survivors of a longer walk or of a ranking on G' itself.
    constexpr std::size_t kMaxYenBudget = 64;
    net::KShortestPaths& ranking = tunnels.ranked_paths(network, flow);
    const std::size_t budget =
        std::max(kMaxYenBudget, static_cast<std::size_t>(want) + existing);
    for (std::size_t i = 0; i < budget && created < want; ++i) {
      const net::Path* p = ranking.path(i);
      if (p == nullptr) break;  // Yen exhausted the path space
      admit(*p);
    }
    if (created < want) {
      // Fall back to shortest paths computed directly on G'. Looped over the
      // remaining deficit with multiplicative penalties on used links so
      // successive queries return distinct routes where the graph has them.
      std::vector<double> penalty(static_cast<std::size_t>(network.num_links()),
                                  1.0);
      const int max_attempts = 4 * want;
      for (int attempt = 0; attempt < max_attempts && created < want;
           ++attempt) {
        const auto direct = net::shortest_path(
            network, flow.src, flow.dst,
            [&](const net::Link& l) {
              return weight(l) * penalty[static_cast<std::size_t>(l.id)];
            },
            usable);
        if (!direct) break;  // flow disconnected in G'
        for (net::LinkId l : *direct) {
          penalty[static_cast<std::size_t>(l)] *= 8.0;
        }
        admit(*direct);
      }
    }
    // Whatever remains is a true shortfall of G', reported instead of
    // silently under-provisioning.
    result.shortfall += want - created;
  }
  return result;
}

}  // namespace prete::te
