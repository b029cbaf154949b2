#include "net/tunnels.h"

#include <algorithm>
#include <stdexcept>

namespace prete::net {

TunnelId TunnelSet::add_tunnel(FlowId flow, Path path, bool dynamic) {
  if (flow < 0 || flow >= num_flows()) throw std::out_of_range("bad flow id");
  Tunnel t;
  t.id = num_tunnels();
  t.flow = flow;
  t.path = std::move(path);
  t.dynamic = dynamic;
  tunnels_.push_back(std::move(t));
  flow_tunnels_[static_cast<std::size_t>(flow)].push_back(tunnels_.back().id);
  return tunnels_.back().id;
}

bool TunnelSet::uses_fiber(const Network& net, TunnelId t, FiberId f) const {
  return path_uses_fiber(net, tunnel(t).path, f);
}

bool TunnelSet::alive(const Network& net, TunnelId t,
                      const std::vector<FiberId>& failed) const {
  for (LinkId e : tunnel(t).path) {
    if (std::binary_search(failed.begin(), failed.end(), net.link(e).fiber)) {
      return false;
    }
  }
  return true;
}

void TunnelSet::clear_dynamic() {
  std::vector<Tunnel> kept;
  kept.reserve(tunnels_.size());
  for (auto& fl : flow_tunnels_) fl.clear();
  for (Tunnel& t : tunnels_) {
    if (t.dynamic) continue;
    t.id = static_cast<TunnelId>(kept.size());
    flow_tunnels_[static_cast<std::size_t>(t.flow)].push_back(t.id);
    kept.push_back(std::move(t));
  }
  tunnels_ = std::move(kept);
}

KShortestPaths& TunnelSet::ranked_paths(const Network& net, const Flow& flow) {
  if (flow.id < 0 || flow.id >= num_flows()) throw std::out_of_range("bad flow id");
  std::optional<KShortestPaths>& ranking =
      rankings_[static_cast<std::size_t>(flow.id)];
  if (!ranking || &ranking->network() != &net || ranking->src() != flow.src ||
      ranking->dst() != flow.dst) {
    ranking.emplace(net, flow.src, flow.dst, fiber_length_weight(net));
  }
  return *ranking;
}

TunnelSet build_tunnels(const Network& net, const std::vector<Flow>& flows,
                        const TunnelConfig& config) {
  TunnelSet tunnels(static_cast<int>(flows.size()));
  const LinkWeight weight = fiber_length_weight(net);
  for (const Flow& flow : flows) {
    std::vector<Path> chosen = fiber_disjoint_paths(
        net, flow.src, flow.dst, config.disjoint_tunnels, weight);
    if (chosen.empty()) {
      throw std::runtime_error("flow has no path: " +
                               net.node_label(flow.src) + "->" +
                               net.node_label(flow.dst));
    }
    // Fill the remainder with k-shortest paths not already selected.
    if (static_cast<int>(chosen.size()) < config.tunnels_per_flow) {
      const auto ksp = k_shortest_paths(net, flow.src, flow.dst,
                                        config.tunnels_per_flow + 2, weight);
      for (const Path& p : ksp) {
        if (static_cast<int>(chosen.size()) >= config.tunnels_per_flow) break;
        if (std::find(chosen.begin(), chosen.end(), p) == chosen.end()) {
          chosen.push_back(p);
        }
      }
    }
    for (Path& p : chosen) {
      tunnels.add_tunnel(flow.id, std::move(p));
    }
  }
  return tunnels;
}

}  // namespace prete::net
