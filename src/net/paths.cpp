#include "net/paths.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

namespace prete::net {

LinkWeight hop_count_weight() {
  return [](const Link&) { return 1.0; };
}

LinkWeight fiber_length_weight(const Network& net) {
  return [&net](const Link& link) {
    // Small constant keeps zero-length test fibers from producing ties on
    // every path.
    return net.fiber(link.fiber).length_km + 1.0;
  };
}

namespace {

using HeapEntry = std::pair<double, NodeId>;

// Dijkstra from src to dst over the links `usable` admits, weighted by
// `weight_of`; writes the path to `out` and returns false when dst is
// unreachable. The buffers are caller-owned so repeated searches reuse them.
template <typename WeightOf, typename Usable>
bool dijkstra(const Network& net, NodeId src, NodeId dst,
              const WeightOf& weight_of, const Usable& usable,
              std::vector<double>& dist, std::vector<LinkId>& parent_link,
              std::vector<HeapEntry>& heap, Path& out) {
  out.clear();
  if (src == dst) return true;
  const auto n = static_cast<std::size_t>(net.num_nodes());
  dist.assign(n, std::numeric_limits<double>::infinity());
  parent_link.assign(n, -1);
  heap.clear();
  const std::greater<> later;
  dist[static_cast<std::size_t>(src)] = 0.0;
  heap.push_back({0.0, src});
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const auto [d, u] = heap.back();
    heap.pop_back();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    if (u == dst) break;
    for (LinkId e : net.out_links(u)) {
      const Link& link = net.link(e);
      if (!usable(link)) continue;
      const double nd = d + weight_of(link);
      if (nd < dist[static_cast<std::size_t>(link.dst)]) {
        dist[static_cast<std::size_t>(link.dst)] = nd;
        parent_link[static_cast<std::size_t>(link.dst)] = e;
        heap.push_back({nd, link.dst});
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
  }
  if (parent_link[static_cast<std::size_t>(dst)] < 0) return false;
  for (NodeId v = dst; v != src;) {
    const LinkId e = parent_link[static_cast<std::size_t>(v)];
    out.push_back(e);
    v = net.link(e).src;
  }
  std::reverse(out.begin(), out.end());
  return true;
}

}  // namespace

std::optional<Path> shortest_path(
    const Network& net, NodeId src, NodeId dst, const LinkWeight& weight,
    const std::function<bool(const Link&)>& usable) {
  std::vector<double> dist;
  std::vector<LinkId> parent_link;
  std::vector<HeapEntry> heap;
  Path path;
  const bool found = dijkstra(
      net, src, dst,
      [&](const Link& link) {
        const double w = weight(link);
        if (w < 0) throw std::invalid_argument("negative link weight");
        return w;
      },
      [&](const Link& link) { return !usable || usable(link); }, dist,
      parent_link, heap, path);
  if (!found) return std::nullopt;
  return path;
}

KShortestPaths::KShortestPaths(const Network& net, NodeId src, NodeId dst,
                               const LinkWeight& weight)
    : net_(&net),
      src_(src),
      dst_(dst),
      banned_link_(static_cast<std::size_t>(net.num_links()), 0),
      banned_node_(static_cast<std::size_t>(net.num_nodes()), 0) {
  weight_.reserve(static_cast<std::size_t>(net.num_links()));
  for (const Link& link : net.links()) {
    const double w = weight(link);
    if (w < 0) throw std::invalid_argument("negative link weight");
    weight_.push_back(w);
  }
}

const Path* KShortestPaths::path(std::size_t i) {
  while (paths_.size() <= i) {
    if (!extend()) return nullptr;
  }
  return &paths_[i];
}

bool KShortestPaths::shortest_unbanned(NodeId from) {
  return dijkstra(
      *net_, from, dst_,
      [&](const Link& link) {
        return weight_[static_cast<std::size_t>(link.id)];
      },
      // The search starts at an unbanned node and enters none, so only a
      // link's head can be banned.
      [&](const Link& link) {
        return !banned_link_[static_cast<std::size_t>(link.id)] &&
               !banned_node_[static_cast<std::size_t>(link.dst)];
      },
      dist_, parent_link_, heap_, spur_);
}

bool KShortestPaths::extend() {
  if (exhausted_) return false;
  if (paths_.empty()) {
    exhausted_ = !shortest_unbanned(src_);
    if (!exhausted_) paths_.push_back(spur_);
    return !exhausted_;
  }
  const Path& last = paths_.back();
  const std::vector<NodeId> last_nodes = path_nodes(*net_, last);
  // Spur from every node of the previous path.
  for (std::size_t i = 0; i + 1 < last_nodes.size(); ++i) {
    const auto root_end = last.begin() + static_cast<long>(i);
    // Links removed: the next link of any accepted path sharing this root.
    // Nodes of the root (except the spur node) are banned to keep the path
    // loop-free; the root grows by one node per spur.
    auto ban_next_links = [&](char flag) {
      for (const Path& p : paths_) {
        if (p.size() > i && std::equal(last.begin(), root_end, p.begin())) {
          banned_link_[static_cast<std::size_t>(p[i])] = flag;
        }
      }
    };
    ban_next_links(1);
    if (i > 0) banned_node_[static_cast<std::size_t>(last_nodes[i - 1])] = 1;
    const bool found = shortest_unbanned(last_nodes[i]);
    ban_next_links(0);
    if (!found) continue;
    Path candidate(last.begin(), root_end);
    candidate.insert(candidate.end(), spur_.begin(), spur_.end());
    if (std::find(paths_.begin(), paths_.end(), candidate) == paths_.end()) {
      double w = 0.0;
      for (LinkId e : candidate) w += weight_[static_cast<std::size_t>(e)];
      candidates_.emplace(w, std::move(candidate));
    }
  }
  for (NodeId v : last_nodes) banned_node_[static_cast<std::size_t>(v)] = 0;
  if (candidates_.empty()) {
    exhausted_ = true;
    return false;
  }
  paths_.push_back(std::move(candidates_.extract(candidates_.begin()).value().second));
  return true;
}

std::vector<Path> k_shortest_paths(const Network& net, NodeId src, NodeId dst,
                                   int k, const LinkWeight& weight) {
  std::vector<Path> result;
  if (k <= 0) return result;
  KShortestPaths ranking(net, src, dst, weight);
  for (std::size_t i = 0; i < static_cast<std::size_t>(k); ++i) {
    const Path* p = ranking.path(i);
    if (p == nullptr) break;
    result.push_back(*p);
  }
  return result;
}

std::vector<Path> fiber_disjoint_paths(const Network& net, NodeId src,
                                       NodeId dst, int k,
                                       const LinkWeight& weight) {
  std::vector<Path> result;
  std::set<FiberId> used_fibers;
  for (int i = 0; i < k; ++i) {
    auto usable = [&](const Link& link) {
      return used_fibers.count(link.fiber) == 0;
    };
    const auto p = shortest_path(net, src, dst, weight, usable);
    if (!p) break;
    for (LinkId e : *p) used_fibers.insert(net.link(e).fiber);
    result.push_back(*p);
  }
  return result;
}

double path_weight(const Network& net, const Path& path,
                   const LinkWeight& weight) {
  double total = 0.0;
  for (LinkId e : path) total += weight(net.link(e));
  return total;
}

bool path_uses_fiber(const Network& net, const Path& path, FiberId fiber) {
  for (LinkId e : path) {
    if (net.link(e).fiber == fiber) return true;
  }
  return false;
}

bool path_is_valid(const Network& net, const Path& path, NodeId src,
                   NodeId dst) {
  if (path.empty()) return src == dst;
  if (net.link(path.front()).src != src) return false;
  if (net.link(path.back()).dst != dst) return false;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (net.link(path[i]).dst != net.link(path[i + 1]).src) return false;
  }
  // Loop-free: no node repeats.
  std::vector<NodeId> nodes = path_nodes(net, path);
  std::sort(nodes.begin(), nodes.end());
  return std::adjacent_find(nodes.begin(), nodes.end()) == nodes.end();
}

std::vector<NodeId> path_nodes(const Network& net, const Path& path) {
  std::vector<NodeId> nodes;
  if (path.empty()) return nodes;
  nodes.push_back(net.link(path.front()).src);
  for (LinkId e : path) nodes.push_back(net.link(e).dst);
  return nodes;
}

}  // namespace prete::net
