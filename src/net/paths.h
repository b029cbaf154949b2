#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "net/graph.h"

namespace prete::net {

// A path is a sequence of directed IP link ids.
using Path = std::vector<LinkId>;

// Weight used for routing; defaults to fiber length so that routing follows
// geography like production IGP metrics.
using LinkWeight = std::function<double(const Link&)>;

LinkWeight hop_count_weight();
LinkWeight fiber_length_weight(const Network& net);

// Shortest src->dst path by the given weight, skipping links for which
// `usable` returns false. Returns nullopt when dst is unreachable.
std::optional<Path> shortest_path(
    const Network& net, NodeId src, NodeId dst, const LinkWeight& weight,
    const std::function<bool(const Link&)>& usable = {});

// Yen's algorithm as a resumable enumeration: the loop-free src->dst paths
// in increasing weight (ties broken deterministically), extended only as
// far as callers ask. Yen's first k paths are a prefix of its first k' > k,
// so one enumerator serves every k. Link weights are read once, at construction;
// a negative weight throws std::invalid_argument. Keeps a pointer to `net`,
// which must outlive the enumerator.
class KShortestPaths {
 public:
  KShortestPaths(const Network& net, NodeId src, NodeId dst,
                 const LinkWeight& weight);

  // The i-th path of the ranking (0-based), or nullptr when fewer than i + 1
  // paths exist. References stay valid for the enumerator's lifetime.
  const Path* path(std::size_t i);

  const Network& network() const { return *net_; }
  NodeId src() const { return src_; }
  NodeId dst() const { return dst_; }

 private:
  // Appends the next path; false once the path space is exhausted.
  bool extend();
  // Dijkstra from `from` to dst_ over links not banned; the result goes to
  // spur_. False when dst_ is unreachable.
  bool shortest_unbanned(NodeId from);

  const Network* net_;
  NodeId src_;
  NodeId dst_;
  std::vector<double> weight_;  // per link
  std::deque<Path> paths_;      // accepted, in rank order
  // Yen's candidate set, keyed by (weight, path) so ties break
  // deterministically.
  std::set<std::pair<double, Path>> candidates_;
  bool exhausted_ = false;
  // Scratch reused across spur searches.
  std::vector<char> banned_link_;
  std::vector<char> banned_node_;
  std::vector<double> dist_;
  std::vector<LinkId> parent_link_;
  std::vector<std::pair<double, NodeId>> heap_;
  Path spur_;
};

// Up to k loop-free shortest paths in increasing weight (Yen's algorithm).
std::vector<Path> k_shortest_paths(const Network& net, NodeId src, NodeId dst,
                                   int k, const LinkWeight& weight);

// Up to k paths that are pairwise fiber-disjoint (greedy peeling: each found
// path removes its fibers from the graph). Guarantees survivability of at
// least one path under any single-fiber cut when k >= 2 and the fiber plant
// is 2-connected.
std::vector<Path> fiber_disjoint_paths(const Network& net, NodeId src,
                                       NodeId dst, int k,
                                       const LinkWeight& weight);

// Path helpers.
double path_weight(const Network& net, const Path& path, const LinkWeight& weight);
bool path_uses_fiber(const Network& net, const Path& path, FiberId fiber);
bool path_is_valid(const Network& net, const Path& path, NodeId src, NodeId dst);
std::vector<NodeId> path_nodes(const Network& net, const Path& path);

}  // namespace prete::net
