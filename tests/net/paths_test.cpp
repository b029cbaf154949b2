#include "net/paths.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "net/topology.h"

namespace prete::net {
namespace {

// Diamond: a-b, a-c, b-d, c-d plus a direct long a-d fiber.
Network make_diamond() {
  Network net("diamond");
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  const NodeId c = net.add_node("c");
  const NodeId d = net.add_node("d");
  net.add_ip_link_pair(net.add_fiber(a, b, 100.0), 10);
  net.add_ip_link_pair(net.add_fiber(a, c, 150.0), 10);
  net.add_ip_link_pair(net.add_fiber(b, d, 100.0), 10);
  net.add_ip_link_pair(net.add_fiber(c, d, 150.0), 10);
  net.add_ip_link_pair(net.add_fiber(a, d, 900.0), 10);
  return net;
}

TEST(ShortestPathTest, FindsCheapestRoute) {
  const Network net = make_diamond();
  const auto p = shortest_path(net, 0, 3, fiber_length_weight(net));
  ASSERT_TRUE(p.has_value());
  // a-b-d (200km) beats a-c-d (300km) and a-d (900km).
  ASSERT_EQ(p->size(), 2u);
  EXPECT_TRUE(path_is_valid(net, *p, 0, 3));
  EXPECT_NEAR(path_weight(net, *p, fiber_length_weight(net)), 202.0, 1e-9);
}

TEST(ShortestPathTest, SameNodeIsEmptyPath) {
  const Network net = make_diamond();
  const auto p = shortest_path(net, 1, 1, hop_count_weight());
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->empty());
}

TEST(ShortestPathTest, UnreachableReturnsNullopt) {
  Network net;
  net.add_node();
  net.add_node();
  EXPECT_FALSE(shortest_path(net, 0, 1, hop_count_weight()).has_value());
}

TEST(ShortestPathTest, RespectsUsableFilter) {
  const Network net = make_diamond();
  // Ban the a-b fiber (fiber 0): route must shift to a-c-d.
  const auto p = shortest_path(net, 0, 3, fiber_length_weight(net),
                               [](const Link& l) { return l.fiber != 0; });
  ASSERT_TRUE(p.has_value());
  EXPECT_FALSE(path_uses_fiber(net, *p, 0));
  EXPECT_NEAR(path_weight(net, *p, fiber_length_weight(net)), 302.0, 1e-9);
}

TEST(KShortestTest, ReturnsOrderedDistinctPaths) {
  const Network net = make_diamond();
  const auto weight = fiber_length_weight(net);
  const auto paths = k_shortest_paths(net, 0, 3, 3, weight);
  ASSERT_EQ(paths.size(), 3u);
  // Strictly increasing weights for this topology.
  EXPECT_LT(path_weight(net, paths[0], weight), path_weight(net, paths[1], weight));
  EXPECT_LT(path_weight(net, paths[1], weight), path_weight(net, paths[2], weight));
  std::set<Path> unique(paths.begin(), paths.end());
  EXPECT_EQ(unique.size(), 3u);
  for (const Path& p : paths) EXPECT_TRUE(path_is_valid(net, p, 0, 3));
}

TEST(KShortestTest, StopsWhenExhausted) {
  const Network net = make_diamond();
  const auto paths = k_shortest_paths(net, 0, 3, 50, hop_count_weight());
  // Diamond has exactly 3 simple a->d paths.
  EXPECT_EQ(paths.size(), 3u);
}

TEST(FiberDisjointTest, PathsShareNoFiber) {
  const Network net = make_diamond();
  const auto paths = fiber_disjoint_paths(net, 0, 3, 3, fiber_length_weight(net));
  ASSERT_EQ(paths.size(), 3u);
  std::set<FiberId> fibers;
  std::size_t total = 0;
  for (const Path& p : paths) {
    for (LinkId e : p) {
      fibers.insert(net.link(e).fiber);
      ++total;
    }
  }
  EXPECT_EQ(fibers.size(), total);  // no fiber reused
}

TEST(FiberDisjointTest, SharedFiberBlocksSecondPath) {
  // Two parallel trunks on ONE fiber: only one "disjoint" path exists.
  Network net;
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  const FiberId f = net.add_fiber(a, b, 10.0);
  net.add_ip_link_pair(f, 10);
  net.add_ip_link_pair(f, 10);
  const auto paths = fiber_disjoint_paths(net, a, b, 2, hop_count_weight());
  EXPECT_EQ(paths.size(), 1u);
}

TEST(PathValidityTest, DetectsBrokenChain) {
  const Network net = make_diamond();
  // Links 0 (a->b) and 6 (c->d going forward is link id? build explicit bad path).
  Path bad{0, 2};  // a->b then b->a (reverse of link 0 is id 1; 2 is a->c)
  EXPECT_FALSE(path_is_valid(net, bad, 0, 2));
}

TEST(PathNodesTest, EnumeratesVisitedNodes) {
  const Network net = make_diamond();
  const auto p = shortest_path(net, 0, 3, fiber_length_weight(net));
  ASSERT_TRUE(p.has_value());
  const auto nodes = path_nodes(net, *p);
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes.front(), 0);
  EXPECT_EQ(nodes.back(), 3);
}

TEST(NegativeWeightTest, Throws) {
  const Network net = make_diamond();
  const LinkWeight negative = [](const Link&) { return -1.0; };
  EXPECT_THROW(shortest_path(net, 0, 3, negative), std::invalid_argument);
  EXPECT_THROW(k_shortest_paths(net, 0, 3, 3, negative), std::invalid_argument);
  EXPECT_THROW(KShortestPaths(net, 0, 3, negative), std::invalid_argument);
}

// Resuming one enumerator must give, for every k, exactly the list a
// from-scratch k_shortest_paths call returns.
TEST(KShortestPathsTest, ResumedRankingMatchesFromScratchOnB4) {
  const Topology topo = make_b4();
  const Network& net = topo.network;
  const LinkWeight weight = fiber_length_weight(net);
  constexpr int kMax = 64;
  for (NodeId src = 0; src < net.num_nodes(); ++src) {
    for (NodeId dst = 0; dst < net.num_nodes(); ++dst) {
      if (src == dst) continue;
      KShortestPaths ranking(net, src, dst, weight);
      std::vector<Path> resumed;
      for (int k = 1; k <= kMax; ++k) {
        const Path* p = ranking.path(static_cast<std::size_t>(k - 1));
        if (p != nullptr) resumed.push_back(*p);
        ASSERT_EQ(k_shortest_paths(net, src, dst, k, weight), resumed)
            << src << "->" << dst << " k=" << k;
        if (p == nullptr) break;
      }
      ASSERT_FALSE(resumed.empty());
    }
  }
}

// Every simple src->dst path by depth-first search, sorted by
// (weight, path): the order the enumerator must reproduce.
std::vector<Path> all_simple_paths_sorted(const Network& net, NodeId src,
                                          NodeId dst,
                                          const LinkWeight& weight) {
  std::vector<Path> found;
  Path path;
  std::vector<bool> on_path(static_cast<std::size_t>(net.num_nodes()), false);
  auto dfs = [&](auto&& self, NodeId u) -> void {
    if (u == dst) {
      found.push_back(path);
      return;
    }
    on_path[static_cast<std::size_t>(u)] = true;
    for (LinkId e : net.out_links(u)) {
      const NodeId v = net.link(e).dst;
      if (on_path[static_cast<std::size_t>(v)]) continue;
      path.push_back(e);
      self(self, v);
      path.pop_back();
    }
    on_path[static_cast<std::size_t>(u)] = false;
  };
  dfs(dfs, src);
  std::sort(found.begin(), found.end(), [&](const Path& a, const Path& b) {
    const double wa = path_weight(net, a, weight);
    const double wb = path_weight(net, b, weight);
    if (wa != wb) return wa < wb;
    return a < b;
  });
  return found;
}

TEST(KShortestPathsTest, RankingMatchesBruteForceOnSmallTopologies) {
  const Network diamond = make_diamond();
  const Topology triangle = make_triangle();
  const Topology four_site = make_four_site();
  for (const Network* net :
       {&diamond, &triangle.network, &four_site.network}) {
    const LinkWeight weight = fiber_length_weight(*net);
    for (NodeId src = 0; src < net->num_nodes(); ++src) {
      for (NodeId dst = 0; dst < net->num_nodes(); ++dst) {
        if (src == dst) continue;
        const std::vector<Path> expected =
            all_simple_paths_sorted(*net, src, dst, weight);
        KShortestPaths ranking(*net, src, dst, weight);
        std::vector<Path> ranked;
        // One past the expected count, so a ranking that never ends fails.
        for (std::size_t i = 0; i <= expected.size(); ++i) {
          const Path* p = ranking.path(i);
          if (p == nullptr) break;
          ranked.push_back(*p);
        }
        EXPECT_EQ(ranked, expected)
            << net->name() << " " << src << "->" << dst;
      }
    }
  }
}

// Property: on every stock topology, k-shortest paths are valid, loop-free,
// unique, and sorted by weight for every flow.
class KspTopologyProperty
    : public ::testing::TestWithParam<const char*> {};

TEST_P(KspTopologyProperty, AllFlowsHaveValidSortedPaths) {
  const std::string which = GetParam();
  const Topology topo = which == "b4"    ? make_b4()
                        : which == "ibm" ? make_ibm()
                                         : make_twan();
  const auto weight = fiber_length_weight(topo.network);
  int checked = 0;
  for (const Flow& flow : topo.flows) {
    if (checked++ > 20) break;  // keep the suite fast
    const auto paths = k_shortest_paths(topo.network, flow.src, flow.dst, 4, weight);
    ASSERT_FALSE(paths.empty());
    double prev = 0.0;
    std::set<Path> seen;
    for (const Path& p : paths) {
      EXPECT_TRUE(path_is_valid(topo.network, p, flow.src, flow.dst));
      const double w = path_weight(topo.network, p, weight);
      EXPECT_GE(w, prev - 1e-9);
      prev = w;
      EXPECT_TRUE(seen.insert(p).second) << "duplicate path";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, KspTopologyProperty,
                         ::testing::Values("b4", "ibm", "twan"));

}  // namespace
}  // namespace prete::net
