#include "net/tunnels.h"

#include <gtest/gtest.h>

#include "net/topology.h"

namespace prete::net {
namespace {

TEST(TunnelSetTest, AddAndQuery) {
  const Topology topo = make_triangle();
  TunnelSet ts(2);
  // Flow 0 = s1->s2 via direct link 0.
  const TunnelId t = ts.add_tunnel(0, {0});
  EXPECT_EQ(ts.num_tunnels(), 1);
  EXPECT_TRUE(ts.uses_fiber(topo.network, t, 0));
  EXPECT_FALSE(ts.uses_fiber(topo.network, t, 1));
}

TEST(TunnelSetTest, RejectsBadFlow) {
  TunnelSet ts(1);
  EXPECT_THROW(ts.add_tunnel(3, {}), std::out_of_range);
}

TEST(TunnelSetTest, AliveTracksFiberFailures) {
  const Topology topo = make_triangle();
  TunnelSet ts(2);
  const TunnelId direct = ts.add_tunnel(0, {0});  // s1->s2 on fiber 0
  EXPECT_TRUE(ts.alive(topo.network, direct, {}));
  EXPECT_TRUE(ts.alive(topo.network, direct, {1, 2}));
  EXPECT_FALSE(ts.alive(topo.network, direct, {0}));
  EXPECT_FALSE(ts.alive(topo.network, direct, {0, 2}));
}

TEST(TunnelSetTest, ClearDynamicKeepsStaticAndReindexes) {
  TunnelSet ts(2);
  ts.add_tunnel(0, {0});
  ts.add_tunnel(1, {2}, /*dynamic=*/true);
  ts.add_tunnel(1, {4});
  ts.clear_dynamic();
  EXPECT_EQ(ts.num_tunnels(), 2);
  EXPECT_EQ(ts.tunnels_for_flow(1).size(), 1u);
  // Ids must be dense after compaction.
  for (int t = 0; t < ts.num_tunnels(); ++t) {
    EXPECT_EQ(ts.tunnel(t).id, t);
  }
}

TEST(TunnelSetTest, RankedPathsAreKeptPerFlowAndEndpoints) {
  const Topology topo = make_triangle();
  TunnelSet ts(2);
  KShortestPaths& first = ts.ranked_paths(topo.network, topo.flows[0]);
  ASSERT_NE(first.path(0), nullptr);
  EXPECT_EQ(*first.path(0), Path{0});  // s1->s2 direct
  ts.clear_dynamic();
  EXPECT_EQ(&ts.ranked_paths(topo.network, topo.flows[0]), &first);
  // Other endpoints under the same flow id get their own ranking.
  const Flow reversed{0, topo.flows[0].dst, topo.flows[0].src, 1.0};
  KShortestPaths& back = ts.ranked_paths(topo.network, reversed);
  EXPECT_EQ(back.src(), reversed.src);
  ASSERT_NE(back.path(0), nullptr);
  EXPECT_EQ(*back.path(0), Path{1});  // s2->s1 direct
  EXPECT_THROW(ts.ranked_paths(topo.network, {5, 0, 1, 1.0}),
               std::out_of_range);
}

TEST(BuildTunnelsTest, TrianglePerFlowCounts) {
  const Topology topo = make_triangle();
  const TunnelSet ts = build_tunnels(topo.network, topo.flows,
                                     {.tunnels_per_flow = 2, .disjoint_tunnels = 2});
  // Each triangle flow has exactly 2 simple paths, pairwise fiber-disjoint.
  EXPECT_EQ(ts.tunnels_for_flow(0).size(), 2u);
  EXPECT_EQ(ts.tunnels_for_flow(1).size(), 2u);
}

TEST(BuildTunnelsTest, PaperTunnelCountsTable3) {
  const Topology b4 = make_b4();
  const TunnelSet ts_b4 = build_tunnels(b4.network, b4.flows);
  EXPECT_EQ(ts_b4.num_tunnels(), 208);  // Table 3: B4 #Tunnels

  const Topology ibm = make_ibm();
  const TunnelSet ts_ibm = build_tunnels(ibm.network, ibm.flows);
  EXPECT_EQ(ts_ibm.num_tunnels(), 340);  // Table 3: IBM #Tunnels
}

TEST(BuildTunnelsTest, SingleFiberCutLeavesResidualTunnel) {
  // Paper §4.2: at least one residual tunnel per flow under each single-
  // fiber failure scenario.
  const Topology topo = make_b4();
  const TunnelSet ts = build_tunnels(topo.network, topo.flows);
  for (FiberId f = 0; f < topo.network.num_fibers(); ++f) {
    const std::vector<FiberId> failed{f};
    for (const Flow& flow : topo.flows) {
      bool any_alive = false;
      for (TunnelId t : ts.tunnels_for_flow(flow.id)) {
        if (ts.alive(topo.network, t, failed)) {
          any_alive = true;
          break;
        }
      }
      EXPECT_TRUE(any_alive) << "flow " << flow.id << " dies with fiber " << f;
    }
  }
}

TEST(BuildTunnelsTest, TunnelsAreValidPaths) {
  const Topology topo = make_ibm();
  const TunnelSet ts = build_tunnels(topo.network, topo.flows);
  for (const Tunnel& t : ts.tunnels()) {
    const Flow& flow = topo.flows[static_cast<std::size_t>(t.flow)];
    EXPECT_TRUE(path_is_valid(topo.network, t.path, flow.src, flow.dst));
    EXPECT_FALSE(t.dynamic);
  }
}

}  // namespace
}  // namespace prete::net
