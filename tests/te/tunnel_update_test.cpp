#include "te/tunnel_update.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/paths.h"
#include "net/topology.h"

namespace prete::te {
namespace {

TEST(TunnelUpdateTest, TriangleFigure7) {
  // §3.3 / Figure 7: link s1s2 degrades; flow s1s2 gets the new tunnel
  // s1s3s2; flow s1s3 "remains the same because there is no new path".
  net::Topology topo = net::make_triangle();
  net::TunnelSet tunnels(2);
  tunnels.add_tunnel(0, {0});     // s1->s2 direct (fiber 0)
  tunnels.add_tunnel(1, {2});     // s1->s3 direct (fiber 1)
  tunnels.add_tunnel(1, {0, 4});  // s1->s2->s3 (fibers 0, 2)

  const auto result = update_tunnels_for_degradation(
      topo.network, topo.flows, tunnels, /*degraded_fiber=*/0);
  // Both flows have a tunnel on fiber 0 and want one detour each; flow 1
  // has none, so one tunnel is created and one is short.
  EXPECT_EQ(result.created.size(), 1u);
  EXPECT_EQ(result.shortfall, 1);
  // New tunnels avoid fiber 0 and are marked dynamic.
  for (net::TunnelId t : result.created) {
    EXPECT_TRUE(tunnels.tunnel(t).dynamic);
    EXPECT_FALSE(tunnels.uses_fiber(topo.network, t, 0));
  }
  // Flow 0 must now own the s1->s3->s2 detour.
  bool flow0_has_detour = false;
  for (net::TunnelId t : tunnels.tunnels_for_flow(0)) {
    if (tunnels.tunnel(t).path == net::Path{2, 5}) flow0_has_detour = true;
  }
  EXPECT_TRUE(flow0_has_detour);
}

TEST(TunnelUpdateTest, UnaffectedFiberIsNoOp) {
  net::Topology topo = net::make_triangle();
  net::TunnelSet tunnels(2);
  tunnels.add_tunnel(0, {0});
  tunnels.add_tunnel(1, {2});
  const auto result = update_tunnels_for_degradation(
      topo.network, topo.flows, tunnels, /*degraded_fiber=*/2);
  EXPECT_TRUE(result.created.empty());
  EXPECT_EQ(result.shortfall, 0);
  EXPECT_EQ(tunnels.num_tunnels(), 2);
}

TEST(TunnelUpdateTest, RatioScalesNewTunnelCount) {
  net::Topology topo = net::make_b4();
  const net::FiberId fiber = 0;
  TunnelUpdateConfig one;
  one.ratio = 1.0;
  TunnelUpdateConfig half;
  half.ratio = 0.5;

  net::TunnelSet t1 = net::build_tunnels(topo.network, topo.flows);
  const auto r1 =
      update_tunnels_for_degradation(topo.network, topo.flows, t1, fiber, one);
  net::TunnelSet t2 = net::build_tunnels(topo.network, topo.flows);
  const auto r2 =
      update_tunnels_for_degradation(topo.network, topo.flows, t2, fiber, half);
  EXPECT_GT(r1.created.size(), 0u);
  EXPECT_LE(r2.created.size(), r1.created.size());
}

TEST(TunnelUpdateTest, NewTunnelsAvoidDegradedFiberOnB4) {
  net::Topology topo = net::make_b4();
  for (net::FiberId f = 0; f < topo.network.num_fibers(); f += 5) {
    net::TunnelSet tunnels = net::build_tunnels(topo.network, topo.flows);
    const int before = tunnels.num_tunnels();
    const auto result =
        update_tunnels_for_degradation(topo.network, topo.flows, tunnels, f);
    EXPECT_EQ(tunnels.num_tunnels(),
              before + static_cast<int>(result.created.size()));
    for (net::TunnelId t : result.created) {
      EXPECT_FALSE(tunnels.uses_fiber(topo.network, t, f)) << "fiber " << f;
      const net::Flow& flow =
          topo.flows[static_cast<std::size_t>(tunnels.tunnel(t).flow)];
      EXPECT_TRUE(net::path_is_valid(topo.network, tunnels.tunnel(t).path,
                                     flow.src, flow.dst));
    }
  }
}

TEST(TunnelUpdateTest, ClearDynamicRestoresOriginalState) {
  // "Once the failure is repaired ... the tunnel is then updated to its
  // original state" (§4.2).
  net::Topology topo = net::make_b4();
  net::TunnelSet tunnels = net::build_tunnels(topo.network, topo.flows);
  const int before = tunnels.num_tunnels();
  update_tunnels_for_degradation(topo.network, topo.flows, tunnels, 3);
  EXPECT_GT(tunnels.num_tunnels(), before);
  tunnels.clear_dynamic();
  EXPECT_EQ(tunnels.num_tunnels(), before);
}

TEST(TunnelUpdateTest, MaxNewTunnelsCapEnforced) {
  net::Topology topo = net::make_b4();
  net::TunnelSet tunnels = net::build_tunnels(topo.network, topo.flows);
  TunnelUpdateConfig config;
  config.ratio = 10.0;
  config.max_new_tunnels_per_flow = 2;
  const auto result = update_tunnels_for_degradation(topo.network, topo.flows,
                                                     tunnels, 0, config);
  std::vector<int> per_flow(topo.flows.size(), 0);
  for (net::TunnelId t : result.created) {
    ++per_flow[static_cast<std::size_t>(tunnels.tunnel(t).flow)];
  }
  for (int count : per_flow) EXPECT_LE(count, config.max_new_tunnels_per_flow);
}

// A topology engineered so every short s->t path crosses the degraded fiber
// while enough long detours exist to cover the protection target. `extra_z`
// controls how many long s->z_j->t detours avoid fiber 0.
struct FunnelTopology {
  net::Topology topo;
  std::vector<net::Path> through_paths;  // all cross fiber 0
};

FunnelTopology make_funnel(int num_z) {
  FunnelTopology out;
  net::Network& n = out.topo.network;
  const net::NodeId s = n.add_node("s");
  const net::NodeId m = n.add_node("m");
  const net::NodeId t = n.add_node("t");
  std::vector<net::NodeId> y(5), z(static_cast<std::size_t>(num_z));
  for (auto& node : y) node = n.add_node();
  for (auto& node : z) node = n.add_node();

  auto link = [&](net::NodeId a, net::NodeId b, double len) {
    return n.add_ip_link_pair(n.add_fiber(a, b, len), 100.0);
  };
  // Fiber 0 (s-m) funnels every short path; m fans out to t directly and
  // via the y_i, so Yen's first |want + existing| candidates all cross it.
  const net::LinkId sm = link(s, m, 1.0);  // fiber 0
  const net::LinkId mt = link(m, t, 1.0);
  out.through_paths.push_back({sm, mt});
  for (net::NodeId yi : y) {
    const net::LinkId my = link(m, yi, 1.0);
    const net::LinkId yt = link(yi, t, 1.0);
    out.through_paths.push_back({sm, my, yt});
  }
  // Long detours s-z_j-t are the only fiber-0-avoiding routes.
  for (net::NodeId zj : z) {
    const net::LinkId sz = link(s, zj, 10.0);
    link(zj, t, 10.0);
    (void)sz;
  }
  out.topo.flows.push_back({0, s, t, 10.0});
  return out;
}

TEST(TunnelUpdateTest, TopsUpWhenShortPathsClusterOnDegradedFiber) {
  // Regression: the flow holds 3 tunnels, all over fiber 0, and the 6
  // shortest s->t paths ALL cross fiber 0, so the first want + existing
  // ranked paths admit nothing. The update must walk further down the
  // flow's ranking to the 3 long detours, leaving no shortfall.
  FunnelTopology f = make_funnel(/*num_z=*/3);
  net::TunnelSet tunnels(1);
  for (int i = 0; i < 3; ++i) tunnels.add_tunnel(0, f.through_paths[static_cast<std::size_t>(i)]);

  const auto result = update_tunnels_for_degradation(
      f.topo.network, f.topo.flows, tunnels, /*degraded_fiber=*/0);
  EXPECT_EQ(result.created.size(), 3u);  // one per affected tunnel
  EXPECT_EQ(result.shortfall, 0);
  for (net::TunnelId t : result.created) {
    EXPECT_FALSE(tunnels.uses_fiber(f.topo.network, t, 0));
  }
}

TEST(TunnelUpdateTest, CappedWalkFallsBackToPenalisedDetours) {
  // s-m (fiber 0) leads to t directly and via 64 nodes y_i, so the flow's
  // 65 shortest paths all cross fiber 0 and the 64-path walk admits
  // nothing. On G' the detours are s-a-t (22), s-a-b-t (24) and s-c-t
  // (62). The penalty fallback takes s-a-t, then avoids its now-penalised
  // links and takes s-c-t; walking the ranking further would have taken
  // s-a-b-t second. The cap and the fallback decide which detours a flow
  // gets.
  net::Topology topo;
  net::Network& n = topo.network;
  const net::NodeId s = n.add_node("s");
  const net::NodeId m = n.add_node("m");
  const net::NodeId t = n.add_node("t");
  const net::NodeId a = n.add_node("a");
  const net::NodeId b = n.add_node("b");
  const net::NodeId c = n.add_node("c");
  auto link = [&](net::NodeId u, net::NodeId v, double len) {
    return n.add_ip_link_pair(n.add_fiber(u, v, len), 100.0);
  };
  const net::LinkId sm = link(s, m, 1.0);  // fiber 0
  const net::LinkId mt = link(m, t, 1.0);
  net::Path via_y0;
  for (int i = 0; i < 64; ++i) {
    const net::NodeId y = n.add_node();
    const net::LinkId my = link(m, y, 1.0);
    const net::LinkId yt = link(y, t, 1.0);
    if (i == 0) via_y0 = {sm, my, yt};
  }
  const net::LinkId sa = link(s, a, 10.0);
  const net::LinkId at = link(a, t, 10.0);
  link(a, b, 1.0);
  link(b, t, 10.0);
  const net::LinkId sc = link(s, c, 30.0);
  const net::LinkId ct = link(c, t, 30.0);
  topo.flows.push_back({0, s, t, 10.0});

  net::TunnelSet tunnels(1);
  tunnels.add_tunnel(0, {sm, mt});
  tunnels.add_tunnel(0, via_y0);
  const auto result = update_tunnels_for_degradation(
      topo.network, topo.flows, tunnels, /*degraded_fiber=*/0);
  ASSERT_EQ(result.created.size(), 2u);
  EXPECT_EQ(tunnels.tunnel(result.created[0]).path, (net::Path{sa, at}));
  EXPECT_EQ(tunnels.tunnel(result.created[1]).path, (net::Path{sc, ct}));
  EXPECT_EQ(result.shortfall, 0);
}

TEST(TunnelUpdateTest, GenuineShortfallIsReported) {
  // Same funnel but only ONE fiber-0-avoiding route exists: the update
  // should create it and report the remaining deficit instead of silently
  // under-provisioning.
  FunnelTopology f = make_funnel(/*num_z=*/1);
  net::TunnelSet tunnels(1);
  for (int i = 0; i < 3; ++i) tunnels.add_tunnel(0, f.through_paths[static_cast<std::size_t>(i)]);

  const auto result = update_tunnels_for_degradation(
      f.topo.network, f.topo.flows, tunnels, /*degraded_fiber=*/0);
  EXPECT_EQ(result.created.size(), 1u);
  EXPECT_EQ(result.shortfall, 2);
}

// The tunnel set keeps each flow's path ranking across updates and
// clear_dynamic(). A long-lived set must create, at every step, exactly the
// tunnels (paths and ids) a freshly built set creates; so must a copy of a
// warmed set.
TEST(TunnelUpdateTest, KeptRankingsCreateWhatAFreshSetCreates) {
  const net::Topology topo = net::make_b4();
  auto created_paths = [](const net::TunnelSet& tunnels,
                          const TunnelUpdateResult& r) {
    std::vector<std::pair<net::TunnelId, net::Path>> out;
    for (net::TunnelId t : r.created) out.emplace_back(t, tunnels.tunnel(t).path);
    return out;
  };
  auto drive = [&](net::TunnelSet& kept) {
    for (int pass = 0; pass < 2; ++pass) {
      for (net::FiberId f = 0; f < topo.network.num_fibers(); ++f) {
        net::TunnelSet fresh = net::build_tunnels(topo.network, topo.flows);
        const auto expected = update_tunnels_for_degradation(
            topo.network, topo.flows, fresh, f);
        const auto got = update_tunnels_for_degradation(
            topo.network, topo.flows, kept, f);
        EXPECT_EQ(created_paths(kept, got), created_paths(fresh, expected))
            << "pass " << pass << " fiber " << f;
        EXPECT_EQ(got.shortfall, expected.shortfall);
        kept.clear_dynamic();
      }
    }
  };
  net::TunnelSet kept = net::build_tunnels(topo.network, topo.flows);
  drive(kept);
  net::TunnelSet copy = kept;
  drive(copy);
}

TEST(TunnelUpdateTest, NoDuplicateTunnels) {
  net::Topology topo = net::make_b4();
  net::TunnelSet tunnels = net::build_tunnels(topo.network, topo.flows);
  update_tunnels_for_degradation(topo.network, topo.flows, tunnels, 1);
  for (const net::Flow& flow : topo.flows) {
    const auto& ts = tunnels.tunnels_for_flow(flow.id);
    for (std::size_t i = 0; i < ts.size(); ++i) {
      for (std::size_t j = i + 1; j < ts.size(); ++j) {
        EXPECT_NE(tunnels.tunnel(ts[i]).path, tunnels.tunnel(ts[j]).path)
            << "flow " << flow.id;
      }
    }
  }
}

}  // namespace
}  // namespace prete::te
