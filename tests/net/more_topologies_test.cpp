#include "net/more_topologies.h"

#include <gtest/gtest.h>

#include "net/paths.h"
#include "net/tunnels.h"

namespace prete::net {
namespace {

TEST(MoreTopologiesTest, AbileneShape) {
  const Topology topo = make_abilene();
  EXPECT_EQ(topo.network.num_nodes(), 11);
  EXPECT_EQ(topo.network.num_fibers(), 14);
  EXPECT_EQ(topo.network.num_links(), 2 * 30);
  EXPECT_EQ(topo.flows.size(), 30u);
}

TEST(MoreTopologiesTest, GeantShape) {
  const Topology topo = make_geant();
  EXPECT_EQ(topo.network.num_nodes(), 22);
  EXPECT_EQ(topo.network.num_fibers(), 36);
  EXPECT_EQ(topo.network.num_links(), 2 * 70);
  EXPECT_EQ(topo.flows.size(), 70u);
}

class ExtraTopologyProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(ExtraTopologyProperty, ConnectedAndSurvivable) {
  const Topology topo =
      std::string(GetParam()) == "abilene" ? make_abilene() : make_geant();
  // Connected.
  for (NodeId dst = 1; dst < topo.network.num_nodes(); ++dst) {
    EXPECT_TRUE(
        shortest_path(topo.network, 0, dst, hop_count_weight()).has_value());
  }
  // Two-connected fiber plant: survives any single fiber cut.
  for (FiberId f = 0; f < topo.network.num_fibers(); ++f) {
    auto usable = [&](const Link& l) { return l.fiber != f; };
    for (NodeId dst = 1; dst < topo.network.num_nodes(); ++dst) {
      EXPECT_TRUE(
          shortest_path(topo.network, 0, dst, hop_count_weight(), usable)
              .has_value())
          << GetParam() << " fiber " << f << " node " << dst;
    }
  }
}

TEST_P(ExtraTopologyProperty, TunnelsSurviveSingleCuts) {
  const Topology topo =
      std::string(GetParam()) == "abilene" ? make_abilene() : make_geant();
  const TunnelSet tunnels = build_tunnels(topo.network, topo.flows);
  EXPECT_EQ(tunnels.num_tunnels(), 4 * static_cast<int>(topo.flows.size()));
  for (FiberId f = 0; f < topo.network.num_fibers(); ++f) {
    const std::vector<FiberId> failed{f};
    for (const Flow& flow : topo.flows) {
      bool alive = false;
      for (TunnelId t : tunnels.tunnels_for_flow(flow.id)) {
        if (tunnels.alive(topo.network, t, failed)) {
          alive = true;
          break;
        }
      }
      EXPECT_TRUE(alive) << GetParam() << " flow " << flow.id << " fiber " << f;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Extra, ExtraTopologyProperty,
                         ::testing::Values("abilene", "geant"));

}  // namespace
}  // namespace prete::net
