#include "net/srlg.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "net/topology.h"

namespace prete::net {
namespace {

TEST(SrlgTest, IdentityMapIsAllSingletons) {
  const Topology topo = make_b4();
  const SrlgMap map = identity_srlg(topo.network);
  EXPECT_EQ(map.num_groups, topo.network.num_fibers());
  for (int g = 0; g < map.num_groups; ++g) {
    EXPECT_TRUE(map.singleton(g));
  }
  for (FiberId f = 0; f < topo.network.num_fibers(); ++f) {
    EXPECT_GE(map.group_of[static_cast<std::size_t>(f)], 0);
  }
}

TEST(SrlgTest, SampleZeroProbabilityIsIdentity) {
  const Topology topo = make_b4();
  util::Rng rng(1);
  const SrlgMap map = sample_srlg(topo.network, 0.0, rng);
  EXPECT_EQ(map.num_groups, topo.network.num_fibers());
}

TEST(SrlgTest, SampleOneMergesAdjacent) {
  // With share probability 1, every adjacent fiber pair merges; on a
  // connected topology's line graph that collapses everything into one group.
  const Topology topo = make_b4();
  util::Rng rng(2);
  const SrlgMap map = sample_srlg(topo.network, 1.0, rng);
  EXPECT_EQ(map.num_groups, 1);
  EXPECT_EQ(map.members[0].size(),
            static_cast<std::size_t>(topo.network.num_fibers()));
}

TEST(SrlgTest, MembersPartitionTheFibers) {
  const Topology topo = make_ibm();
  util::Rng rng(3);
  const SrlgMap map = sample_srlg(topo.network, 0.15, rng);
  std::vector<int> seen(static_cast<std::size_t>(topo.network.num_fibers()), 0);
  for (int g = 0; g < map.num_groups; ++g) {
    for (FiberId f : map.members[static_cast<std::size_t>(g)]) {
      ++seen[static_cast<std::size_t>(f)];
      EXPECT_EQ(map.group_of[static_cast<std::size_t>(f)], g);
    }
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(SrlgTest, GroupProbabilitiesCombineIndependently) {
  const Topology topo = make_triangle();
  util::Rng rng(5);
  const SrlgMap merged = sample_srlg(topo.network, 1.0, rng);
  ASSERT_EQ(merged.num_groups, 1);
  const auto probs = group_probabilities(merged, {0.1, 0.2, 0.3});
  // 1 - 0.9*0.8*0.7 = 0.496.
  EXPECT_NEAR(probs[0], 0.496, 1e-12);

  const SrlgMap identity = identity_srlg(topo.network);
  const auto same = group_probabilities(identity, {0.1, 0.2, 0.3});
  EXPECT_DOUBLE_EQ(same[0], 0.1);
  EXPECT_DOUBLE_EQ(same[2], 0.3);
}

TEST(SrlgTest, FromGroupsAssignsListedThenSingletons) {
  const SrlgMap map = srlg_from_groups(6, {{1, 2}, {4, 5}});
  EXPECT_EQ(map.num_groups, 4);  // 2 bundles + singletons {0} and {3}
  EXPECT_EQ(map.group_of[1], 0);
  EXPECT_EQ(map.group_of[2], 0);
  EXPECT_EQ(map.group_of[4], 1);
  EXPECT_EQ(map.group_of[5], 1);
  EXPECT_EQ(map.group_of[0], 2);
  EXPECT_EQ(map.group_of[3], 3);
  EXPECT_TRUE(map.singleton(2));
  EXPECT_TRUE(map.singleton(3));
  EXPECT_FALSE(map.singleton(0));
  EXPECT_EQ(map.members[0], (std::vector<FiberId>{1, 2}));
}

TEST(SrlgTest, FromGroupsRejectsMalformedInput) {
  EXPECT_THROW(srlg_from_groups(-1, {}), std::invalid_argument);
  EXPECT_THROW(srlg_from_groups(4, {{}}), std::invalid_argument);
  EXPECT_THROW(srlg_from_groups(4, {{0, 4}}), std::invalid_argument);
  EXPECT_THROW(srlg_from_groups(4, {{0, 1}, {1, 2}}), std::invalid_argument);
  EXPECT_THROW(srlg_from_groups(4, {{2, 2}}), std::invalid_argument);
}

}  // namespace
}  // namespace prete::net
