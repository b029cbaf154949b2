#include "net/srlg.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "net/topology.h"

namespace prete::net {
namespace {

TEST(SrlgTest, MembersPartitionTheFibers) {
  const Topology topo = make_ibm();
  const int n = topo.network.num_fibers();
  // Bundle every third fiber with its successor; the rest stay singletons.
  std::vector<std::vector<FiberId>> groups;
  for (FiberId f = 0; f + 1 < n; f += 3) groups.push_back({f + 1, f});
  const SrlgMap map = srlg_from_groups(n, groups);
  EXPECT_EQ(map.num_groups, n - static_cast<int>(groups.size()));
  std::vector<int> seen(static_cast<std::size_t>(n), 0);
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
  const int n = topo.network.num_fibers();
  const SrlgMap merged = srlg_from_groups(n, {{0, 1, 2}});
  ASSERT_EQ(merged.num_groups, 1);
  const auto probs = group_probabilities(merged, {0.1, 0.2, 0.3});
  // 1 - 0.9*0.8*0.7 = 0.496.
  EXPECT_NEAR(probs[0], 0.496, 1e-12);

  const SrlgMap singletons = srlg_from_groups(n, {});
  const auto same = group_probabilities(singletons, {0.1, 0.2, 0.3});
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
