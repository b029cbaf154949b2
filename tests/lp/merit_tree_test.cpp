#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "lp/merit_tree.h"
#include "util/rng.h"

namespace prete::lp {
namespace {

// The scan the tree replaces: visit the window's leaves in rotation order
// (begin .. end, then from leaf 0 past the wrap) and keep a leaf when its
// merit is strictly larger, or equal at a lower index. Negative merits are
// ineligible.
int scan(const std::vector<double>& merit, int begin, int count) {
  const int n = static_cast<int>(merit.size());
  int best = -1;
  for (int k = 0; k < count; ++k) {
    const int j = (begin + k) % n;
    const double mj = merit[static_cast<std::size_t>(j)];
    if (mj < 0.0) continue;
    if (best < 0 || mj > merit[static_cast<std::size_t>(best)] ||
        (mj == merit[static_cast<std::size_t>(best)] && j < best)) {
      best = j;
    }
  }
  return best;
}

// Merits drawn from a handful of values so that equal-merit ties are
// common, with a share of ineligible leaves.
double draw_merit(util::Rng& rng) {
  static constexpr double kValues[] = {MeritTree::kIneligible, 0.25, 1.0, 1.0, 3.5, 1e-21};
  if (rng.bernoulli(0.3)) return rng.uniform(0.0, 4.0);
  return kValues[rng.next_below(6)];
}

void expect_matches_scan(const MeritTree& tree, const std::vector<double>& merit,
                         util::Rng& rng) {
  const int n = static_cast<int>(merit.size());
  ASSERT_EQ(tree.best(0, n), scan(merit, 0, n)) << "full range";
  // Every window size, at a random offset each (wrapping whenever the
  // window runs past the last leaf).
  for (int count = 1; count <= n; ++count) {
    const int begin = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    ASSERT_EQ(tree.best_wrapped(begin, count), scan(merit, begin, count))
        << "window begin " << begin << " count " << count;
  }
  for (int trial = 0; trial < 32; ++trial) {
    const int a = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n) + 1));
    const int b = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n) + 1));
    const int lo = a < b ? a : b;
    const int hi = a < b ? b : a;
    ASSERT_EQ(tree.best(lo, hi), scan(merit, lo, hi - lo))
        << "range [" << lo << ", " << hi << ")";
  }
}

class MeritTreeProperty : public ::testing::TestWithParam<int> {};

// Loads, single-leaf updates (including leaves turning ineligible and back)
// and rebuilds: after each, the tree names the same leaf as the scan on the
// full range, on every window size, and on random ranges.
TEST_P(MeritTreeProperty, AgreesWithLinearScan) {
  util::Rng rng(static_cast<std::uint64_t>(7700 + GetParam()));
  static constexpr int kSizes[] = {1, 2, 3, 5, 8, 13, 64, 100, 257, 1000};
  const int n = kSizes[static_cast<std::size_t>(GetParam()) % 10];
  MeritTree tree;
  tree.reset(n);
  std::vector<double> merit(static_cast<std::size_t>(n), MeritTree::kIneligible);
  ASSERT_EQ(tree.best(0, n), -1);
  ASSERT_EQ(tree.best_wrapped(n / 2, n), -1);

  for (int j = 0; j < n; ++j) {
    merit[static_cast<std::size_t>(j)] = draw_merit(rng);
    tree.load(j, merit[static_cast<std::size_t>(j)]);
  }
  tree.build();
  expect_matches_scan(tree, merit, rng);

  for (int round = 0; round < 6; ++round) {
    const int updates = 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    for (int u = 0; u < updates; ++u) {
      const int j = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      // Bias toward the current winner so that it is often dethroned,
      // demoted to ineligible, or tied.
      const int winner = tree.best(0, n);
      const int target = winner >= 0 && rng.bernoulli(0.3) ? winner : j;
      merit[static_cast<std::size_t>(target)] = draw_merit(rng);
      tree.update(target, merit[static_cast<std::size_t>(target)]);
      ASSERT_EQ(tree.best(0, n), scan(merit, 0, n)) << "after update of " << target;
    }
    expect_matches_scan(tree, merit, rng);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeritTreeProperty, ::testing::Range(0, 20));

TEST(MeritTreeTest, EqualMeritsGoToTheLowestIndex) {
  MeritTree tree;
  tree.reset(6);
  for (const int j : {4, 1, 3}) tree.update(j, 2.0);
  EXPECT_EQ(tree.best(0, 6), 1);
  EXPECT_EQ(tree.best(2, 6), 3);
  // Across the wrap the lower index still wins the tie: window 3, 4, 5, 0, 1.
  EXPECT_EQ(tree.best_wrapped(3, 5), 1);
  tree.update(1, MeritTree::kIneligible);
  EXPECT_EQ(tree.best(0, 6), 3);
  tree.update(5, 2.5);
  EXPECT_EQ(tree.best_wrapped(4, 3), 5);
  EXPECT_EQ(tree.best(0, 3), -1);
}

}  // namespace
}  // namespace prete::lp
