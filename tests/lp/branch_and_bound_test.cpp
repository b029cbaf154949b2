#include "lp/branch_and_bound.h"

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <vector>

#include "util/rng.h"

namespace prete::lp {
namespace {

TEST(BranchAndBoundTest, PureLpPassthrough) {
  Model m(Sense::kMaximize);
  const int x = m.add_variable(0, 4.5, 1.0);
  m.add_row({{x, 1.0}}, RowType::kLessEqual, 3.2);
  const Solution s = BranchAndBound().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.2, 1e-8);
}

TEST(BranchAndBoundTest, SimpleKnapsack) {
  // max 5a + 4b + 3c st 2a + 3b + c <= 5, binary -> a=1, c=1: 8? a=1,b=1: 9.
  Model m(Sense::kMaximize);
  const int a = m.add_binary(5.0);
  const int b = m.add_binary(4.0);
  const int c = m.add_binary(3.0);
  m.add_row({{a, 2.0}, {b, 3.0}, {c, 1.0}}, RowType::kLessEqual, 5.0);
  const Solution s = BranchAndBound().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 9.0, 1e-6);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(a)], 1.0, 1e-6);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(b)], 1.0, 1e-6);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(c)], 0.0, 1e-6);
}

TEST(BranchAndBoundTest, GeneralIntegerRounding) {
  // max x st 2x <= 7, x integer -> x=3 (LP relaxation gives 3.5).
  Model m(Sense::kMaximize);
  const int x = m.add_integer(0, 100, 1.0);
  m.add_row({{x, 2.0}}, RowType::kLessEqual, 7.0);
  const Solution s = BranchAndBound().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-6);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 3.0, 1e-6);
}

TEST(BranchAndBoundTest, InfeasibleBinary) {
  Model m;
  const int a = m.add_binary(1.0);
  const int b = m.add_binary(1.0);
  m.add_row({{a, 1.0}, {b, 1.0}}, RowType::kGreaterEqual, 3.0);
  EXPECT_EQ(BranchAndBound().solve(m).status, SolveStatus::kInfeasible);
}

TEST(BranchAndBoundTest, EqualityCover) {
  // min a + b + c st a + b + c = 2 (binary) -> objective 2.
  Model m;
  const int a = m.add_binary(1.0);
  const int b = m.add_binary(1.0);
  const int c = m.add_binary(1.0);
  m.add_row({{a, 1.0}, {b, 1.0}, {c, 1.0}}, RowType::kEqual, 2.0);
  const Solution s = BranchAndBound().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-6);
  for (int v : {a, b, c}) {
    const double xv = s.x[static_cast<std::size_t>(v)];
    EXPECT_TRUE(std::abs(xv) < 1e-6 || std::abs(xv - 1.0) < 1e-6);
  }
}

TEST(BranchAndBoundTest, MixedIntegerProblem) {
  // max 2i + y st i + y <= 3.7, y <= 1.5, i binary*3 -> i in {0..3} via three
  // binaries, y continuous. Optimum: i-sum=3, y=0.7 -> 6.7.
  Model m(Sense::kMaximize);
  const int i1 = m.add_binary(2.0);
  const int i2 = m.add_binary(2.0);
  const int i3 = m.add_binary(2.0);
  const int y = m.add_variable(0, 1.5, 1.0);
  m.add_row({{i1, 1.0}, {i2, 1.0}, {i3, 1.0}, {y, 1.0}}, RowType::kLessEqual,
            3.7);
  const Solution s = BranchAndBound().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 6.7, 1e-6);
}

TEST(BranchAndBoundTest, FractionallyFixedIntegerInfeasible) {
  // The equality 2z = 1 admits only z = 0.5, so branching on the integer z
  // must prove the model infeasible.
  Model m(Sense::kMaximize);
  const int z = m.add_integer(0, 4, 1.0);
  m.add_row({{z, 2.0}}, RowType::kEqual, 1.0);
  EXPECT_EQ(BranchAndBound().solve(m).status, SolveStatus::kInfeasible);
}

TEST(BranchAndBoundTest, RepeatedVariableInRowIsSummed) {
  // x0 + 2*x0 + x1 <= 6 is 3*x0 + x1 <= 6: with x1 <= 1 and x0 >= x1 the
  // relaxation peaks at x0 = 5/3, so the integer x0 stops at 1. Reading only
  // the last duplicate (2*x0 + x1 <= 6) would admit x0 = 2.
  for (const int lu_threshold : {1, INT_MAX}) {
    SCOPED_TRACE(lu_threshold == 1 ? "LU anchor" : "explicit anchor");
    Model m(Sense::kMaximize);
    const int x0 = m.add_integer(0, 10, 1.0);
    const int x1 = m.add_variable(0, kInfinity, 1.0);
    m.add_row({{x0, 1.0}, {x0, 2.0}, {x1, 1.0}}, RowType::kLessEqual, 6.0);
    m.add_row({{x1, 1.0}}, RowType::kLessEqual, 1.0);
    m.add_row({{x0, 1.0}, {x1, -1.0}}, RowType::kGreaterEqual, 0.0);
    BranchAndBoundOptions options;
    options.simplex.lu_threshold = lu_threshold;
    const Solution s = BranchAndBound(options).solve(m);
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    EXPECT_NEAR(s.objective, 2.0, 1e-9);
    EXPECT_EQ(s.x[static_cast<std::size_t>(x0)], 1.0);
    EXPECT_LT(m.max_violation(s.x), 1e-9);
  }
}

// Property: B&B on random small knapsacks must match brute-force enumeration.
class KnapsackProperty : public ::testing::TestWithParam<int> {};

TEST_P(KnapsackProperty, MatchesBruteForce) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam() * 31 + 7));
  const int n = 3 + static_cast<int>(rng.next_below(8));
  std::vector<double> value(static_cast<std::size_t>(n));
  std::vector<double> weight(static_cast<std::size_t>(n));
  double total_weight = 0.0;
  for (int j = 0; j < n; ++j) {
    value[static_cast<std::size_t>(j)] = rng.uniform(1.0, 10.0);
    weight[static_cast<std::size_t>(j)] = rng.uniform(1.0, 5.0);
    total_weight += weight[static_cast<std::size_t>(j)];
  }
  const double capacity = rng.uniform(0.3, 0.7) * total_weight;

  Model m(Sense::kMaximize);
  std::vector<Coefficient> row;
  for (int j = 0; j < n; ++j) {
    m.add_binary(value[static_cast<std::size_t>(j)]);
    row.push_back({j, weight[static_cast<std::size_t>(j)]});
  }
  m.add_row(std::move(row), RowType::kLessEqual, capacity);
  const Solution s = BranchAndBound().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);

  double best = 0.0;
  for (int mask = 0; mask < (1 << n); ++mask) {
    double w = 0.0;
    double v = 0.0;
    for (int j = 0; j < n; ++j) {
      if (mask & (1 << j)) {
        w += weight[static_cast<std::size_t>(j)];
        v += value[static_cast<std::size_t>(j)];
      }
    }
    if (w <= capacity) best = std::max(best, v);
  }
  EXPECT_NEAR(s.objective, best, 1e-6) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnapsackProperty, ::testing::Range(1, 25));

Model random_knapsack(std::uint64_t seed, int items) {
  util::Rng rng(seed);
  Model m(Sense::kMaximize);
  std::vector<Coefficient> row;
  for (int j = 0; j < items; ++j) {
    m.add_binary(rng.uniform(1.0, 10.0));
    row.push_back({j, rng.uniform(1.0, 5.0)});
  }
  double total = 0.0;
  for (const auto& c : row) total += c.value;
  m.add_row(std::move(row), RowType::kLessEqual, 0.45 * total);
  return m;
}

// Wave evaluation explores a different node order than the serial search,
// but both must land on the optimum.
TEST(BranchAndBoundWaveTest, WaveMatchesSerialOptimum) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Model m = random_knapsack(seed * 131 + 5, 14);
    BranchAndBoundOptions serial;
    serial.wave_size = 1;
    BranchAndBoundOptions waved;
    waved.wave_size = 8;
    const Solution a = BranchAndBound(serial).solve(m);
    const Solution b = BranchAndBound(waved).solve(m);
    ASSERT_EQ(a.status, SolveStatus::kOptimal) << "seed " << seed;
    ASSERT_EQ(b.status, SolveStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(a.objective, b.objective, 1e-9) << "seed " << seed;
  }
}

TEST(BranchAndBoundWaveTest, WorkCountersPopulated) {
  const Model m = random_knapsack(97, 12);
  const Solution s = BranchAndBound().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_GE(s.nodes_explored, 1);
  EXPECT_GE(s.iterations, 1);       // total pivots across node relaxations
  EXPECT_GE(s.eta_peak, 0);
  // Pure LP solves report zero nodes.
  Model lp(Sense::kMaximize);
  const int x = lp.add_variable(0, 4.5, 1.0);
  lp.add_row({{x, 1.0}}, RowType::kLessEqual, 3.2);
  EXPECT_EQ(BranchAndBound().solve(lp).nodes_explored, 0);
}

// The wave size is part of the solve's definition, never derived from the
// pool, so repeated solves must be bit-identical (the cross-thread-count
// witness lives in the runtime determinism suite).
TEST(BranchAndBoundWaveTest, RepeatedSolvesBitIdentical) {
  const Model m = random_knapsack(1234, 13);
  const Solution a = BranchAndBound().solve(m);
  const Solution b = BranchAndBound().solve(m);
  ASSERT_EQ(a.status, b.status);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.nodes_explored, b.nodes_explored);
  EXPECT_EQ(a.reinversions, b.reinversions);
  EXPECT_EQ(a.eta_peak, b.eta_peak);
}

}  // namespace
}  // namespace prete::lp
