#include "lp/simplex.h"

#include <gtest/gtest.h>

#include <climits>
#include <cmath>

#include "certificate.h"
#include "lp/model.h"
#include "util/rng.h"

namespace prete::lp {
namespace {

TEST(SimplexTest, TrivialBoundsOnly) {
  Model m(Sense::kMaximize);
  m.add_variable(0.0, 5.0, 1.0);
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(s.objective, 5.0);
  EXPECT_DOUBLE_EQ(s.x[0], 5.0);
}

TEST(SimplexTest, UnboundedWithoutRows) {
  Model m(Sense::kMaximize);
  m.add_variable(0.0, kInfinity, 1.0);
  EXPECT_EQ(SimplexSolver().solve(m).status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, ClassicTwoVariableMax) {
  // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18  -> x=2, y=6, obj=36.
  Model m(Sense::kMaximize);
  const int x = m.add_variable(0, kInfinity, 3.0);
  const int y = m.add_variable(0, kInfinity, 5.0);
  m.add_row({{x, 1.0}}, RowType::kLessEqual, 4.0);
  m.add_row({{y, 2.0}}, RowType::kLessEqual, 12.0);
  m.add_row({{x, 3.0}, {y, 2.0}}, RowType::kLessEqual, 18.0);
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 36.0, 1e-8);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 2.0, 1e-8);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(y)], 6.0, 1e-8);
}

TEST(SimplexTest, MinimizationWithGreaterEqual) {
  // min 2x + 3y st x + y >= 10, x >= 2 -> x=8? No: cost favors x (2<3), so
  // y=0, x=10, obj=20.
  Model m(Sense::kMinimize);
  const int x = m.add_variable(2.0, kInfinity, 2.0);
  const int y = m.add_variable(0.0, kInfinity, 3.0);
  m.add_row({{x, 1.0}, {y, 1.0}}, RowType::kGreaterEqual, 10.0);
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 20.0, 1e-8);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 10.0, 1e-8);
}

TEST(SimplexTest, EqualityConstraint) {
  // min x + y st x + 2y = 4, 0 <= x,y <= 3 -> y=2, x=0, obj=2.
  Model m;
  const int x = m.add_variable(0, 3, 1.0);
  const int y = m.add_variable(0, 3, 1.0);
  m.add_row({{x, 1.0}, {y, 2.0}}, RowType::kEqual, 4.0);
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-8);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(y)], 2.0, 1e-8);
}

TEST(SimplexTest, InfeasibleDetected) {
  Model m;
  const int x = m.add_variable(0, 1, 1.0);
  m.add_row({{x, 1.0}}, RowType::kGreaterEqual, 2.0);
  EXPECT_EQ(SimplexSolver().solve(m).status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, InfeasibleSystemOfEqualities) {
  Model m;
  const int x = m.add_variable(0, kInfinity, 0.0);
  const int y = m.add_variable(0, kInfinity, 0.0);
  m.add_row({{x, 1.0}, {y, 1.0}}, RowType::kEqual, 1.0);
  m.add_row({{x, 1.0}, {y, 1.0}}, RowType::kEqual, 2.0);
  EXPECT_EQ(SimplexSolver().solve(m).status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, UnboundedDetected) {
  Model m(Sense::kMaximize);
  const int x = m.add_variable(0, kInfinity, 1.0);
  const int y = m.add_variable(0, kInfinity, 0.0);
  m.add_row({{x, 1.0}, {y, -1.0}}, RowType::kLessEqual, 1.0);
  EXPECT_EQ(SimplexSolver().solve(m).status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, NegativeLowerBounds) {
  // min x st x >= -5 with row x >= -3 -> x=-3.
  Model m;
  const int x = m.add_variable(-5.0, kInfinity, 1.0);
  m.add_row({{x, 1.0}}, RowType::kGreaterEqual, -3.0);
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[0], -3.0, 1e-8);
}

TEST(SimplexTest, FreeVariable) {
  // min y st y >= x - 4, y >= -x, x free -> optimum at x=2, y=-2.
  Model m;
  const int x = m.add_variable(-kInfinity, kInfinity, 0.0);
  const int y = m.add_variable(-kInfinity, kInfinity, 1.0);
  m.add_row({{y, 1.0}, {x, -1.0}}, RowType::kGreaterEqual, -4.0);
  m.add_row({{y, 1.0}, {x, 1.0}}, RowType::kGreaterEqual, 0.0);
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -2.0, 1e-8);
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Multiple redundant constraints intersecting at the optimum.
  Model m(Sense::kMaximize);
  const int x = m.add_variable(0, kInfinity, 1.0);
  const int y = m.add_variable(0, kInfinity, 1.0);
  m.add_row({{x, 1.0}, {y, 1.0}}, RowType::kLessEqual, 1.0);
  m.add_row({{x, 1.0}, {y, 1.0}}, RowType::kLessEqual, 1.0);
  m.add_row({{x, 2.0}, {y, 2.0}}, RowType::kLessEqual, 2.0);
  m.add_row({{x, 1.0}}, RowType::kLessEqual, 1.0);
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 1.0, 1e-8);
}

TEST(SimplexTest, DualsMatchShadowPrices) {
  // max 3x + 5y with binding rows; duals must equal d(obj)/d(rhs).
  Model m(Sense::kMaximize);
  const int x = m.add_variable(0, kInfinity, 3.0);
  const int y = m.add_variable(0, kInfinity, 5.0);
  m.add_row({{x, 1.0}}, RowType::kLessEqual, 4.0);
  const int r1 = m.add_row({{y, 2.0}}, RowType::kLessEqual, 12.0);
  const int r2 = m.add_row({{x, 3.0}, {y, 2.0}}, RowType::kLessEqual, 18.0);
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  // Known duals: y1 = 3/2, y2 = 1, y0 = 0 (non-binding).
  EXPECT_NEAR(s.duals[static_cast<std::size_t>(r1)], 1.5, 1e-8);
  EXPECT_NEAR(s.duals[static_cast<std::size_t>(r2)], 1.0, 1e-8);
  EXPECT_NEAR(s.duals[0], 0.0, 1e-8);

  // Numerical check: perturb rhs of r2 and compare.
  Model m2 = m;
  Row perturbed = m2.row(r2);
  Model m3(Sense::kMaximize);
  const int x3 = m3.add_variable(0, kInfinity, 3.0);
  const int y3 = m3.add_variable(0, kInfinity, 5.0);
  m3.add_row({{x3, 1.0}}, RowType::kLessEqual, 4.0);
  m3.add_row({{y3, 2.0}}, RowType::kLessEqual, 12.0);
  m3.add_row({{x3, 3.0}, {y3, 2.0}}, RowType::kLessEqual, 18.0 + 0.5);
  const Solution s3 = SimplexSolver().solve(m3);
  ASSERT_EQ(s3.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s3.objective - s.objective,
              0.5 * s.duals[static_cast<std::size_t>(r2)], 1e-7);
}

TEST(SimplexTest, MaxFlowAsLp) {
  // 4-node max flow: s->a (cap 3), s->b (cap 2), a->t (cap 2), b->t (cap 3),
  // a->b (cap 1). Max flow = 5 (2 via a->t, 2 via b->t, 1 via a->b->t);
  // the min cut is the source's outgoing capacity 3+2.
  Model m(Sense::kMaximize);
  const int sa = m.add_variable(0, 3, 0);
  const int sb = m.add_variable(0, 2, 0);
  const int at = m.add_variable(0, 2, 0);
  const int bt = m.add_variable(0, 3, 0);
  const int ab = m.add_variable(0, 1, 0);
  const int f = m.add_variable(0, kInfinity, 1.0);
  // Conservation: a: sa = at + ab; b: sb + ab = bt; s: sa + sb = f.
  m.add_row({{sa, 1.0}, {at, -1.0}, {ab, -1.0}}, RowType::kEqual, 0.0);
  m.add_row({{sb, 1.0}, {ab, 1.0}, {bt, -1.0}}, RowType::kEqual, 0.0);
  m.add_row({{sa, 1.0}, {sb, 1.0}, {f, -1.0}}, RowType::kEqual, 0.0);
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 5.0, 1e-8);
}

// Property: for random feasible-by-construction LPs, the solver's solution
// must satisfy all constraints and beat a sample of random feasible points.
class RandomLpProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpProperty, OptimalIsFeasibleAndDominant) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int n = 3 + static_cast<int>(rng.next_below(6));
  const int rows = 2 + static_cast<int>(rng.next_below(6));

  Model m(Sense::kMaximize);
  for (int j = 0; j < n; ++j) {
    m.add_variable(0.0, rng.uniform(0.5, 5.0), rng.uniform(-1.0, 2.0));
  }
  // Random interior point defines achievable rhs values, so feasibility is
  // guaranteed by construction.
  std::vector<double> interior(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    interior[static_cast<std::size_t>(j)] =
        rng.uniform(0.0, m.variable(j).upper);
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<Coefficient> coefs;
    double lhs = 0.0;
    for (int j = 0; j < n; ++j) {
      if (rng.bernoulli(0.6)) {
        const double a = rng.uniform(-1.0, 3.0);
        coefs.push_back({j, a});
        lhs += a * interior[static_cast<std::size_t>(j)];
      }
    }
    if (coefs.empty()) coefs.push_back({0, 1.0});
    m.add_row(std::move(coefs), RowType::kLessEqual, lhs + rng.uniform(0.0, 2.0));
  }

  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal) << "seed " << GetParam();
  EXPECT_LT(m.max_violation(s.x), 1e-6);
  EXPECT_NEAR(m.objective_value(s.x), s.objective, 1e-6);

  // The optimum must dominate the interior point and random feasible probes.
  EXPECT_GE(s.objective, m.objective_value(interior) - 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpProperty, ::testing::Range(1, 33));

// Property: LP duality. For random feasible bounded problems, verify weak
// duality via the dual values: obj == sum(duals * rhs) + bound terms is hard
// in general, so instead verify the shadow-price property numerically.
class DualShadowPriceProperty : public ::testing::TestWithParam<int> {};

TEST_P(DualShadowPriceProperty, DualsPredictRhsPerturbation) {
  util::Rng rng(static_cast<std::uint64_t>(1000 + GetParam()));
  const int n = 4;
  Model m(Sense::kMinimize);
  for (int j = 0; j < n; ++j) {
    m.add_variable(0.0, 10.0, rng.uniform(0.5, 2.0));
  }
  // Covering rows keep the problem feasible and bounded.
  std::vector<double> rhs_values;
  for (int i = 0; i < 3; ++i) {
    std::vector<Coefficient> coefs;
    for (int j = 0; j < n; ++j) {
      coefs.push_back({j, rng.uniform(0.2, 1.5)});
    }
    const double rhs = rng.uniform(1.0, 5.0);
    rhs_values.push_back(rhs);
    m.add_row(std::move(coefs), RowType::kGreaterEqual, rhs);
  }
  const Solution base = SimplexSolver().solve(m);
  ASSERT_EQ(base.status, SolveStatus::kOptimal);

  // Perturb each rhs in turn; objective change must match dual within the
  // perturbation's linear regime.
  for (int i = 0; i < 3; ++i) {
    Model m2 = m;
    Row row = m2.row(i);
    row.rhs += 1e-4;
    // Rebuild model with modified row (Model has no row mutation by design).
    Model m3(Sense::kMinimize);
    for (int j = 0; j < n; ++j) {
      const auto& v = m.variable(j);
      m3.add_variable(v.lower, v.upper, v.objective);
    }
    for (int r = 0; r < m.num_rows(); ++r) {
      Row copy = m.row(r);
      if (r == i) copy.rhs += 1e-4;
      m3.add_row(copy);
    }
    const Solution pert = SimplexSolver().solve(m3);
    ASSERT_EQ(pert.status, SolveStatus::kOptimal);
    EXPECT_NEAR(pert.objective - base.objective,
                1e-4 * base.duals[static_cast<std::size_t>(i)], 1e-7)
        << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DualShadowPriceProperty,
                         ::testing::Range(1, 17));

TEST(SimplexTest, ModeratelyLargeTransportProblem) {
  // Transportation LP: 20 sources x 20 sinks; known optimal by symmetry.
  constexpr int kN = 20;
  Model m(Sense::kMinimize);
  std::vector<std::vector<int>> x(kN, std::vector<int>(kN));
  util::Rng rng(77);
  for (int i = 0; i < kN; ++i) {
    for (int j = 0; j < kN; ++j) {
      // Parity cost: cost-1 cells form a balanced bipartite structure, so
      // the optimum provably routes everything at cost 1.
      x[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          m.add_variable(0, kInfinity, 1.0 + ((i + j) % 2));
    }
  }
  for (int i = 0; i < kN; ++i) {
    std::vector<Coefficient> coefs;
    for (int j = 0; j < kN; ++j) {
      coefs.push_back({x[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], 1.0});
    }
    m.add_row(std::move(coefs), RowType::kEqual, 5.0);  // supply
  }
  for (int j = 0; j < kN; ++j) {
    std::vector<Coefficient> coefs;
    for (int i = 0; i < kN; ++i) {
      coefs.push_back({x[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], 1.0});
    }
    m.add_row(std::move(coefs), RowType::kEqual, 5.0);  // demand
  }
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  // All cost-1 cells can be used (each row/col has them), so optimum = 100.
  EXPECT_NEAR(s.objective, 100.0, 1e-6);
  EXPECT_TRUE(is_certified_optimal(m, s));
}

// Property: the incremental devex pricing path ends at a certified optimum,
// and its exported basis is a valid optimal warm start (re-solving from it
// takes 0 pivots and returns the same value).
class PricingEquivalenceProperty : public ::testing::TestWithParam<int> {};

TEST_P(PricingEquivalenceProperty, SameOptimumAndReusableBasis) {
  util::Rng rng(static_cast<std::uint64_t>(4000 + GetParam()));
  const int n = 4 + static_cast<int>(rng.next_below(8));
  const int rows = 3 + static_cast<int>(rng.next_below(8));

  Model m(Sense::kMaximize);
  for (int j = 0; j < n; ++j) {
    m.add_variable(0.0, rng.uniform(0.5, 5.0), rng.uniform(-1.0, 2.0));
  }
  std::vector<double> interior(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    interior[static_cast<std::size_t>(j)] =
        rng.uniform(0.0, m.variable(j).upper);
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<Coefficient> coefs;
    double lhs = 0.0;
    for (int j = 0; j < n; ++j) {
      if (rng.bernoulli(0.6)) {
        const double a = rng.uniform(-1.0, 3.0);
        coefs.push_back({j, a});
        lhs += a * interior[static_cast<std::size_t>(j)];
      }
    }
    if (coefs.empty()) coefs.push_back({0, 1.0});
    m.add_row(std::move(coefs), RowType::kLessEqual,
              lhs + rng.uniform(0.0, 2.0));
  }

  SimplexBasis basis;
  const Solution cold = SimplexSolver().solve(m, nullptr, &basis);
  ASSERT_TRUE(is_certified_optimal(m, cold)) << "seed " << GetParam();
  ASSERT_TRUE(basis.valid());
  const Solution again = SimplexSolver().solve(m, &basis, nullptr);
  EXPECT_TRUE(is_certified_optimal(m, again)) << "seed " << GetParam();
  EXPECT_EQ(again.iterations, 0) << "seed " << GetParam();
  EXPECT_NEAR(again.objective, cold.objective, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PricingEquivalenceProperty,
                         ::testing::Range(1, 25));

// A row that lists a variable twice means the sum of its coefficients:
// 1*x0 + 2*x0 + x1 <= 6 is 3*x0 + x1 <= 6, so the optimum is (5/3, 1). Both
// anchors must read it so: an FTRAN that kept only the last duplicate would
// return the infeasible (2.5, 1).
TEST(SimplexTest, RepeatedVariableInRowIsSummed) {
  for (const int lu_threshold : {1, INT_MAX}) {
    SCOPED_TRACE(lu_threshold == 1 ? "LU anchor" : "explicit anchor");
    Model m(Sense::kMaximize);
    const int x0 = m.add_variable(0, kInfinity, 1.0);
    const int x1 = m.add_variable(0, kInfinity, 1.0);
    m.add_row({{x0, 1.0}, {x0, 2.0}, {x1, 1.0}}, RowType::kLessEqual, 6.0);
    m.add_row({{x1, 1.0}}, RowType::kLessEqual, 1.0);
    m.add_row({{x0, 1.0}, {x1, -1.0}}, RowType::kGreaterEqual, 0.0);
    SimplexOptions options;
    options.lu_threshold = lu_threshold;
    const Solution s = SimplexSolver(options).solve(m);
    EXPECT_TRUE(is_certified_optimal(m, s));
    ASSERT_EQ(s.x.size(), 2u);
    EXPECT_NEAR(s.x[static_cast<std::size_t>(x0)], 5.0 / 3.0, 1e-9);
    EXPECT_NEAR(s.x[static_cast<std::size_t>(x1)], 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace prete::lp
