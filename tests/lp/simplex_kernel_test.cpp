#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "certificate.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "util/rng.h"

// Kernel properties on random models: every optimum the kernel returns
// carries an anchor-free certificate (see certificate.h), partial pricing
// reaches the same optimum as full pricing, an exported optimal basis
// warm-starts without a pivot, and the reinversion triggers fire.

namespace prete::lp {
namespace {

Model random_feasible_lp(std::uint64_t seed) {
  util::Rng rng(seed);
  const int n = 4 + static_cast<int>(rng.next_below(8));
  const int rows = 3 + static_cast<int>(rng.next_below(8));

  Model m(Sense::kMaximize);
  for (int j = 0; j < n; ++j) {
    m.add_variable(0.0, rng.uniform(0.5, 5.0), rng.uniform(-1.0, 2.0));
  }
  // A random interior point defines achievable rhs values, so the model is
  // feasible by construction; finite variable bounds keep it bounded.
  std::vector<double> interior(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    interior[static_cast<std::size_t>(j)] = rng.uniform(0.0, m.variable(j).upper);
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
    const RowType type =
        rng.bernoulli(0.2) ? RowType::kGreaterEqual : RowType::kLessEqual;
    if (type == RowType::kGreaterEqual) {
      m.add_row(std::move(coefs), type, lhs - rng.uniform(0.0, 2.0));
    } else {
      m.add_row(std::move(coefs), type, lhs + rng.uniform(0.0, 2.0));
    }
  }
  return m;
}

SimplexOptions pricing_options(int pricing_window) {
  SimplexOptions options;
  options.pricing_window = pricing_window;
  return options;
}

class CertifiedOptimumProperty : public ::testing::TestWithParam<int> {};

TEST_P(CertifiedOptimumProperty, ColdSolveAndOptimalWarmStart) {
  for (const int seed : {GetParam(), 900 + GetParam()}) {
    SCOPED_TRACE(seed);
    const Model m = random_feasible_lp(static_cast<std::uint64_t>(seed));
    SimplexBasis basis;
    const Solution cold = SimplexSolver(pricing_options(-1)).solve(m, nullptr, &basis);
    ASSERT_TRUE(is_certified_optimal(m, cold));
    // The exported basis is optimal, so re-solving from it must terminate
    // without a pivot, at a certified optimum of the same value.
    const Solution warm = SimplexSolver(pricing_options(-1)).solve(m, &basis, nullptr);
    EXPECT_TRUE(is_certified_optimal(m, warm));
    EXPECT_EQ(warm.iterations, 0) << "optimal hint should not pivot";
    EXPECT_NEAR(warm.objective, cold.objective, 1e-9 * (1.0 + std::abs(cold.objective)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CertifiedOptimumProperty, ::testing::Range(1, 25));

class KernelEquivalenceProperty : public ::testing::TestWithParam<int> {};

TEST_P(KernelEquivalenceProperty, PartialPricingMatchesFull) {
  const Model m = random_feasible_lp(static_cast<std::uint64_t>(500 + GetParam()));
  // A tiny window forces the rotation machinery through several laps.
  const Solution full = SimplexSolver(pricing_options(-1)).solve(m);
  const Solution partial = SimplexSolver(pricing_options(4)).solve(m);
  ASSERT_TRUE(is_certified_optimal(m, full));
  EXPECT_TRUE(is_certified_optimal(m, partial));
  EXPECT_NEAR(partial.objective, full.objective, 1e-9 * (1.0 + std::abs(full.objective)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelEquivalenceProperty, ::testing::Range(1, 25));

TEST(KernelStatsTest, EtaPeakAndReinversionsReported) {
  const Model m = random_feasible_lp(4242);
  SimplexOptions options = pricing_options(-1);
  options.refactor_interval = 4;  // force several reinversions
  const Solution s = SimplexSolver(options).solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  if (s.iterations >= 4) {
    EXPECT_GE(s.reinversions, 1);
    EXPECT_GE(s.eta_peak, 1);
    // The eta file survives the phase boundary (it IS the inverse) while the
    // periodic counter resets per phase, so the peak can reach the tail of
    // phase 1 plus a full phase-2 interval.
    EXPECT_LE(s.eta_peak, 2 * 4);
  }
}

// Drift regression: a cascading equality chain with factor 3e4 per row makes
// the basis inverse entries span ~(3e4)^k, so the FTRANed pivot columns
// cross the eta drift threshold (|w_i| / |w_r| > 1e7) long before any
// reasonable periodic interval. With the periodic trigger pushed out of
// reach, only the drift trigger can keep the product form anchored — the
// regression is that reinversions still happen and the answer is still a
// certified optimum.
TEST(KernelDriftTest, IllConditionedChainForcesEarlyReinversion) {
  constexpr int kChain = 12;
  constexpr double kFactor = 3e4;
  Model m(Sense::kMinimize);
  std::vector<int> x;
  for (int i = 0; i < kChain; ++i) {
    x.push_back(m.add_variable(0.0, kInfinity, 1.0));
  }
  for (int i = 0; i + 1 < kChain; ++i) {
    m.add_row({{x[static_cast<std::size_t>(i)], 1.0},
               {x[static_cast<std::size_t>(i + 1)], -kFactor}},
              RowType::kEqual, 1.0);
  }
  m.add_row({{x[static_cast<std::size_t>(kChain - 1)], 1.0}},
            RowType::kLessEqual, 2.0);

  SimplexOptions options = pricing_options(-1);
  options.refactor_interval = 1 << 20;  // periodic trigger out of reach
  const Solution s = SimplexSolver(options).solve(m);
  EXPECT_TRUE(is_certified_optimal(m, s));
  EXPECT_GE(s.reinversions, 1) << "drift trigger never fired";
}

}  // namespace
}  // namespace prete::lp
