#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.h"

namespace prete::util {
namespace {

TEST(SummaryTest, BasicMoments) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(SummaryTest, EmptyInput) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
}

TEST(QuantileTest, MedianAndExtremes) {
  std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.0);
}

TEST(QuantileTest, Interpolates) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.3), 3.0);
}

TEST(QuantileTest, ThrowsOnEmpty) {
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
}

TEST(CdfTest, MonotoneAndEndsAtOne) {
  std::vector<double> v{3.0, 1.0, 2.0, 2.0, 5.0};
  const auto cdf = empirical_cdf(v);
  ASSERT_FALSE(cdf.empty());
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GT(cdf[i].x, cdf[i - 1].x);
    EXPECT_GE(cdf[i].f, cdf[i - 1].f);
  }
  EXPECT_DOUBLE_EQ(cdf.back().f, 1.0);
  // Tie at x=2 collapses into one point with F = 3/5.
  EXPECT_EQ(cdf.size(), 4u);
  EXPECT_DOUBLE_EQ(cdf[1].f, 0.6);
}

TEST(CdfTest, ThinKeepsEndpoints) {
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  const auto cdf = empirical_cdf(v);
  const auto thin = thin_cdf(cdf, 10);
  ASSERT_EQ(thin.size(), 10u);
  EXPECT_DOUBLE_EQ(thin.front().x, cdf.front().x);
  EXPECT_DOUBLE_EQ(thin.back().x, cdf.back().x);
}

TEST(CorrelationTest, PerfectPositive) {
  std::vector<double> x{1, 2, 3, 4};
  std::vector<double> y{2, 4, 6, 8};
  EXPECT_NEAR(pearson_correlation(x, y), 1.0, 1e-12);
}

TEST(CorrelationTest, PerfectNegative) {
  std::vector<double> x{1, 2, 3, 4};
  std::vector<double> y{8, 6, 4, 2};
  EXPECT_NEAR(pearson_correlation(x, y), -1.0, 1e-12);
}

TEST(CorrelationTest, DegenerateIsZero) {
  std::vector<double> x{1, 1, 1};
  std::vector<double> y{1, 2, 3};
  EXPECT_DOUBLE_EQ(pearson_correlation(x, y), 0.0);
}

TEST(LinearFitTest, RecoversLine) {
  std::vector<double> x{0, 1, 2, 3, 4};
  std::vector<double> y;
  for (double xi : x) y.push_back(2.5 * xi + 1.0);
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 2.5, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(LinearFitTest, NoisyFitHasReasonableR2) {
  Rng rng(3);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 500; ++i) {
    const double xi = rng.uniform(0, 10);
    x.push_back(xi);
    y.push_back(3.0 * xi + rng.uniform(-0.5, 0.5));
  }
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 3.0, 0.05);
  EXPECT_GT(fit.r2, 0.99);
}

TEST(GammaTest, KnownValues) {
  // P(1, x) = 1 - e^-x.
  EXPECT_NEAR(regularized_gamma_p(1.0, 2.0), 1.0 - std::exp(-2.0), 1e-10);
  // P(0.5, x) = erf(sqrt(x)).
  EXPECT_NEAR(regularized_gamma_p(0.5, 1.0), std::erf(1.0), 1e-10);
  EXPECT_NEAR(regularized_gamma_p(3.0, 1e6), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(regularized_gamma_p(2.0, 0.0), 0.0);
}

TEST(ChiSquareSfTest, MatchesKnownQuantiles) {
  // Chi-square with 1 dof: P(X > 3.841) = 0.05.
  EXPECT_NEAR(chi_square_sf(3.841, 1), 0.05, 1e-3);
  // Chi-square with 2 dof: survival = exp(-x/2).
  EXPECT_NEAR(chi_square_sf(4.0, 2), std::exp(-2.0), 1e-10);
  EXPECT_NEAR(chi_square_sf(0.0, 3), 1.0, 1e-12);
}

TEST(ChiSquareIndependenceTest, IndependentTableHasHighP) {
  // Perfectly proportional rows: statistic 0, p-value 1.
  const std::vector<std::vector<double>> table{{10, 20}, {30, 60}};
  const auto result = chi_square_independence(table);
  EXPECT_NEAR(result.statistic, 0.0, 1e-9);
  EXPECT_NEAR(result.p_value, 1.0, 1e-9);
}

TEST(ChiSquareIndependenceTest, DependentTableRejects) {
  const std::vector<std::vector<double>> table{{90, 10}, {10, 90}};
  const auto result = chi_square_independence(table);
  EXPECT_EQ(result.dof, 1);
  EXPECT_LT(result.p_value, 1e-10);
  EXPECT_LT(result.log10_p, -10);
}

TEST(ChiSquareIndependenceTest, PaperTable6ScaleRejectsHard) {
  // The paper's contingency counts (Table 6, scaled): the test must produce
  // a representable log10 p-value even when the p-value underflows.
  const std::vector<std::vector<double>> table{{1000, 2600},
                                               {1500, 6516700}};
  const auto result = chi_square_independence(table);
  EXPECT_LT(result.log10_p, -50);
}

TEST(ChiSquareIndependenceTest, PaperTable7ScaleDoesNotReject) {
  // Table 7: the expected counts under independence — must NOT reject.
  const std::vector<std::vector<double>> table{{1.2, 3151.8},
                                               {2144.8, 5655630.2}};
  const auto result = chi_square_independence(table);
  EXPECT_GT(result.p_value, 0.01);
}

TEST(ChiSquareBinnedTest, CorrelatedFeatureRejects) {
  Rng rng(9);
  std::vector<double> values;
  std::vector<int> outcomes;
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.next_double();
    values.push_back(v);
    outcomes.push_back(rng.bernoulli(v) ? 1 : 0);  // outcome tracks feature
  }
  const auto result = chi_square_binned(values, outcomes, 10);
  EXPECT_LT(result.p_value, 0.01);
}

TEST(ChiSquareBinnedTest, IndependentFeatureDoesNotReject) {
  Rng rng(10);
  std::vector<double> values;
  std::vector<int> outcomes;
  for (int i = 0; i < 2000; ++i) {
    values.push_back(rng.next_double());
    outcomes.push_back(rng.bernoulli(0.4) ? 1 : 0);
  }
  const auto result = chi_square_binned(values, outcomes, 10);
  EXPECT_GT(result.p_value, 0.001);
}

}  // namespace
}  // namespace prete::util
