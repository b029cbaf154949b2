#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace prete::util {

// Descriptive statistics over a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Summary summarize(std::span<const double> values);

// Empirical quantile with linear interpolation; q in [0, 1].
double quantile(std::vector<double> values, double q);

// Empirical CDF evaluated at sorted sample points. Returns (x, F(x)) pairs
// suitable for printing figure series.
struct CdfPoint {
  double x;
  double f;
};
std::vector<CdfPoint> empirical_cdf(std::vector<double> values);

// Downsamples a CDF to at most `max_points` evenly spaced points (keeps the
// first and last), for compact bench output. Throws std::invalid_argument
// when `max_points < 2` — the endpoints cannot both be kept.
std::vector<CdfPoint> thin_cdf(const std::vector<CdfPoint>& cdf,
                               std::size_t max_points);

// Pearson correlation coefficient. Returns 0 for degenerate inputs.
double pearson_correlation(std::span<const double> xs, std::span<const double> ys);

// Ordinary least squares fit y = a + b x. Paper §6.1 fits a linear function
// between per-fiber degradation and failure counts.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r2 = 0.0;
};
LinearFit fit_linear(std::span<const double> xs, std::span<const double> ys);

// --- Hypothesis testing -----------------------------------------------------

// Regularized lower incomplete gamma P(a, x); used for chi-square p-values.
double regularized_gamma_p(double a, double x);

// Survival function of the chi-square distribution with `dof` degrees of
// freedom, i.e. the p-value of an observed statistic.
double chi_square_sf(double statistic, int dof);

// Pearson chi-square test of independence on an r x c contingency table
// (row-major). Mirrors the paper's §3 tests (Tables 1, 6, 7).
struct ChiSquareResult {
  double statistic = 0.0;
  int dof = 0;
  double p_value = 1.0;
  // log10 of the p-value, computed in log-space so p-values like 1e-50
  // (Table 6) are representable.
  double log10_p = 0.0;
};
ChiSquareResult chi_square_independence(const std::vector<std::vector<double>>& table);

// Equal-width binning of a continuous feature (paper §3.2) followed by a
// chi-square independence test of bin vs. binary outcome.
ChiSquareResult chi_square_binned(std::span<const double> values,
                                  std::span<const int> outcomes, int bins);

}  // namespace prete::util
