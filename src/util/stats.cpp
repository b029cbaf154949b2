#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace prete::util {

Summary summarize(std::span<const double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  double sum = 0.0;
  s.min = std::numeric_limits<double>::infinity();
  s.max = -std::numeric_limits<double>::infinity();
  for (double v : values) {
    sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = sum / static_cast<double>(s.count);
  double sq = 0.0;
  for (double v : values) sq += (v - s.mean) * (v - s.mean);
  s.stddev = s.count > 1 ? std::sqrt(sq / static_cast<double>(s.count - 1)) : 0.0;
  return s;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of empty sample");
  q = std::clamp(q, 0.0, 1.0);
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

std::vector<CdfPoint> empirical_cdf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  std::vector<CdfPoint> cdf;
  cdf.reserve(values.size());
  const double n = static_cast<double>(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    // Collapse ties so F is a function of x.
    if (!cdf.empty() && cdf.back().x == values[i]) {
      cdf.back().f = static_cast<double>(i + 1) / n;
    } else {
      cdf.push_back({values[i], static_cast<double>(i + 1) / n});
    }
  }
  return cdf;
}

std::vector<CdfPoint> thin_cdf(const std::vector<CdfPoint>& cdf,
                               std::size_t max_points) {
  if (max_points < 2) {
    // Thinning must keep the first and last point to preserve the support
    // endpoints; fewer than two output points cannot honor that, and
    // returning the full CDF would break the size contract the plotting
    // callers rely on.
    throw std::invalid_argument("thin_cdf requires max_points >= 2");
  }
  if (cdf.size() <= max_points) return cdf;
  std::vector<CdfPoint> out;
  out.reserve(max_points);
  for (std::size_t i = 0; i < max_points; ++i) {
    const std::size_t idx = i * (cdf.size() - 1) / (max_points - 1);
    out.push_back(cdf[idx]);
  }
  return out;
}

double pearson_correlation(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  const Summary sx = summarize(xs);
  const Summary sy = summarize(ys);
  if (sx.stddev == 0.0 || sy.stddev == 0.0) return 0.0;
  double cov = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    cov += (xs[i] - sx.mean) * (ys[i] - sy.mean);
  }
  cov /= static_cast<double>(xs.size() - 1);
  return cov / (sx.stddev * sy.stddev);
}

LinearFit fit_linear(std::span<const double> xs, std::span<const double> ys) {
  LinearFit fit;
  if (xs.size() != ys.size() || xs.size() < 2) return fit;
  const Summary sx = summarize(xs);
  const Summary sy = summarize(ys);
  double sxy = 0.0;
  double sxx = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxy += (xs[i] - sx.mean) * (ys[i] - sy.mean);
    sxx += (xs[i] - sx.mean) * (xs[i] - sx.mean);
  }
  if (sxx == 0.0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = sy.mean - fit.slope * sx.mean;
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double pred = fit.intercept + fit.slope * xs[i];
    ss_res += (ys[i] - pred) * (ys[i] - pred);
    ss_tot += (ys[i] - sy.mean) * (ys[i] - sy.mean);
  }
  fit.r2 = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

namespace {

// log Gamma via Lanczos approximation.
double log_gamma(double x) {
  static const double g[] = {676.5203681218851,     -1259.1392167224028,
                             771.32342877765313,    -176.61502916214059,
                             12.507343278686905,    -0.13857109526572012,
                             9.9843695780195716e-6, 1.5056327351493116e-7};
  if (x < 0.5) {
    // Reflection formula.
    constexpr double kPi = 3.14159265358979323846;
    return std::log(kPi / std::sin(kPi * x)) - log_gamma(1.0 - x);
  }
  x -= 1.0;
  double a = 0.99999999999980993;
  const double t = x + 7.5;
  for (int i = 0; i < 8; ++i) a += g[i] / (x + static_cast<double>(i) + 1.0);
  constexpr double kHalfLogTwoPi = 0.91893853320467274178;
  return kHalfLogTwoPi + (x + 0.5) * std::log(t) - t + std::log(a);
}

// Series expansion of P(a,x), valid for x < a + 1.
double gamma_p_series(double a, double x, double* log_value = nullptr) {
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int n = 0; n < 500; ++n) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::abs(del) < std::abs(sum) * 1e-15) break;
  }
  const double log_p = std::log(sum) + a * std::log(x) - x - log_gamma(a);
  if (log_value) *log_value = log_p;
  return std::exp(log_p);
}

// Continued fraction for Q(a,x) = 1 - P(a,x), valid for x >= a + 1.
// Returns log Q so tiny p-values (the paper reports p < 1e-50) survive.
double log_gamma_q_cf(double a, double x) {
  const double tiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / tiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < tiny) d = tiny;
    c = b + an / c;
    if (std::abs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < 1e-15) break;
  }
  return a * std::log(x) - x - log_gamma(a) + std::log(h);
}

}  // namespace

double regularized_gamma_p(double a, double x) {
  if (x < 0 || a <= 0) throw std::invalid_argument("invalid gamma arguments");
  if (x == 0) return 0.0;
  if (x < a + 1.0) return gamma_p_series(a, x);
  return 1.0 - std::exp(log_gamma_q_cf(a, x));
}

double chi_square_sf(double statistic, int dof) {
  if (dof <= 0) throw std::invalid_argument("chi-square dof must be positive");
  if (statistic <= 0) return 1.0;
  const double a = 0.5 * static_cast<double>(dof);
  const double x = 0.5 * statistic;
  if (x < a + 1.0) return 1.0 - gamma_p_series(a, x);
  return std::exp(log_gamma_q_cf(a, x));
}

ChiSquareResult chi_square_independence(
    const std::vector<std::vector<double>>& table) {
  ChiSquareResult result;
  const std::size_t rows = table.size();
  if (rows < 2) return result;
  const std::size_t cols = table.front().size();
  if (cols < 2) return result;

  std::vector<double> row_sum(rows, 0.0);
  std::vector<double> col_sum(cols, 0.0);
  double total = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    if (table[r].size() != cols) {
      throw std::invalid_argument("ragged contingency table");
    }
    for (std::size_t c = 0; c < cols; ++c) {
      row_sum[r] += table[r][c];
      col_sum[c] += table[r][c];
      total += table[r][c];
    }
  }
  if (total <= 0.0) return result;

  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double expected = row_sum[r] * col_sum[c] / total;
      if (expected > 0.0) {
        const double diff = table[r][c] - expected;
        result.statistic += diff * diff / expected;
      }
    }
  }
  result.dof = static_cast<int>((rows - 1) * (cols - 1));

  // p-value in linear and log space. For huge statistics the survival
  // function underflows, so recompute via the log continued fraction.
  result.p_value = chi_square_sf(result.statistic, result.dof);
  const double a = 0.5 * static_cast<double>(result.dof);
  const double x = 0.5 * result.statistic;
  if (x >= a + 1.0) {
    result.log10_p = log_gamma_q_cf(a, x) / std::log(10.0);
  } else {
    result.log10_p =
        result.p_value > 0 ? std::log10(result.p_value) : -std::numeric_limits<double>::infinity();
  }
  return result;
}

ChiSquareResult chi_square_binned(std::span<const double> values,
                                  std::span<const int> outcomes, int bins) {
  if (values.size() != outcomes.size() || values.empty() || bins < 2) {
    throw std::invalid_argument("chi_square_binned: bad inputs");
  }
  const Summary s = summarize(values);
  const double width = (s.max - s.min) / static_cast<double>(bins);
  std::vector<std::vector<double>> table(static_cast<std::size_t>(bins),
                                         std::vector<double>(2, 0.0));
  for (std::size_t i = 0; i < values.size(); ++i) {
    int bin = width > 0
                  ? static_cast<int>((values[i] - s.min) / width)
                  : 0;
    bin = std::clamp(bin, 0, bins - 1);
    table[static_cast<std::size_t>(bin)][outcomes[i] ? 1 : 0] += 1.0;
  }
  // Drop empty bins: they contribute no information and would distort dof.
  std::erase_if(table, [](const std::vector<double>& row) {
    return row[0] + row[1] == 0.0;
  });
  if (table.size() < 2) return {};
  return chi_square_independence(table);
}

}  // namespace prete::util
