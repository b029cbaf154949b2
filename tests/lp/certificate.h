#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "lp/model.h"

// Anchor-free optimality certificate for a returned LP Solution. It reads
// nothing but the model, the point x and the row duals, so it holds the
// same for every kernel configuration:
//  - primal feasibility (Model::max_violation);
//  - dual sign by row type;
//  - each reduced cost's sign against its variable's bound status at x;
//  - complementary slackness between each row's dual and its slack;
//  - the reported objective equal to c^T x, and c^T x equal to the dual
//    objective.
// Every comparison is relative to the magnitudes it combines, so badly
// scaled models (the drift chains) certify at the same tolerance.

namespace prete::lp {

inline ::testing::AssertionResult is_certified_optimal(const Model& model,
                                                       const Solution& solution,
                                                       double tol = 1e-6) {
  if (solution.status != SolveStatus::kOptimal) {
    return ::testing::AssertionFailure() << "status " << to_string(solution.status);
  }
  const auto n = static_cast<std::size_t>(model.num_variables());
  const auto rows = static_cast<std::size_t>(model.num_rows());
  if (solution.x.size() != n || solution.duals.size() != rows) {
    return ::testing::AssertionFailure()
           << "x has " << solution.x.size() << " entries and duals "
           << solution.duals.size() << ", want " << n << " and " << rows;
  }
  const std::vector<double>& x = solution.x;

  // Everything below is in minimization form: cost sigma * c and duals
  // sigma * y, where y is d(objective)/d(rhs) in the model's own sense.
  const double sigma = model.sense() == Sense::kMaximize ? -1.0 : 1.0;
  double scale = 1.0;
  for (const double v : x) scale = std::max(scale, std::abs(v));
  for (const Row& row : model.rows()) scale = std::max(scale, std::abs(row.rhs));
  const double violation = model.max_violation(x);
  if (violation > tol * scale) {
    return ::testing::AssertionFailure() << "primal violation " << violation;
  }

  // Row duals: sign by row type, then complementary slackness.
  double dual_objective = 0.0;
  double dual_scale = 0.0;
  for (std::size_t i = 0; i < rows; ++i) {
    const Row& row = model.row(static_cast<int>(i));
    const double y = sigma * solution.duals[i];
    const double y_tol = tol * (1.0 + std::abs(y));
    if ((row.type == RowType::kLessEqual && y > y_tol) ||
        (row.type == RowType::kGreaterEqual && y < -y_tol)) {
      return ::testing::AssertionFailure()
             << "row " << i << " dual " << solution.duals[i] << " has the wrong sign";
    }
    double lhs = 0.0;
    double row_scale = std::abs(row.rhs);
    for (const Coefficient& coef : row.coefficients) {
      const double term = coef.value * x[static_cast<std::size_t>(coef.var)];
      lhs += term;
      row_scale += std::abs(term);
    }
    const double slack = row.rhs - lhs;
    if (std::abs(y * slack) > tol * (1.0 + std::abs(y)) * (1.0 + row_scale)) {
      return ::testing::AssertionFailure()
             << "row " << i << " has dual " << solution.duals[i] << " and slack " << slack;
    }
    dual_objective += row.rhs * y;
    dual_scale += std::abs(row.rhs * y);
  }

  // Reduced costs d_j = c_j - sum_i y_i a_ij against x_j's bound status; the
  // bound a reduced cost prices enters the dual objective.
  std::vector<double> reduced(n, 0.0);
  std::vector<double> reduced_scale(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    reduced[j] = sigma * model.variable(static_cast<int>(j)).objective;
    reduced_scale[j] = std::abs(reduced[j]);
  }
  for (std::size_t i = 0; i < rows; ++i) {
    const double y = sigma * solution.duals[i];
    for (const Coefficient& coef : model.row(static_cast<int>(i)).coefficients) {
      const auto j = static_cast<std::size_t>(coef.var);
      reduced[j] -= y * coef.value;
      reduced_scale[j] += std::abs(y * coef.value);
    }
  }
  double primal_objective = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const Variable& v = model.variable(static_cast<int>(j));
    primal_objective += sigma * v.objective * x[j];
    const double d = reduced[j];
    const double d_tol = tol * (1.0 + reduced_scale[j]);
    const bool at_lower = std::isfinite(v.lower) &&
                          std::abs(x[j] - v.lower) <= tol * (1.0 + std::abs(v.lower));
    const bool at_upper = std::isfinite(v.upper) &&
                          std::abs(x[j] - v.upper) <= tol * (1.0 + std::abs(v.upper));
    if ((d > d_tol && !at_lower) || (d < -d_tol && !at_upper)) {
      return ::testing::AssertionFailure()
             << "x[" << j << "] = " << x[j] << " in [" << v.lower << ", " << v.upper
             << "] has reduced cost " << d;
    }
    // A reduced cost within tolerance of zero prices x_j itself.
    const double bound = d > d_tol ? v.lower : d < -d_tol ? v.upper : x[j];
    dual_objective += d * bound;
    dual_scale += std::abs(d * bound);
  }

  const double reported = sigma * solution.objective;
  if (std::abs(reported - primal_objective) > tol * (1.0 + std::abs(primal_objective))) {
    return ::testing::AssertionFailure()
           << "objective " << solution.objective << " but c^T x = " << sigma * primal_objective;
  }
  if (std::abs(primal_objective - dual_objective) >
      tol * (1.0 + std::abs(primal_objective) + dual_scale)) {
    return ::testing::AssertionFailure()
           << "primal objective " << sigma * primal_objective << " but dual objective "
           << sigma * dual_objective;
  }
  return ::testing::AssertionSuccess();
}

}  // namespace prete::lp
