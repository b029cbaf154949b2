#include "lp/model.h"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace prete::lp {

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kUnbounded:
      return "unbounded";
    case SolveStatus::kIterationLimit:
      return "iteration-limit";
  }
  return "unknown";
}

int Model::add_variable(double lower, double upper, double objective) {
  if (lower > upper) throw std::invalid_argument("variable bounds crossed");
  variables_.push_back({lower, upper, objective, false});
  return num_variables() - 1;
}

int Model::add_binary(double objective) {
  variables_.push_back({0.0, 1.0, objective, true});
  return num_variables() - 1;
}

int Model::add_integer(double lower, double upper, double objective) {
  if (lower > upper) throw std::invalid_argument("variable bounds crossed");
  variables_.push_back({lower, upper, objective, true});
  return num_variables() - 1;
}

int Model::add_row(Row row) {
  for (const auto& coef : row.coefficients) {
    if (coef.var < 0 || coef.var >= num_variables()) {
      throw std::out_of_range("row references unknown variable");
    }
  }
  rows_.push_back(std::move(row));
  return num_rows() - 1;
}

int Model::add_row(std::vector<Coefficient> coefficients, RowType type,
                   double rhs) {
  return add_row(Row{std::move(coefficients), type, rhs});
}

void Model::set_bounds(int var, double lower, double upper) {
  if (lower > upper) throw std::invalid_argument("variable bounds crossed");
  auto& v = variables_.at(static_cast<std::size_t>(var));
  v.lower = lower;
  v.upper = upper;
}

bool Model::has_integers() const {
  for (const auto& v : variables_) {
    if (v.is_integer) return true;
  }
  return false;
}

double Model::objective_value(const std::vector<double>& x) const {
  double total = 0.0;
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    total += variables_[i].objective * x[i];
  }
  return total;
}

double Model::max_violation(const std::vector<double>& x) const {
  double worst = 0.0;
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    worst = std::max(worst, variables_[i].lower - x[i]);
    worst = std::max(worst, x[i] - variables_[i].upper);
  }
  for (const auto& row : rows_) {
    double lhs = 0.0;
    for (const auto& coef : row.coefficients) {
      lhs += coef.value * x[static_cast<std::size_t>(coef.var)];
    }
    switch (row.type) {
      case RowType::kLessEqual:
        worst = std::max(worst, lhs - row.rhs);
        break;
      case RowType::kGreaterEqual:
        worst = std::max(worst, row.rhs - lhs);
        break;
      case RowType::kEqual:
        worst = std::max(worst, std::abs(lhs - row.rhs));
        break;
    }
  }
  return worst;
}

}  // namespace prete::lp
