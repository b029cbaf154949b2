#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "lp/basis.h"
#include "lp/merit_tree.h"

namespace prete::lp {

SimplexBasis SimplexBasis::truncated(int rows, int structurals) const {
  SimplexBasis out;
  rows = std::max(0, std::min(rows, num_rows()));
  if (rows == 0) return out;
  if (structurals < 0 || structurals > num_structural()) {
    structurals = num_structural();
  }
  out.structural_status.assign(structural_status.begin(),
                               structural_status.begin() + structurals);
  out.slack_status.assign(slack_status.begin(), slack_status.begin() + rows);
  out.basic.assign(basic.begin(), basic.begin() + rows);
  out.basic_value.assign(basic_value.begin(), basic_value.begin() + rows);

  // Basis entries pointing at dropped slack or structural columns cannot
  // survive; their rows fall back to an artificial start.
  for (auto& entry : out.basic) {
    if ((entry.kind == Kind::kSlack && entry.index >= rows) ||
        (entry.kind == Kind::kStructural && entry.index >= structurals)) {
      entry = {Kind::kArtificial, 0};
    }
  }
  // Columns that were basic only in dropped rows demote to a bound; the
  // engine re-validates statuses against the bounds at apply time.
  std::vector<char> referenced_structural(structural_status.size(), 0);
  std::vector<char> referenced_slack(static_cast<std::size_t>(rows), 0);
  for (const auto& entry : out.basic) {
    if (entry.kind == Kind::kStructural) {
      referenced_structural[static_cast<std::size_t>(entry.index)] = 1;
    } else if (entry.kind == Kind::kSlack) {
      referenced_slack[static_cast<std::size_t>(entry.index)] = 1;
    }
  }
  for (std::size_t j = 0; j < out.structural_status.size(); ++j) {
    if (out.structural_status[j] == Status::kBasic && !referenced_structural[j]) {
      out.structural_status[j] = Status::kAtLower;
    }
  }
  for (std::size_t i = 0; i < out.slack_status.size(); ++i) {
    if (out.slack_status[i] == Status::kBasic && !referenced_slack[i]) {
      out.slack_status[i] = Status::kAtLower;
    }
  }
  return out;
}

namespace {

// Primal feasibility tolerance on bound and constraint violation.
constexpr double kFeasibilityTol = 1e-7;
// Dual feasibility (reduced-cost) tolerance.
constexpr double kOptimalityTol = 1e-7;

enum class VarStatus { kBasic, kAtLower, kAtUpper, kFreeAtZero };

// Internal equality-form problem: columns = structural vars, slacks, and
// artificials; every row is an equality. All costs are for minimization.
//
// The constraint matrix is held once per solve, flat, by column (CSC:
// FTRAN, reinversion, reduced costs) and by row (CSR: the pivot row's
// scatter): the rows are copied from the model once per solve (see
// SimplexEngine::build), and the columns filled from them. So each column
// lists its rows ascending, and each row lists its structural columns in
// the model's coefficient order, then its slack, then its artificial. The
// artificial of row i keeps one entry in row i whose value is the
// artificial's sign while it is in use and 0 otherwise; a zero entry only
// ever adds zeros to the sums it enters.
struct Workspace {
  int m = 0;           // rows
  int total = 0;       // total columns
  int num_structural = 0;
  int num_slack = 0;   // == m
  // Column j is col_entries[col_start[j] .. col_start[j + 1]), (row, value).
  std::vector<int> col_start;
  std::vector<Coefficient> col_entries;
  // Row i is row_entries[row_start[i] .. row_start[i + 1]), (column, value).
  std::vector<int> row_start;
  std::vector<Coefficient> row_entries;
  std::vector<double> lower;
  std::vector<double> upper;
  std::vector<double> phase2_cost;
  std::vector<double> rhs;

  std::vector<VarStatus> status;
  std::vector<int> basis;          // basis[r] = column basic in row r
  std::vector<double> basic_value; // value of basis[r]
  std::vector<double> nonbasic_value;  // value for every column (basic entries stale)

  std::span<const Coefficient> column(int j) const {
    const auto begin = static_cast<std::size_t>(col_start[static_cast<std::size_t>(j)]);
    const auto end = static_cast<std::size_t>(col_start[static_cast<std::size_t>(j) + 1]);
    return std::span<const Coefficient>(col_entries).subspan(begin, end - begin);
  }
  std::span<const Coefficient> row(int i) const {
    const auto begin = static_cast<std::size_t>(row_start[static_cast<std::size_t>(i)]);
    const auto end = static_cast<std::size_t>(row_start[static_cast<std::size_t>(i) + 1]);
    return std::span<const Coefficient>(row_entries).subspan(begin, end - begin);
  }
  // Puts row i's artificial in use with the given sign, or (0) out of use.
  // Its entry is the only one in its column and the last in its row.
  void set_artificial(int i, double sign) {
    const int art = num_structural + num_slack + i;
    col_entries[static_cast<std::size_t>(col_start[static_cast<std::size_t>(art)])].value = sign;
    row_entries[static_cast<std::size_t>(row_start[static_cast<std::size_t>(i) + 1]) - 1].value =
        sign;
  }
};

double bound_start_value(double lower, double upper) {
  if (std::isfinite(lower)) return lower;
  if (std::isfinite(upper)) return upper;
  return 0.0;
}

VarStatus bound_start_status(double lower, double upper) {
  if (std::isfinite(lower)) return VarStatus::kAtLower;
  if (std::isfinite(upper)) return VarStatus::kAtUpper;
  return VarStatus::kFreeAtZero;
}

class SimplexEngine {
 public:
  SimplexEngine(const Model& model, const SimplexOptions& options,
                const SimplexBasis* warm)
      : options_(options) {
    build(model, warm);
  }

  Solution run(const Model& model) {
    Solution solution;
    int total_iters = 0;

    // Phase 1: minimize the sum of artificial variables. With a warm basis
    // and no basic artificials this terminates without a single pivot.
    std::vector<double> phase1_cost(static_cast<std::size_t>(ws_.total), 0.0);
    for (int j = first_artificial_; j < ws_.total; ++j) {
      phase1_cost[static_cast<std::size_t>(j)] = 1.0;
    }
    const SolveStatus phase1 = optimize(phase1_cost, /*phase1=*/true, total_iters);
    if (phase1 == SolveStatus::kIterationLimit) {
      solution.status = SolveStatus::kIterationLimit;
      solution.iterations = total_iters;
      return solution;
    }
    if (current_objective(phase1_cost) > 1e3 * kFeasibilityTol) {
      solution.status = SolveStatus::kInfeasible;
      solution.iterations = total_iters;
      return solution;
    }
    // Lock the artificials at zero for phase 2.
    for (int j = first_artificial_; j < ws_.total; ++j) {
      ws_.upper[static_cast<std::size_t>(j)] = 0.0;
      if (ws_.status[static_cast<std::size_t>(j)] != VarStatus::kBasic) {
        ws_.status[static_cast<std::size_t>(j)] = VarStatus::kAtLower;
        ws_.nonbasic_value[static_cast<std::size_t>(j)] = 0.0;
      }
    }

    const SolveStatus phase2 = optimize(ws_.phase2_cost, /*phase1=*/false, total_iters);
    solution.iterations = total_iters;
    solution.status = phase2;
    if (phase2 != SolveStatus::kOptimal &&
        phase2 != SolveStatus::kIterationLimit) {
      return solution;
    }

    // Extract primal values for structural variables. On a phase-2 iteration
    // limit the current point is still primal feasible (the ratio test never
    // leaves the feasible region), so the incumbent x and its objective go
    // out with the kIterationLimit status instead of silent garbage.
    solution.x.assign(static_cast<std::size_t>(ws_.num_structural), 0.0);
    std::vector<double> full(static_cast<std::size_t>(ws_.total), 0.0);
    for (int j = 0; j < ws_.total; ++j) {
      full[static_cast<std::size_t>(j)] = ws_.nonbasic_value[static_cast<std::size_t>(j)];
    }
    for (int r = 0; r < ws_.m; ++r) {
      full[static_cast<std::size_t>(ws_.basis[static_cast<std::size_t>(r)])] =
          ws_.basic_value[static_cast<std::size_t>(r)];
    }
    for (int j = 0; j < ws_.num_structural; ++j) {
      solution.x[static_cast<std::size_t>(j)] = full[static_cast<std::size_t>(j)];
    }

    double obj = 0.0;
    for (int j = 0; j < ws_.num_structural; ++j) {
      obj += ws_.phase2_cost[static_cast<std::size_t>(j)] *
             solution.x[static_cast<std::size_t>(j)];
    }
    if (model.sense() == Sense::kMaximize) obj = -obj;
    solution.objective = obj;
    // Duals only at optimality: the incumbent basis of a truncated solve is
    // not dual-feasible and its shadow prices would poison Benders cuts.
    if (phase2 != SolveStatus::kOptimal) return solution;

    std::vector<double> y;
    compute_duals(ws_.phase2_cost, y);
    if (model.sense() == Sense::kMaximize) {
      for (double& v : y) v = -v;
    }
    solution.duals.assign(static_cast<std::size_t>(ws_.m), 0.0);
    for (int r = 0; r < ws_.m; ++r) {
      solution.duals[static_cast<std::size_t>(r)] = y[static_cast<std::size_t>(r)];
    }
    return solution;
  }

  const BasisState::Stats& kernel_stats() const { return basis_.stats(); }
  bool warm_installed() const { return warm_installed_; }

  // Snapshot of the final basis; only meaningful after an optimal run().
  void export_basis(SimplexBasis& out) const {
    const auto to_status = [](VarStatus st) {
      switch (st) {
        case VarStatus::kBasic:
          return SimplexBasis::Status::kBasic;
        case VarStatus::kAtUpper:
          return SimplexBasis::Status::kAtUpper;
        case VarStatus::kFreeAtZero:
          return SimplexBasis::Status::kFreeAtZero;
        case VarStatus::kAtLower:
          break;
      }
      return SimplexBasis::Status::kAtLower;
    };
    out.structural_status.resize(static_cast<std::size_t>(ws_.num_structural));
    for (int j = 0; j < ws_.num_structural; ++j) {
      out.structural_status[static_cast<std::size_t>(j)] =
          to_status(ws_.status[static_cast<std::size_t>(j)]);
    }
    out.slack_status.resize(static_cast<std::size_t>(ws_.m));
    for (int i = 0; i < ws_.m; ++i) {
      out.slack_status[static_cast<std::size_t>(i)] =
          to_status(ws_.status[static_cast<std::size_t>(ws_.num_structural + i)]);
    }
    out.basic.resize(static_cast<std::size_t>(ws_.m));
    out.basic_value.resize(static_cast<std::size_t>(ws_.m));
    for (int r = 0; r < ws_.m; ++r) {
      const int b = ws_.basis[static_cast<std::size_t>(r)];
      SimplexBasis::Entry entry;
      if (b < ws_.num_structural) {
        entry = {SimplexBasis::Kind::kStructural, b};
      } else if (b < first_artificial_) {
        entry = {SimplexBasis::Kind::kSlack, b - ws_.num_structural};
      } else {
        entry = {SimplexBasis::Kind::kArtificial, 0};
      }
      out.basic[static_cast<std::size_t>(r)] = entry;
      out.basic_value[static_cast<std::size_t>(r)] =
          ws_.basic_value[static_cast<std::size_t>(r)];
    }
  }

 private:
  void build(const Model& model, const SimplexBasis* warm) {
    const int n = model.num_variables();
    const int m = model.num_rows();
    ws_.m = m;
    ws_.num_structural = n;
    ws_.num_slack = m;
    first_artificial_ = n + m;
    ws_.total = n + 2 * m;

    basis_.configure(options_.refactor_interval, options_.lu_threshold);
    pricing_window_ = ws_.total;
    if (options_.pricing_window > 0) {
      pricing_window_ = std::min(options_.pricing_window, ws_.total);
    } else if (options_.pricing_window == 0) {
      // The window was sized for a full pricing scan that dominated only
      // when columns heavily outnumber rows. Pricing no longer scans, so
      // the rule is kept as it was only because it sets those solves'
      // pivot paths (see SimplexOptions::pricing_window).
      const int automatic = std::clamp(ws_.total / 8, 64, 512);
      if (ws_.total >= 4 * m && automatic < ws_.total) {
        pricing_window_ = automatic;
      }
    }

    ws_.lower.assign(static_cast<std::size_t>(ws_.total), 0.0);
    ws_.upper.assign(static_cast<std::size_t>(ws_.total), kInfinity);
    ws_.phase2_cost.assign(static_cast<std::size_t>(ws_.total), 0.0);
    ws_.rhs.assign(static_cast<std::size_t>(m), 0.0);

    const double sign = model.sense() == Sense::kMaximize ? -1.0 : 1.0;
    for (int j = 0; j < n; ++j) {
      const Variable& v = model.variable(j);
      ws_.lower[static_cast<std::size_t>(j)] = v.lower;
      ws_.upper[static_cast<std::size_t>(j)] = v.upper;
      ws_.phase2_cost[static_cast<std::size_t>(j)] = sign * v.objective;
    }

    // Rows first (CSR), merging repeats: a variable listed more than once in
    // a row gets one entry at its first position, holding the sum of its
    // coefficients in order of appearance, and a sum that cancels to zero is
    // dropped. So every anchor sees distinct entries, and a row without
    // repeats is copied as given. Then the slack column (the row becomes
    // a*x + s = b) and the artificial, which starts out of use; the basis
    // install puts it in.
    std::size_t entries = 2 * static_cast<std::size_t>(m);
    for (const Row& row : model.rows()) entries += row.coefficients.size();
    ws_.row_entries.clear();
    ws_.row_entries.reserve(entries);
    ws_.row_start.assign(1, 0);
    ws_.row_start.reserve(static_cast<std::size_t>(m) + 1);
    std::vector<int> seen_in_row(static_cast<std::size_t>(n), -1);
    std::vector<int> position(static_cast<std::size_t>(n), 0);
    for (int i = 0; i < m; ++i) {
      const Row& row = model.row(i);
      ws_.rhs[static_cast<std::size_t>(i)] = row.rhs;
      const auto begin = static_cast<std::ptrdiff_t>(ws_.row_entries.size());
      bool repeated = false;
      for (const auto& coef : row.coefficients) {
        if (coef.value == 0.0) continue;
        const auto var = static_cast<std::size_t>(coef.var);
        if (seen_in_row[var] == i) {
          ws_.row_entries[static_cast<std::size_t>(position[var])].value += coef.value;
          repeated = true;
          continue;
        }
        seen_in_row[var] = i;
        position[var] = static_cast<int>(ws_.row_entries.size());
        ws_.row_entries.push_back({coef.var, coef.value});
      }
      if (repeated) {
        ws_.row_entries.erase(
            std::remove_if(ws_.row_entries.begin() + begin, ws_.row_entries.end(),
                           [](const Coefficient& c) { return c.value == 0.0; }),
            ws_.row_entries.end());
      }
      const int slack = n + i;
      ws_.row_entries.push_back({slack, 1.0});
      ws_.row_entries.push_back({first_artificial_ + i, 0.0});
      ws_.row_start.push_back(static_cast<int>(ws_.row_entries.size()));
      switch (row.type) {
        case RowType::kLessEqual:
          ws_.lower[static_cast<std::size_t>(slack)] = 0.0;
          ws_.upper[static_cast<std::size_t>(slack)] = kInfinity;
          break;
        case RowType::kGreaterEqual:
          ws_.lower[static_cast<std::size_t>(slack)] = -kInfinity;
          ws_.upper[static_cast<std::size_t>(slack)] = 0.0;
          break;
        case RowType::kEqual:
          ws_.lower[static_cast<std::size_t>(slack)] = 0.0;
          ws_.upper[static_cast<std::size_t>(slack)] = 0.0;
          break;
      }
    }

    // Columns (CSC) from the rows, in row order, so each column lists its
    // rows ascending.
    std::vector<int>& col_start = ws_.col_start;
    col_start.assign(static_cast<std::size_t>(ws_.total) + 1, 0);
    for (const auto& entry : ws_.row_entries) {
      ++col_start[static_cast<std::size_t>(entry.var) + 1];
    }
    for (std::size_t j = 1; j < col_start.size(); ++j) col_start[j] += col_start[j - 1];
    ws_.col_entries.resize(ws_.row_entries.size());
    std::vector<int> fill(col_start.begin(), col_start.end() - 1);
    for (int i = 0; i < m; ++i) {
      for (const auto& entry : ws_.row(i)) {
        ws_.col_entries[static_cast<std::size_t>(fill[static_cast<std::size_t>(entry.var)]++)] =
            {i, entry.value};
      }
    }

    // Initial nonbasic point: every structural/slack variable at its nearest
    // finite bound (or zero if free).
    ws_.status.assign(static_cast<std::size_t>(ws_.total), VarStatus::kAtLower);
    ws_.nonbasic_value.assign(static_cast<std::size_t>(ws_.total), 0.0);
    for (int j = 0; j < first_artificial_; ++j) {
      ws_.status[static_cast<std::size_t>(j)] =
          bound_start_status(ws_.lower[static_cast<std::size_t>(j)],
                             ws_.upper[static_cast<std::size_t>(j)]);
      ws_.nonbasic_value[static_cast<std::size_t>(j)] =
          bound_start_value(ws_.lower[static_cast<std::size_t>(j)],
                            ws_.upper[static_cast<std::size_t>(j)]);
    }

    const bool compatible = warm != nullptr && warm->valid() &&
                            warm->num_structural() <= n && warm->num_rows() <= m;
    if (compatible) {
      // Overlay the hint's nonbasic statuses; even when the basis install
      // below fails, starting each variable at the bound it ended at last
      // time keeps the phase-1 residual small.
      for (int j = 0; j < warm->num_structural(); ++j) {
        apply_warm_status(j, warm->structural_status[static_cast<std::size_t>(j)]);
      }
      for (int i = 0; i < warm->num_rows(); ++i) {
        apply_warm_status(n + i, warm->slack_status[static_cast<std::size_t>(i)]);
      }
    }

    ws_.basis.assign(static_cast<std::size_t>(m), 0);
    ws_.basic_value.assign(static_cast<std::size_t>(m), 0.0);

    warm_installed_ = compatible && install_warm_basis(*warm);
    if (!warm_installed_) install_artificial_basis();
  }

  // Moves a nonbasic column to the hinted bound when the bound structure
  // still permits it; kBasic is handled by the basis install.
  void apply_warm_status(int j, SimplexBasis::Status hinted) {
    const double lo = ws_.lower[static_cast<std::size_t>(j)];
    const double up = ws_.upper[static_cast<std::size_t>(j)];
    switch (hinted) {
      case SimplexBasis::Status::kAtLower:
        if (std::isfinite(lo)) {
          ws_.status[static_cast<std::size_t>(j)] = VarStatus::kAtLower;
          ws_.nonbasic_value[static_cast<std::size_t>(j)] = lo;
        }
        break;
      case SimplexBasis::Status::kAtUpper:
        if (std::isfinite(up)) {
          ws_.status[static_cast<std::size_t>(j)] = VarStatus::kAtUpper;
          ws_.nonbasic_value[static_cast<std::size_t>(j)] = up;
        }
        break;
      case SimplexBasis::Status::kFreeAtZero:
        if (!std::isfinite(lo) && !std::isfinite(up)) {
          ws_.status[static_cast<std::size_t>(j)] = VarStatus::kFreeAtZero;
          ws_.nonbasic_value[static_cast<std::size_t>(j)] = 0.0;
        }
        break;
      case SimplexBasis::Status::kBasic:
        break;
    }
  }

  // Residual b - A x of the current nonbasic starting point, with planned
  // basic columns (plan[r] >= 0) taken at `basic_guess[r]` instead.
  std::vector<double> starting_residual(const std::vector<int>& plan,
                                        const std::vector<double>& basic_guess) const {
    std::vector<double> residual = ws_.rhs;
    std::vector<double> value(static_cast<std::size_t>(first_artificial_), 0.0);
    for (int j = 0; j < first_artificial_; ++j) {
      value[static_cast<std::size_t>(j)] =
          ws_.nonbasic_value[static_cast<std::size_t>(j)];
    }
    for (int r = 0; r < ws_.m; ++r) {
      if (plan[static_cast<std::size_t>(r)] >= 0) {
        value[static_cast<std::size_t>(plan[static_cast<std::size_t>(r)])] =
            basic_guess[static_cast<std::size_t>(r)];
      }
    }
    for (int j = 0; j < first_artificial_; ++j) {
      const double xj = value[static_cast<std::size_t>(j)];
      if (xj == 0.0) continue;
      for (const auto& entry : ws_.column(j)) {
        residual[static_cast<std::size_t>(entry.var)] -= entry.value * xj;
      }
    }
    return residual;
  }

  // Tries to seat the hinted basis: hinted columns stay basic in their rows,
  // rows beyond the hint (or hinted-artificial rows) get a fresh artificial
  // sized to absorb the residual. Falls back (returns false, state restored)
  // if the hint is inconsistent, the basis is singular, or the implied basic
  // point is primal-infeasible — primal phase 1 can only repair artificials.
  bool install_warm_basis(const SimplexBasis& warm) {
    const int n = ws_.num_structural;
    const int m = ws_.m;
    std::vector<int> plan(static_cast<std::size_t>(m), -1);  // -1 = artificial
    std::vector<char> used(static_cast<std::size_t>(first_artificial_), 0);
    for (int r = 0; r < warm.num_rows(); ++r) {
      const SimplexBasis::Entry entry = warm.basic[static_cast<std::size_t>(r)];
      int col = -1;
      if (entry.kind == SimplexBasis::Kind::kStructural) {
        if (entry.index < 0 || entry.index >= warm.num_structural()) return false;
        col = entry.index;
      } else if (entry.kind == SimplexBasis::Kind::kSlack) {
        if (entry.index < 0 || entry.index >= warm.num_rows()) return false;
        col = n + entry.index;
      } else {
        continue;  // artificial row
      }
      if (used[static_cast<std::size_t>(col)]) return false;
      used[static_cast<std::size_t>(col)] = 1;
      plan[static_cast<std::size_t>(r)] = col;
    }

    std::vector<double> basic_guess(static_cast<std::size_t>(m), 0.0);
    for (int r = 0; r < warm.num_rows(); ++r) {
      basic_guess[static_cast<std::size_t>(r)] =
          warm.basic_value[static_cast<std::size_t>(r)];
    }
    const std::vector<double> residual = starting_residual(plan, basic_guess);

    const std::vector<VarStatus> status_backup = ws_.status;
    for (int r = 0; r < m; ++r) {
      int col = plan[static_cast<std::size_t>(r)];
      if (col < 0) {
        col = first_artificial_ + r;
        ws_.set_artificial(r, residual[static_cast<std::size_t>(r)] >= 0.0 ? 1.0 : -1.0);
        ws_.basic_value[static_cast<std::size_t>(r)] =
            std::abs(residual[static_cast<std::size_t>(r)]);
      } else {
        ws_.basic_value[static_cast<std::size_t>(r)] =
            basic_guess[static_cast<std::size_t>(r)];
      }
      ws_.status[static_cast<std::size_t>(col)] = VarStatus::kBasic;
      ws_.basis[static_cast<std::size_t>(r)] = col;
    }

    bool ok = refactorize();  // also recomputes the basic values exactly
    if (ok) {
      const double tol = 1e3 * kFeasibilityTol;
      for (int r = 0; r < m && ok; ++r) {
        const int b = ws_.basis[static_cast<std::size_t>(r)];
        const double v = ws_.basic_value[static_cast<std::size_t>(r)];
        ok = v >= ws_.lower[static_cast<std::size_t>(b)] - tol &&
             v <= ws_.upper[static_cast<std::size_t>(b)] + tol;
      }
    }
    if (!ok) {
      ws_.status = status_backup;
      for (int r = 0; r < m; ++r) ws_.set_artificial(r, 0.0);
      return false;
    }
    return true;
  }

  // The all-artificial cold basis (also the warm-start fallback), absorbing
  // whatever residual the current nonbasic starting point leaves.
  void install_artificial_basis() {
    const int m = ws_.m;
    const std::vector<int> no_plan(static_cast<std::size_t>(m), -1);
    const std::vector<double> residual =
        starting_residual(no_plan, std::vector<double>(static_cast<std::size_t>(m), 0.0));
    std::vector<double> signs(static_cast<std::size_t>(m), 1.0);
    for (int i = 0; i < m; ++i) {
      const int art = first_artificial_ + i;
      const double sign = residual[static_cast<std::size_t>(i)] >= 0.0 ? 1.0 : -1.0;
      signs[static_cast<std::size_t>(i)] = sign;
      ws_.set_artificial(i, sign);
      ws_.status[static_cast<std::size_t>(art)] = VarStatus::kBasic;
      ws_.basis[static_cast<std::size_t>(i)] = art;
      ws_.basic_value[static_cast<std::size_t>(i)] =
          std::abs(residual[static_cast<std::size_t>(i)]);
    }
    basis_.reset_diagonal(m, signs);  // inverse of the +-1 diagonal basis
  }

  double current_objective(const std::vector<double>& cost) const {
    double obj = 0.0;
    for (int j = 0; j < ws_.total; ++j) {
      if (ws_.status[static_cast<std::size_t>(j)] != VarStatus::kBasic) {
        obj += cost[static_cast<std::size_t>(j)] *
               ws_.nonbasic_value[static_cast<std::size_t>(j)];
      }
    }
    for (int r = 0; r < ws_.m; ++r) {
      obj += cost[static_cast<std::size_t>(ws_.basis[static_cast<std::size_t>(r)])] *
             ws_.basic_value[static_cast<std::size_t>(r)];
    }
    return obj;
  }

  // y = c_B^T B^-1 via BTRAN through the kernel.
  void compute_duals(const std::vector<double>& cost, std::vector<double>& y) {
    cb_.assign(static_cast<std::size_t>(ws_.m), 0.0);
    for (int r = 0; r < ws_.m; ++r) {
      cb_[static_cast<std::size_t>(r)] =
          cost[static_cast<std::size_t>(ws_.basis[static_cast<std::size_t>(r)])];
    }
    basis_.btran(cb_, y);
  }

  double reduced_cost(int j, const std::vector<double>& cost,
                      const std::vector<double>& y) const {
    double d = cost[static_cast<std::size_t>(j)];
    for (const auto& entry : ws_.column(j)) {
      d -= y[static_cast<std::size_t>(entry.var)] * entry.value;
    }
    return d;
  }

  // Rebuilds the anchor from the current basis columns, then recomputes the
  // basic values.
  bool refactorize() {
    basis_cols_.clear();
    basis_cols_.reserve(static_cast<std::size_t>(ws_.m));
    for (int r = 0; r < ws_.m; ++r) {
      basis_cols_.push_back(ws_.column(ws_.basis[static_cast<std::size_t>(r)]));
    }
    if (!basis_.refactorize(basis_cols_)) return false;
    recompute_basic_values();
    return true;
  }

  void recompute_basic_values() {
    // x_B = B^-1 (b - N x_N)
    std::vector<double> rhs = ws_.rhs;
    for (int j = 0; j < ws_.total; ++j) {
      if (ws_.status[static_cast<std::size_t>(j)] == VarStatus::kBasic) continue;
      const double xj = ws_.nonbasic_value[static_cast<std::size_t>(j)];
      if (xj == 0.0) continue;
      for (const auto& entry : ws_.column(j)) {
        rhs[static_cast<std::size_t>(entry.var)] -= entry.value * xj;
      }
    }
    basis_.apply_inverse(rhs, ws_.basic_value);
  }

  bool locked(int j) const {
    return ws_.lower[static_cast<std::size_t>(j)] ==
           ws_.upper[static_cast<std::size_t>(j)];
  }

  // The direction column j would enter in, from its cached reduced cost:
  // +1 (up from its lower bound, or from zero when free) on a reduced cost
  // below -tol, -1 (down) on one above tol, 0 when it is not eligible.
  // Basic and locked columns (fixed artificials, equality slacks) never
  // price.
  double direction(int j) const {
    const VarStatus st = ws_.status[static_cast<std::size_t>(j)];
    if (st == VarStatus::kBasic || locked(j)) return 0.0;
    const double d = d_[static_cast<std::size_t>(j)];
    if ((st == VarStatus::kAtLower || st == VarStatus::kFreeAtZero) &&
        d < -kOptimalityTol) {
      return 1.0;
    }
    if ((st == VarStatus::kAtUpper || st == VarStatus::kFreeAtZero) &&
        d > kOptimalityTol) {
      return -1.0;
    }
    return 0.0;
  }

  // Column j's pricing merit, or kIneligible: its score (Dantzig) or the
  // score's square over its devex weight, which must beat the rule's floor.
  double merit(int j, bool devex, const std::vector<double>& devex_weight) const {
    const double dir = direction(j);
    if (dir == 0.0) return MeritTree::kIneligible;
    const double score = -dir * d_[static_cast<std::size_t>(j)];
    if (score <= 0.0) return MeritTree::kIneligible;
    const double value =
        devex ? score * score / devex_weight[static_cast<std::size_t>(j)] : score;
    const double floor = devex ? 0.0 : kOptimalityTol;
    return value > floor ? value : MeritTree::kIneligible;
  }

  // Full refresh after an exact BTRAN: every nonbasic, unlocked column's
  // reduced cost, then every merit.
  void price_all(const std::vector<double>& cost, const std::vector<double>& y,
                 bool devex, const std::vector<double>& devex_weight) {
    for (int j = 0; j < ws_.total; ++j) {
      if (ws_.status[static_cast<std::size_t>(j)] != VarStatus::kBasic && !locked(j)) {
        d_[static_cast<std::size_t>(j)] = reduced_cost(j, cost, y);
      }
    }
    load_merits(devex, devex_weight);
  }

  void load_merits(bool devex, const std::vector<double>& devex_weight) {
    for (int j = 0; j < ws_.total; ++j) merits_.load(j, merit(j, devex, devex_weight));
    merits_.build();
  }

  // alpha_j = rho . a_j for every column meeting rho's nonzeros, by a
  // scatter down the CSR rows of those nonzeros in ascending row order.
  // Per column that adds the terms of the column-wise dot product in its
  // order, minus the exact zeros, so each alpha_j is bit for bit the dot
  // product's. The columns reached land in touched_.
  void scatter_pivot_row() {
    touched_.clear();
    for (const int i : rho_rows_) {
      const double rho_i = rho_[static_cast<std::size_t>(i)];
      for (const auto& entry : ws_.row(i)) {
        const auto j = static_cast<std::size_t>(entry.var);
        if (!is_touched_[j]) {
          is_touched_[j] = 1;
          touched_.push_back(entry.var);
          alpha_[j] = 0.0;
        }
        alpha_[j] += rho_i * entry.value;
      }
    }
    for (const int j : touched_) is_touched_[static_cast<std::size_t>(j)] = 0;
  }

  // Re-prices after a pivot whose duals were updated from rho: only the
  // touched columns' reduced costs moved (y changed only on rho's nonzero
  // rows). The pivot also changed two statuses: the leaving column is
  // nonbasic again and the entering one basic. Both meet rho (their
  // pivot-row entries are 1 and w_r), so they are touched in practice, but
  // they are re-priced by name so that no rounding can leave a stale leaf.
  // `reframed` means every devex weight was reset, so every merit moved.
  void reprice_pivot(const std::vector<double>& cost, const std::vector<double>& y,
                     bool devex, const std::vector<double>& devex_weight,
                     int entering, int leave_var, bool reframed) {
    for (const int j : touched_) {
      if (ws_.status[static_cast<std::size_t>(j)] != VarStatus::kBasic && !locked(j)) {
        d_[static_cast<std::size_t>(j)] = reduced_cost(j, cost, y);
      }
    }
    d_[static_cast<std::size_t>(leave_var)] = reduced_cost(leave_var, cost, y);
    if (reframed) {
      load_merits(devex, devex_weight);
      return;
    }
    for (const int j : touched_) merits_.update(j, merit(j, devex, devex_weight));
    merits_.update(leave_var, merit(leave_var, devex, devex_weight));
    merits_.update(entering, MeritTree::kIneligible);
  }

  // Entering-variable selection from the cached merits. Full pricing asks
  // the tree for its overall winner; partial pricing asks for the winner of
  // the rotating candidate window, advancing it only when the window prices
  // out, and declares optimality only after a full rotation finds no
  // eligible column — the optimality conditions are identical to a full
  // pass, only the pivot path differs. Bland's rule takes the first
  // eligible index.
  int select_entering(bool use_bland, double& entering_dir) {
    int entering = -1;
    if (use_bland) {
      for (int j = 0; j < ws_.total && entering < 0; ++j) {
        if (direction(j) != 0.0) entering = j;
      }
    } else if (pricing_window_ >= ws_.total) {
      entering = merits_.best(0, ws_.total);
    } else {
      const int windows = (ws_.total + pricing_window_ - 1) / pricing_window_;
      for (int attempt = 0; attempt < windows && entering < 0; ++attempt) {
        entering = merits_.best_wrapped(pricing_offset_, pricing_window_);
        if (entering < 0) {
          pricing_offset_ = (pricing_offset_ + pricing_window_) % ws_.total;
        }
      }
    }
    if (entering >= 0) entering_dir = direction(entering);
    return entering;
  }

  // True when column j lies in the current candidate window.
  bool in_window(int j) const {
    return (j - pricing_offset_ + ws_.total) % ws_.total < pricing_window_;
  }

  SolveStatus optimize(const std::vector<double>& cost, bool phase1,
                       int& total_iters) {
    const int m = ws_.m;
    // Pivot cap of one phase, from the problem size.
    const int max_iters = 2000 + 40 * (ws_.total + m);
    std::vector<double> w(static_cast<std::size_t>(m), 0.0);
    std::vector<double> y;
    int degenerate_streak = 0;
    basis_.reset_refactor_counter();

    // Dual maintenance. A full BTRAN of y = c_B^T B^-1 every pivot would be
    // the single most expensive operation in the solve (phase 1's
    // all-artificial cost vector makes c_B dense). Instead the duals are
    // updated in O(nnz(rho)) per pivot from the identity
    // y' = y + (d_q / w_r) * rho, where d_q is the entering column's reduced
    // cost, w_r the pivot element, and rho the (pre-pivot) pivot row that
    // pricing needs anyway. Accumulated rounding is bounded by refreshing
    // the duals at every reinversion, and optimality is never declared on
    // updated duals: pricing out triggers one exact recompute and a
    // re-price, so the termination conditions are those of exact duals. The
    // Bland anti-cycling regime also recomputes exactly every pivot — its
    // guarantees assume exact reduced costs.
    //
    // Pricing reads cached reduced costs d_ and merits. Every exact BTRAN
    // refreshes all of them; an updated y moves only on rho's nonzero rows,
    // so a pivot re-prices just the columns meeting those rows (plus the
    // leaving column), each by the same column-wise formula — the cache
    // always holds what a fresh pass would compute.
    bool y_valid = false;  // y matches the current basis (exactly or updated)
    bool y_exact = false;  // y came from a full BTRAN, not rho updates

    // Devex reference framework (Forrest & Goldfarb): every nonbasic column
    // starts at weight 1 (the phase's starting nonbasic set is the reference
    // frame) and the weights track approximate steepest-edge norms as the
    // basis walks away from it. The frame is re-anchored when the largest
    // weight outgrows its trust window. Eligibility (reduced cost beyond the
    // optimality tolerance) is identical to Dantzig's, so the pricing rule
    // changes only the pivot path, never the optimality conditions.
    //
    // Devex prices phase 2 only; phase 1 prices by Dantzig. The phase-1
    // composite objective is transient and its all-artificial starting basis
    // makes the reference frame uninformative — measured on this workload,
    // devex phase 1 costs 15-20% more pivots than Dantzig, while devex
    // phase 2 saves 8% across the Benders pipeline's warm re-solves.
    const bool devex = !phase1;
    std::vector<double> devex_weight;
    if (devex) devex_weight.assign(static_cast<std::size_t>(ws_.total), 1.0);
    constexpr double kDevexResetThreshold = 1e7;

    d_.assign(static_cast<std::size_t>(ws_.total), 0.0);
    alpha_.assign(static_cast<std::size_t>(ws_.total), 0.0);
    is_touched_.assign(static_cast<std::size_t>(ws_.total), 0);
    merits_.reset(ws_.total);

    for (int iter = 0; iter < max_iters; ++iter, ++total_iters) {
      // Cooperative deadline: checked before the pivot so the overrun past
      // expiry is at most the pivot in flight. Each loop iteration (pivot or
      // bound flip) charges one pivot, making pivot-budget expiry a pure
      // function of the work done — deterministic at any thread count.
      if (options_.deadline != nullptr) {
        if (options_.deadline->expired()) return SolveStatus::kIterationLimit;
        options_.deadline->charge_pivots();
      }
      // Pricing.
      const bool use_bland = degenerate_streak > options_.degenerate_pivot_limit;
      if (use_bland || !y_valid) {
        compute_duals(cost, y);
        price_all(cost, y, devex, devex_weight);
        y_valid = true;
        y_exact = true;
      }
      double entering_dir = 0.0;
      int entering = select_entering(use_bland, entering_dir);
      if (entering < 0 && !y_exact) {
        // Priced out on updated duals: verify against an exact recompute
        // before declaring dual feasibility.
        compute_duals(cost, y);
        price_all(cost, y, devex, devex_weight);
        y_exact = true;
        entering = select_entering(use_bland, entering_dir);
      }
      if (entering < 0) return SolveStatus::kOptimal;  // dual feasible

      basis_.ftran(ws_.column(entering), w);

      // Ratio test. The entering variable moves by t >= 0 in direction
      // entering_dir; basic variable r changes at rate -entering_dir * w[r].
      double t_max = ws_.upper[static_cast<std::size_t>(entering)] -
                     ws_.lower[static_cast<std::size_t>(entering)];
      if (!std::isfinite(t_max)) t_max = kInfinity;
      int leaving = -1;  // row index of the blocking basic variable
      bool leaving_to_upper = false;
      double best_pivot_mag = 0.0;
      constexpr double kPivotTol = 1e-9;
      for (int r = 0; r < m; ++r) {
        const double rate = -entering_dir * w[static_cast<std::size_t>(r)];
        if (std::abs(rate) < kPivotTol) continue;
        const int b = ws_.basis[static_cast<std::size_t>(r)];
        const double xb = ws_.basic_value[static_cast<std::size_t>(r)];
        double limit = kInfinity;
        bool to_upper = false;
        if (rate < 0.0) {  // decreasing toward its lower bound
          const double lb = ws_.lower[static_cast<std::size_t>(b)];
          if (std::isfinite(lb)) limit = (xb - lb) / (-rate);
        } else {  // increasing toward its upper bound
          const double ub = ws_.upper[static_cast<std::size_t>(b)];
          if (std::isfinite(ub)) {
            limit = (ub - xb) / rate;
            to_upper = true;
          }
        }
        if (limit < -1e-12) limit = 0.0;
        if (limit < t_max - 1e-12 ||
            (limit < t_max + 1e-12 &&
             std::abs(w[static_cast<std::size_t>(r)]) > best_pivot_mag)) {
          t_max = std::max(limit, 0.0);
          leaving = r;
          leaving_to_upper = to_upper;
          best_pivot_mag = std::abs(w[static_cast<std::size_t>(r)]);
        }
      }

      if (!std::isfinite(t_max)) {
        return phase1 ? SolveStatus::kInfeasible : SolveStatus::kUnbounded;
      }
      degenerate_streak = t_max < 1e-11 ? degenerate_streak + 1 : 0;

      // Apply the step to the basic values.
      if (t_max > 0.0) {
        for (int r = 0; r < m; ++r) {
          ws_.basic_value[static_cast<std::size_t>(r)] -=
              t_max * entering_dir * w[static_cast<std::size_t>(r)];
        }
      }

      if (leaving < 0) {
        // Bound flip: the entering variable runs to its opposite bound. Only
        // its own status moved, so only its merit does.
        auto& st = ws_.status[static_cast<std::size_t>(entering)];
        st = entering_dir > 0 ? VarStatus::kAtUpper : VarStatus::kAtLower;
        ws_.nonbasic_value[static_cast<std::size_t>(entering)] =
            entering_dir > 0 ? ws_.upper[static_cast<std::size_t>(entering)]
                             : ws_.lower[static_cast<std::size_t>(entering)];
        merits_.update(entering, merit(entering, devex, devex_weight));
        continue;
      }

      // Pivot: entering becomes basic in row `leaving`.
      const int leave_var = ws_.basis[static_cast<std::size_t>(leaving)];
      const double entering_value =
          ws_.nonbasic_value[static_cast<std::size_t>(entering)] +
          entering_dir * t_max;

      ws_.status[static_cast<std::size_t>(leave_var)] =
          leaving_to_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
      ws_.nonbasic_value[static_cast<std::size_t>(leave_var)] =
          leaving_to_upper ? ws_.upper[static_cast<std::size_t>(leave_var)]
                           : ws_.lower[static_cast<std::size_t>(leave_var)];
      ws_.status[static_cast<std::size_t>(entering)] = VarStatus::kBasic;
      ws_.basis[static_cast<std::size_t>(leaving)] = entering;
      ws_.basic_value[static_cast<std::size_t>(leaving)] = entering_value;

      // The pre-pivot row of the inverse serves the devex weight update,
      // the incremental dual update and the re-price, so one kernel call
      // and one scatter cover all three.
      if (devex || !use_bland) {
        basis_.pivot_row(leaving, rho_, rho_rows_);
        scatter_pivot_row();
      }
      if (!use_bland) {
        const double d_q = d_[static_cast<std::size_t>(entering)];
        const double theta_d = d_q / w[static_cast<std::size_t>(leaving)];
        if (theta_d != 0.0) {
          for (const int i : rho_rows_) {
            y[static_cast<std::size_t>(i)] +=
                theta_d * rho_[static_cast<std::size_t>(i)];
          }
        }
        y_exact = false;
      } else {
        y_valid = false;  // pivot without a dual update: recompute next pass
      }

      bool reframed = false;
      if (devex) {
        // Reference-framework update: with entering weight gamma_q and pivot
        // element alpha_q = w[leaving], every priced nonbasic column j
        // updates to max(gamma_j, (alpha_j / alpha_q)^2 * gamma_q) where
        // alpha_j is its pivot-row entry under the *pre-pivot* inverse; the
        // leaving column gets max(gamma_q / alpha_q^2, 1). Columns with
        // alpha_j = 0 keep their weight, so only the scattered ones are
        // visited. Under partial pricing only the active window counts as
        // priced: weights outside it go stale (too small), which only
        // overstates those columns' merit when the window rotates onto
        // them; path quality, never correctness. Bound flips above skip
        // this — the basis (and hence the framework geometry) did not
        // change.
        const double gamma_q = devex_weight[static_cast<std::size_t>(entering)];
        const double alpha_q = w[static_cast<std::size_t>(leaving)];
        const double alpha_q_sq = alpha_q * alpha_q;
        const bool windowed = !use_bland && pricing_window_ < ws_.total;
        double max_weight = 1.0;
        for (const int j : touched_) {
          if (j == entering || j == leave_var) continue;
          if (ws_.status[static_cast<std::size_t>(j)] == VarStatus::kBasic) continue;
          if (locked(j)) continue;  // locked columns never price
          if (windowed && !in_window(j)) continue;
          const double alpha_j = alpha_[static_cast<std::size_t>(j)];
          if (alpha_j != 0.0) {
            double& g = devex_weight[static_cast<std::size_t>(j)];
            const double cand = (alpha_j * alpha_j / alpha_q_sq) * gamma_q;
            if (cand > g) g = cand;
            if (g > max_weight) max_weight = g;
          }
        }
        double& g_leave = devex_weight[static_cast<std::size_t>(leave_var)];
        g_leave = std::max(gamma_q / alpha_q_sq, 1.0);
        if (g_leave > max_weight) max_weight = g_leave;
        devex_weight[static_cast<std::size_t>(entering)] = 1.0;
        if (max_weight > kDevexResetThreshold) {
          // Re-anchor the reference frame at the current nonbasic set.
          std::fill(devex_weight.begin(), devex_weight.end(), 1.0);
          reframed = true;
        }
      }

      // Kernel pivot accounting: an eta append; a true return means the
      // periodic interval or the drift trigger fired.
      if (basis_.update(leaving, w)) {
        if (!refactorize()) return SolveStatus::kIterationLimit;
        y_valid = false;  // refresh the duals from the clean anchor
      }
      // Without valid duals the next pass refreshes every price anyway.
      if (y_valid) {
        reprice_pivot(cost, y, devex, devex_weight, entering, leave_var, reframed);
      }
    }
    return SolveStatus::kIterationLimit;
  }

  SimplexOptions options_;
  Workspace ws_;
  BasisState basis_;
  int first_artificial_ = 0;
  int pricing_window_ = 0;
  int pricing_offset_ = 0;
  bool warm_installed_ = false;
  std::vector<std::span<const Coefficient>> basis_cols_;
  std::vector<double> cb_;
  // The pivot row and its nonzero rows (ascending).
  std::vector<double> rho_;
  std::vector<int> rho_rows_;
  // Pricing state of the running phase: each nonbasic, unlocked column's
  // reduced cost; the merit tree over them; and the columns the last pivot
  // row reached, with their pivot-row entries alpha_ (is_touched_ is
  // all-zero between scatters).
  std::vector<double> d_;
  MeritTree merits_;
  std::vector<int> touched_;
  std::vector<double> alpha_;
  std::vector<unsigned char> is_touched_;
};

}  // namespace

Solution SimplexSolver::solve(const Model& model, const SimplexBasis* warm,
                              SimplexBasis* basis_out) const {
  if (model.num_rows() == 0) {
    // Pure bound problem: each variable sits at whichever bound its cost
    // prefers; unbounded if the preferred direction has no finite bound.
    Solution solution;
    solution.status = SolveStatus::kOptimal;
    solution.x.assign(static_cast<std::size_t>(model.num_variables()), 0.0);
    const double sign = model.sense() == Sense::kMaximize ? -1.0 : 1.0;
    for (int j = 0; j < model.num_variables(); ++j) {
      const Variable& v = model.variable(j);
      const double c = sign * v.objective;
      double x = 0.0;
      if (c > 0) {
        x = v.lower;
      } else if (c < 0) {
        x = v.upper;
      } else {
        x = bound_start_value(v.lower, v.upper);
      }
      if (!std::isfinite(x)) {
        solution.status = SolveStatus::kUnbounded;
        return solution;
      }
      solution.x[static_cast<std::size_t>(j)] = x;
    }
    solution.objective = model.objective_value(solution.x);
    return solution;
  }
  SimplexEngine engine(model, options_, warm);
  Solution solution = engine.run(model);
  solution.reinversions = engine.kernel_stats().reinversions;
  solution.eta_peak = engine.kernel_stats().eta_peak;
  solution.lu_reinversions = engine.kernel_stats().lu_reinversions;
  solution.warm_installed = engine.warm_installed();
  if (basis_out != nullptr && solution.status == SolveStatus::kOptimal) {
    engine.export_basis(*basis_out);
  }
  return solution;
}

}  // namespace prete::lp
