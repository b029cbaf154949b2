#include "lp/simplex.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

#include "lp/model.h"
#include "util/deadline.h"

namespace prete::lp {
namespace {

// max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18  -> x=2, y=6, obj=36.
Model classic_model(int* x_out, int* y_out) {
  Model m(Sense::kMaximize);
  const int x = m.add_variable(0, kInfinity, 3.0);
  const int y = m.add_variable(0, kInfinity, 5.0);
  m.add_row({{x, 1.0}}, RowType::kLessEqual, 4.0);
  m.add_row({{y, 2.0}}, RowType::kLessEqual, 12.0);
  m.add_row({{x, 3.0}, {y, 2.0}}, RowType::kLessEqual, 18.0);
  if (x_out != nullptr) *x_out = x;
  if (y_out != nullptr) *y_out = y;
  return m;
}

bool primal_feasible_classic(const Solution& s, int x, int y) {
  const double xv = s.x[static_cast<std::size_t>(x)];
  const double yv = s.x[static_cast<std::size_t>(y)];
  const double tol = 1e-7;
  return xv >= -tol && yv >= -tol && xv <= 4.0 + tol &&
         2.0 * yv <= 12.0 + tol && 3.0 * xv + 2.0 * yv <= 18.0 + tol;
}

TEST(SimplexDeadlineTest, GenerousBudgetMatchesUnbudgeted) {
  int x = 0, y = 0;
  const Model m = classic_model(&x, &y);
  const Solution base = SimplexSolver().solve(m);
  ASSERT_EQ(base.status, SolveStatus::kOptimal);

  util::Deadline deadline = util::Deadline::pivot_budget(10000);
  SimplexOptions opts;
  opts.deadline = &deadline;
  const Solution budgeted = SimplexSolver(opts).solve(m);
  ASSERT_EQ(budgeted.status, SolveStatus::kOptimal);
  // A budget the solve never hits must not perturb the pivot path: the
  // answer is bitwise identical to the default-constructed solve.
  EXPECT_EQ(budgeted.objective, base.objective);
  EXPECT_EQ(budgeted.x, base.x);
  EXPECT_EQ(budgeted.duals, base.duals);
  EXPECT_EQ(budgeted.iterations, base.iterations);
  // Every loop entry is charged, including the final optimality-discovery
  // entry of each phase — so the charge exceeds the completed-pivot count
  // by at most one per phase.
  EXPECT_GE(deadline.pivots_charged(), base.iterations);
  EXPECT_LE(deadline.pivots_charged(), base.iterations + 2);
}

TEST(SimplexDeadlineTest, TightBudgetReturnsPhase2Incumbent) {
  int x = 0, y = 0;
  const Model m = classic_model(&x, &y);
  // Measure the full solve's charge with a generous deadline, then re-solve
  // with one pivot less: the limit falls in phase 2 (this instance needs
  // several phase-2 pivots), which must yield a usable incumbent.
  util::Deadline probe = util::Deadline::pivot_budget(10000);
  SimplexOptions probe_opts;
  probe_opts.deadline = &probe;
  const Solution base = SimplexSolver(probe_opts).solve(m);
  ASSERT_EQ(base.status, SolveStatus::kOptimal);
  const std::int64_t full_charge = probe.pivots_charged();
  ASSERT_GT(full_charge, 2);

  util::Deadline deadline = util::Deadline::pivot_budget(full_charge - 1);
  SimplexOptions opts;
  opts.deadline = &deadline;
  const Solution s = SimplexSolver(opts).solve(m);
  ASSERT_EQ(s.status, SolveStatus::kIterationLimit);
  EXPECT_TRUE(deadline.expired());

  // Incumbent contract: a primal-feasible point, its true objective, and no
  // duals (the incumbent basis is not dual-feasible — unusable for cuts).
  ASSERT_EQ(s.x.size(), 2u);
  EXPECT_TRUE(primal_feasible_classic(s, x, y));
  const double cx = 3.0 * s.x[static_cast<std::size_t>(x)] +
                    5.0 * s.x[static_cast<std::size_t>(y)];
  EXPECT_NEAR(s.objective, cx, 1e-8);
  EXPECT_LE(s.objective, base.objective + 1e-8);
  EXPECT_TRUE(s.duals.empty());
}

TEST(SimplexDeadlineTest, BudgetBoundsPivotsCharged) {
  const Model m = classic_model(nullptr, nullptr);
  for (std::int64_t budget = 1; budget <= 4; ++budget) {
    util::Deadline deadline = util::Deadline::pivot_budget(budget);
    SimplexOptions opts;
    opts.deadline = &deadline;
    (void)SimplexSolver(opts).solve(m);
    EXPECT_LE(deadline.pivots_charged(), budget) << "budget " << budget;
  }
}

TEST(SimplexDeadlineTest, Phase1LimitYieldsEmptyX) {
  // Two equality rows force two artificials, so phase 1 needs at least two
  // pivots; a budget of one expires before any feasible point exists.
  Model m(Sense::kMinimize);
  const int x = m.add_variable(0.0, kInfinity, 1.0);
  const int y = m.add_variable(0.0, kInfinity, 1.0);
  m.add_row({{x, 1.0}}, RowType::kEqual, 3.0);
  m.add_row({{y, 1.0}}, RowType::kEqual, 4.0);

  util::Deadline deadline = util::Deadline::pivot_budget(1);
  SimplexOptions opts;
  opts.deadline = &deadline;
  const Solution s = SimplexSolver(opts).solve(m);
  ASSERT_EQ(s.status, SolveStatus::kIterationLimit);
  EXPECT_TRUE(s.x.empty());
  EXPECT_TRUE(s.duals.empty());
}

TEST(SimplexDeadlineTest, SharedDeadlineSpansSolves) {
  // One budget threaded through successive solves (the Benders pattern):
  // the second solve starts with a nearly spent budget and expires.
  const Model m = classic_model(nullptr, nullptr);
  util::Deadline probe = util::Deadline::pivot_budget(10000);
  SimplexOptions probe_opts;
  probe_opts.deadline = &probe;
  ASSERT_EQ(SimplexSolver(probe_opts).solve(m).status, SolveStatus::kOptimal);
  const std::int64_t full_charge = probe.pivots_charged();

  util::Deadline deadline = util::Deadline::pivot_budget(full_charge + 1);
  SimplexOptions opts;
  opts.deadline = &deadline;
  const SimplexSolver solver(opts);
  EXPECT_EQ(solver.solve(m).status, SolveStatus::kOptimal);
  EXPECT_EQ(solver.solve(m).status, SolveStatus::kIterationLimit);
  EXPECT_TRUE(deadline.expired());
}

}  // namespace
}  // namespace prete::lp
