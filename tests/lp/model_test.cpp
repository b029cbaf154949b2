#include "lp/model.h"

#include <gtest/gtest.h>

namespace prete::lp {
namespace {

TEST(ModelTest, VariableBookkeeping) {
  Model m;
  const int x = m.add_variable(0, 10, 2.0);
  const int b = m.add_binary(1.0);
  const int i = m.add_integer(-3, 3, 0.5);
  EXPECT_EQ(m.num_variables(), 3);
  EXPECT_DOUBLE_EQ(m.variable(x).upper, 10.0);
  EXPECT_TRUE(m.variable(b).is_integer);
  EXPECT_TRUE(m.variable(i).is_integer);
  EXPECT_FALSE(m.variable(x).is_integer);
  EXPECT_TRUE(m.has_integers());
}

TEST(ModelTest, PureLpHasNoIntegers) {
  Model m;
  m.add_variable(0, 1, 1.0);
  EXPECT_FALSE(m.has_integers());
}

TEST(ModelTest, RejectsCrossedBounds) {
  Model m;
  EXPECT_THROW(m.add_variable(2.0, 1.0, 0.0), std::invalid_argument);
  const int x = m.add_variable(0, 1, 0.0);
  EXPECT_THROW(m.set_bounds(x, 5.0, 4.0), std::invalid_argument);
}

TEST(ModelTest, RejectsUnknownVariableInRow) {
  Model m;
  m.add_variable(0, 1, 0.0);
  EXPECT_THROW(m.add_row({{7, 1.0}}, RowType::kLessEqual, 1.0),
               std::out_of_range);
}

TEST(ModelTest, ObjectiveValue) {
  Model m;
  m.add_variable(0, 10, 2.0);
  m.add_variable(0, 10, -1.0);
  EXPECT_DOUBLE_EQ(m.objective_value({3.0, 4.0}), 2.0);
}

TEST(ModelTest, MaxViolationMeasuresWorstRow) {
  Model m;
  const int x = m.add_variable(0, 10, 0.0);
  m.add_row({{x, 1.0}}, RowType::kLessEqual, 2.0);
  m.add_row({{x, 1.0}}, RowType::kGreaterEqual, 5.0);
  // x=3: violates >=5 by 2, and <=2 by 1.
  EXPECT_DOUBLE_EQ(m.max_violation({3.0}), 2.0);
  // x=11 violates its own bound by 1 and <=2 by 9.
  EXPECT_DOUBLE_EQ(m.max_violation({11.0}), 9.0);
}

TEST(ModelTest, EqualityViolationIsAbsolute) {
  Model m;
  const int x = m.add_variable(-10, 10, 0.0);
  m.add_row({{x, 2.0}}, RowType::kEqual, 4.0);
  EXPECT_DOUBLE_EQ(m.max_violation({1.0}), 2.0);
  EXPECT_DOUBLE_EQ(m.max_violation({3.0}), 2.0);
  EXPECT_DOUBLE_EQ(m.max_violation({2.0}), 0.0);
}

TEST(ModelTest, StatusStrings) {
  EXPECT_STREQ(to_string(SolveStatus::kOptimal), "optimal");
  EXPECT_STREQ(to_string(SolveStatus::kInfeasible), "infeasible");
  EXPECT_STREQ(to_string(SolveStatus::kUnbounded), "unbounded");
  EXPECT_STREQ(to_string(SolveStatus::kIterationLimit), "iteration-limit");
}

}  // namespace
}  // namespace prete::lp
