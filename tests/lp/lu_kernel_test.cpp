#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "certificate.h"
#include "lp/lu.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "util/arena.h"
#include "util/rng.h"

// Sparse Markowitz-LU anchor properties: unit-level residual checks of the
// factorization and its triangular solves, then solver-level equivalence of
// the two anchors — explicit inverse and LU — across random models, warm
// starts, the Bland anti-cycling regime, and drift reinversion. The LU
// anchor represents exactly the same inverse as the explicit anchor, so the
// solves must land on the same vertex.

namespace prete::lp {
namespace {

// Random sparse column-diagonally-dominant matrix: guaranteed nonsingular
// (diagonal in (2, 4), at most three off-diagonals each in (-0.5, 0.5)).
std::vector<std::vector<Coefficient>> random_sparse_basis(int m,
                                                          std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<Coefficient>> cols(static_cast<std::size_t>(m));
  for (int c = 0; c < m; ++c) {
    auto& col = cols[static_cast<std::size_t>(c)];
    col.push_back({c, rng.uniform(2.0, 4.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0)});
    const int extras = static_cast<int>(rng.next_below(4));
    for (int e = 0; e < extras; ++e) {
      const int r = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(m)));
      bool dup = false;
      for (const auto& entry : col) dup = dup || entry.var == r;
      if (!dup) col.push_back({r, rng.uniform(-0.5, 0.5)});
    }
  }
  return cols;
}

std::vector<std::span<const Coefficient>> column_pointers(
    const std::vector<std::vector<Coefficient>>& cols) {
  return {cols.begin(), cols.end()};
}

// Residual of B x = rhs for the column-sparse B.
double ftran_residual(const std::vector<std::vector<Coefficient>>& cols,
                      const std::vector<double>& x,
                      const std::vector<double>& rhs) {
  std::vector<double> bx(rhs.size(), 0.0);
  for (std::size_t c = 0; c < cols.size(); ++c) {
    const double xc = x[c];
    if (xc == 0.0) continue;
    for (const auto& entry : cols[c]) {
      bx[static_cast<std::size_t>(entry.var)] += entry.value * xc;
    }
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    worst = std::max(worst, std::abs(bx[i] - rhs[i]));
  }
  return worst;
}

// Residual of B^T y = v.
double btran_residual(const std::vector<std::vector<Coefficient>>& cols,
                      const std::vector<double>& y,
                      const std::vector<double>& v) {
  double worst = 0.0;
  for (std::size_t c = 0; c < cols.size(); ++c) {
    double acc = 0.0;
    for (const auto& entry : cols[c]) {
      acc += entry.value * y[static_cast<std::size_t>(entry.var)];
    }
    worst = std::max(worst, std::abs(acc - v[c]));
  }
  return worst;
}

class LuFactorizationProperty : public ::testing::TestWithParam<int> {};

TEST_P(LuFactorizationProperty, SolvesMatchTheMatrix) {
  util::Rng rng(static_cast<std::uint64_t>(7000 + GetParam()));
  const int m = 5 + static_cast<int>(rng.next_below(60));
  const auto cols = random_sparse_basis(m, static_cast<std::uint64_t>(GetParam()));
  LuFactorization lu;
  util::Arena arena;
  ASSERT_TRUE(lu.factorize(column_pointers(cols), arena));
  EXPECT_EQ(lu.dim(), m);
  EXPECT_GE(lu.stats().nnz_input, m);
  EXPECT_GE(lu.stats().nnz_factors, m);

  // Sparse FTRAN against a random sparse rhs.
  std::vector<Coefficient> a;
  std::vector<double> rhs(static_cast<std::size_t>(m), 0.0);
  for (int i = 0; i < m; ++i) {
    if (!rng.bernoulli(0.3)) continue;
    const double value = rng.uniform(-2.0, 2.0);
    a.push_back({i, value});
    rhs[static_cast<std::size_t>(i)] = value;
  }
  std::vector<double> x;
  lu.ftran(a, x);
  EXPECT_LT(ftran_residual(cols, x, rhs), 1e-9);

  // Dense FTRAN agrees bitwise with the sparse one on the same rhs.
  std::vector<double> x_dense;
  lu.ftran_dense(rhs, x_dense);
  ASSERT_EQ(x.size(), x_dense.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], x_dense[i]);

  // BTRAN against a random dense vector.
  std::vector<double> v(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) v[static_cast<std::size_t>(i)] = rng.uniform(-1.0, 1.0);
  std::vector<double> y;
  lu.btran(v, y);
  EXPECT_LT(btran_residual(cols, y, v), 1e-9);

  // The hypersparse BTRAN agrees bitwise with the dense one on a sparse v
  // (its pattern listing a few zeros too).
  std::vector<double> sparse_v(static_cast<std::size_t>(m), 0.0);
  std::vector<int> pattern;
  for (int i = 0; i < m; ++i) {
    if (!rng.bernoulli(0.15)) continue;
    pattern.push_back(i);
    if (rng.bernoulli(0.8)) sparse_v[static_cast<std::size_t>(i)] = rng.uniform(-1.0, 1.0);
  }
  std::vector<double> y_dense;
  std::vector<double> y_sparse;
  std::vector<int> y_nonzeros;
  lu.btran(sparse_v, y_dense);
  lu.btran_sparse(sparse_v, pattern, y_sparse, y_nonzeros);
  ASSERT_EQ(y_dense.size(), y_sparse.size());
  for (std::size_t i = 0; i < y_dense.size(); ++i) EXPECT_EQ(y_sparse[i], y_dense[i]);
  // And it lists exactly y's nonzeros, ascending.
  std::vector<int> expected;
  for (int i = 0; i < m; ++i) {
    if (y_dense[static_cast<std::size_t>(i)] != 0.0) expected.push_back(i);
  }
  EXPECT_EQ(y_nonzeros, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LuFactorizationProperty, ::testing::Range(1, 20));

TEST(LuFactorizationTest, RefactorizeReusesArenaWithoutGrowth) {
  const auto cols = random_sparse_basis(64, 99);
  const auto ptrs = column_pointers(cols);
  LuFactorization lu;
  util::Arena arena;
  ASSERT_TRUE(lu.factorize(ptrs, arena));
  const std::size_t reserved = arena.bytes_reserved();
  // Steady-state reinversion of the same basis must not reserve more heap.
  for (int pass = 0; pass < 8; ++pass) {
    ASSERT_TRUE(lu.factorize(ptrs, arena));
    EXPECT_EQ(arena.bytes_reserved(), reserved) << "pass " << pass;
  }
}

TEST(LuFactorizationTest, BadlyScaledBasisIsNotSingular) {
  // Every entry scaled by 1e-13: an absolute 1e-12 pivot cutoff would call
  // this singular; the relative test must factorize it and solve correctly.
  auto cols = random_sparse_basis(20, 123);
  for (auto& col : cols) {
    for (auto& entry : col) entry.value *= 1e-13;
  }
  LuFactorization lu;
  util::Arena arena;
  ASSERT_TRUE(lu.factorize(column_pointers(cols), arena));
  std::vector<double> rhs(20, 0.0);
  rhs[3] = 1.0;
  std::vector<double> x;
  lu.ftran_dense(rhs, x);
  EXPECT_LT(ftran_residual(cols, x, rhs), 1e-6);  // entries are ~1e13
}

TEST(LuFactorizationTest, DetectsSingularBasis) {
  // Duplicate columns: exactly singular.
  auto cols = random_sparse_basis(12, 5);
  cols[7] = cols[2];
  LuFactorization lu;
  util::Arena arena;
  EXPECT_FALSE(lu.factorize(column_pointers(cols), arena));

  // A structurally empty column.
  auto cols2 = random_sparse_basis(8, 6);
  cols2[4].clear();
  EXPECT_FALSE(lu.factorize(column_pointers(cols2), arena));
}

TEST(LuFactorizationTest, ResetDiagonalIsTrivialFactorization) {
  LuFactorization lu;
  std::vector<double> signs = {1.0, -1.0, 1.0, -1.0, -1.0};
  lu.reset_diagonal(5, signs);
  std::vector<double> v = {2.0, 3.0, -1.0, 0.5, 4.0};
  std::vector<double> x;
  lu.ftran_dense(v, x);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(x[i], v[i] * signs[i]);
  std::vector<double> y;
  lu.btran(v, y);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(y[i], v[i] * signs[i]);
}

// The linear scan ColumnQueue replaced: the k active columns with the
// smallest (count, index), by insertion sort over every column.
int scan_smallest(const std::vector<int>& count,
                  const std::vector<unsigned char>& active, int k, int* out) {
  int found = 0;
  for (int c = 0; c < static_cast<int>(count.size()); ++c) {
    if (!active[static_cast<std::size_t>(c)]) continue;
    int pos = found;
    while (pos > 0 && count[static_cast<std::size_t>(out[pos - 1])] >
                          count[static_cast<std::size_t>(c)]) {
      --pos;
    }
    if (pos >= k) continue;
    const int last = std::min(found, k - 1);
    for (int q = last; q > pos; --q) out[q] = out[q - 1];
    out[pos] = c;
    if (found < k) ++found;
  }
  return found;
}

class ColumnQueueProperty : public ::testing::TestWithParam<int> {};

// Under random increments, decrements (of retired columns too, as the
// elimination does for the pivot column) and retirements down to an empty
// queue, over a narrow count range so that ties are the rule, the queue
// picks exactly the columns and the order of the scan.
TEST_P(ColumnQueueProperty, SmallestMatchesLinearScan) {
  util::Rng rng(static_cast<std::uint64_t>(4400 + GetParam()));
  const int m = 1 + static_cast<int>(rng.next_below(90));
  std::vector<int> count(static_cast<std::size_t>(m));
  for (auto& c : count) c = 1 + static_cast<int>(rng.next_below(5));
  std::vector<unsigned char> active(static_cast<std::size_t>(m), 1);
  ColumnQueue queue;
  queue.reset(count);

  for (int step = 0; step < 40 * m; ++step) {
    const int c = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(m)));
    const auto op = rng.next_below(8);
    if (op < 3) {
      ++count[static_cast<std::size_t>(c)];
      queue.increment(c);
    } else if (op < 6) {
      if (count[static_cast<std::size_t>(c)] == 0) continue;
      --count[static_cast<std::size_t>(c)];
      queue.decrement(c);
    } else if (active[static_cast<std::size_t>(c)]) {
      active[static_cast<std::size_t>(c)] = 0;
      queue.retire(c);
    }
    ASSERT_EQ(queue.count(c), count[static_cast<std::size_t>(c)]);
    ASSERT_EQ(queue.active(c), active[static_cast<std::size_t>(c)] != 0);
    for (const int k : {1, 4, ColumnQueue::kMaxPick}) {
      int want[ColumnQueue::kMaxPick];
      int got[ColumnQueue::kMaxPick];
      const int n_want = scan_smallest(count, active, k, want);
      const int n_got = queue.smallest(k, got);
      ASSERT_EQ(n_got, n_want) << "step " << step << " k " << k;
      for (int i = 0; i < n_want; ++i) {
        ASSERT_EQ(got[i], want[i]) << "step " << step << " k " << k << " slot " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColumnQueueProperty, ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// Solver-level equivalence of the three kernel configurations.

Model random_feasible_lp(std::uint64_t seed) {
  util::Rng rng(seed);
  const int n = 4 + static_cast<int>(rng.next_below(8));
  const int rows = 3 + static_cast<int>(rng.next_below(8));

  Model m(Sense::kMaximize);
  for (int j = 0; j < n; ++j) {
    m.add_variable(0.0, rng.uniform(0.5, 5.0), rng.uniform(-1.0, 2.0));
  }
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

// lu_threshold = 1 forces the sparse LU anchor even on tiny bases;
// lu_threshold = INT_MAX pins the explicit-inverse anchor. A short refactor
// interval makes even the small random models reinvert mid-solve, so the
// anchor under test actually carries pivoting state (cold starts alone never
// refactorize — they begin from the diagonal reset).
SimplexOptions anchor_options(int lu_threshold) {
  SimplexOptions options;
  options.pricing_window = -1;  // full pricing: the anchor is the only variable
  options.lu_threshold = lu_threshold;
  options.refactor_interval = 4;
  return options;
}

void expect_equivalent(const Model& m, const Solution& reference,
                       const Solution& candidate, const char* label) {
  ASSERT_EQ(reference.status, candidate.status) << label;
  if (reference.status != SolveStatus::kOptimal) return;
  EXPECT_NEAR(reference.objective, candidate.objective,
              1e-9 * (1.0 + std::abs(reference.objective)))
      << label;
  ASSERT_EQ(reference.x.size(), candidate.x.size()) << label;
  for (std::size_t j = 0; j < reference.x.size(); ++j) {
    EXPECT_NEAR(reference.x[j], candidate.x[j], 1e-9)
        << label << " x[" << j << "]";
  }
  EXPECT_LT(m.max_violation(candidate.x), 1e-6) << label;
}

class LuAnchorEquivalenceProperty : public ::testing::TestWithParam<int> {};

TEST_P(LuAnchorEquivalenceProperty, LuMatchesExplicitAndDenseCold) {
  const Model m = random_feasible_lp(static_cast<std::uint64_t>(GetParam()));
  const Solution explicit_anchor = SimplexSolver(anchor_options(INT_MAX)).solve(m);
  const Solution lu_anchor = SimplexSolver(anchor_options(1)).solve(m);
  EXPECT_TRUE(is_certified_optimal(m, lu_anchor));
  expect_equivalent(m, explicit_anchor, lu_anchor, "lu vs explicit");
  // The counter proves the LU anchor really carried the solve. The periodic
  // counter resets per phase, so only >= 7 total pivots guarantee one phase
  // crossed the interval of 4.
  EXPECT_EQ(explicit_anchor.lu_reinversions, 0);
  if (lu_anchor.status == SolveStatus::kOptimal && lu_anchor.iterations >= 7) {
    EXPECT_GE(lu_anchor.lu_reinversions, 1);
  }
}

TEST_P(LuAnchorEquivalenceProperty, LuMatchesExplicitUnderFrequentReinversion) {
  const Model m =
      random_feasible_lp(static_cast<std::uint64_t>(1300 + GetParam()));
  const Solution a = SimplexSolver(anchor_options(INT_MAX)).solve(m);
  const Solution b = SimplexSolver(anchor_options(1)).solve(m);
  expect_equivalent(m, a, b, "lu vs explicit, interval 4");
  // floor(p1 / 4) + floor(p2 / 4) >= (iterations - 6) / 4: at 14 pivots at
  // least two periodic reinversions fired regardless of the phase split.
  if (b.status == SolveStatus::kOptimal && b.iterations >= 14) {
    EXPECT_GE(b.lu_reinversions, 2);
  }
}

TEST_P(LuAnchorEquivalenceProperty, LuWarmStartMatchesCold) {
  const Model m =
      random_feasible_lp(static_cast<std::uint64_t>(2700 + GetParam()));
  SimplexBasis basis;
  const Solution cold = SimplexSolver(anchor_options(1)).solve(m, nullptr, &basis);
  if (cold.status != SolveStatus::kOptimal) return;
  // Installing the optimal basis refactorizes through the LU anchor and must
  // terminate without a pivot at the same point.
  const Solution warm = SimplexSolver(anchor_options(1)).solve(m, &basis, nullptr);
  expect_equivalent(m, cold, warm, "lu warm");
  EXPECT_EQ(warm.iterations, 0) << "optimal hint should not pivot";
  EXPECT_GE(warm.lu_reinversions, 1);

  // Cross-anchor warm start: a basis exported under the explicit anchor
  // seeds an LU-anchored solve (and vice versa) — the snapshot is kernel
  // agnostic.
  SimplexBasis explicit_basis;
  const Solution explicit_cold =
      SimplexSolver(anchor_options(INT_MAX)).solve(m, nullptr, &explicit_basis);
  ASSERT_EQ(explicit_cold.status, SolveStatus::kOptimal);
  const Solution cross =
      SimplexSolver(anchor_options(1)).solve(m, &explicit_basis, nullptr);
  expect_equivalent(m, explicit_cold, cross, "cross-anchor warm");
}

INSTANTIATE_TEST_SUITE_P(Seeds, LuAnchorEquivalenceProperty,
                         ::testing::Range(1, 25));

TEST(LuAnchorBlandTest, AntiCyclingRegimeMatchesExplicitAnchor) {
  // Forcing Bland's rule from the first degenerate pivot exercises the
  // pivot_row path (BTRAN through the LU anchor) on every ratio-test tie.
  for (int seed = 1; seed <= 8; ++seed) {
    const Model m = random_feasible_lp(static_cast<std::uint64_t>(5100 + seed));
    SimplexOptions explicit_opts = anchor_options(INT_MAX);
    SimplexOptions lu_opts = anchor_options(1);
    explicit_opts.degenerate_pivot_limit = 1;
    lu_opts.degenerate_pivot_limit = 1;
    const Solution a = SimplexSolver(explicit_opts).solve(m);
    const Solution b = SimplexSolver(lu_opts).solve(m);
    expect_equivalent(m, a, b, "bland regime");
  }
}

TEST(LuAnchorDriftTest, IllConditionedChainForcesEarlyReinversion) {
  // The KernelDriftTest chain, solved with the LU anchor: the cascading
  // (3e4)^k inverse entries must still trip the eta drift trigger, and the
  // forced reinversions rebuild a sparse LU.
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

  SimplexOptions lu_opts = anchor_options(1);
  lu_opts.refactor_interval = 1 << 20;  // periodic trigger out of reach
  const Solution lu = SimplexSolver(lu_opts).solve(m);
  ASSERT_EQ(lu.status, SolveStatus::kOptimal);
  EXPECT_GE(lu.reinversions, 1) << "drift trigger never fired";
  EXPECT_GE(lu.lu_reinversions, 1);
  EXPECT_TRUE(is_certified_optimal(m, lu));
}

TEST(LuAnchorThresholdTest, AutoSelectionFollowsBasisDimension) {
  const Model m = random_feasible_lp(31415);
  const int rows = m.num_rows();
  // Threshold above the row count: explicit anchor, no LU reinversions.
  SimplexOptions above = anchor_options(rows + 1);
  const Solution no_lu = SimplexSolver(above).solve(m);
  EXPECT_EQ(no_lu.lu_reinversions, 0);
  // Threshold at the row count: every anchor is the sparse LU.
  SimplexOptions at = anchor_options(rows);
  const Solution with_lu = SimplexSolver(at).solve(m);
  if (with_lu.status == SolveStatus::kOptimal && with_lu.iterations >= 7) {
    EXPECT_GE(with_lu.lu_reinversions, 1);
  }
  expect_equivalent(m, no_lu, with_lu, "threshold boundary");
}

}  // namespace
}  // namespace prete::lp
