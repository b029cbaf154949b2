#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "lp/basis.h"
#include "util/rng.h"

// BasisState refactorization regressions: the singularity test must be
// relative to each column's input magnitude (an absolute cutoff misreads
// badly scaled — but perfectly conditioned — bases as singular), and truly
// singular bases must still be rejected under every anchor.

namespace prete::lp {
namespace {

std::vector<std::vector<Coefficient>> scaled_basis(int m, double scale,
                                                   std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<Coefficient>> cols(static_cast<std::size_t>(m));
  for (int c = 0; c < m; ++c) {
    auto& col = cols[static_cast<std::size_t>(c)];
    col.push_back(
        {c, scale * rng.uniform(2.0, 4.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0)});
    if (c + 1 < m) col.push_back({c + 1, scale * rng.uniform(-0.5, 0.5)});
  }
  return cols;
}

std::vector<std::span<const Coefficient>> column_pointers(
    const std::vector<std::vector<Coefficient>>& cols) {
  return {cols.begin(), cols.end()};
}

double ftran_residual(const std::vector<std::vector<Coefficient>>& cols,
                      const std::vector<double>& x,
                      const std::vector<double>& rhs) {
  std::vector<double> bx(rhs.size(), 0.0);
  for (std::size_t c = 0; c < cols.size(); ++c) {
    for (const auto& entry : cols[c]) {
      bx[static_cast<std::size_t>(entry.var)] += entry.value * x[c];
    }
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    worst = std::max(worst, std::abs(bx[i] - rhs[i]));
  }
  return worst;
}

// Parameterized by lu_threshold: 1 pins the LU anchor, INT_MAX the explicit
// inverse.
class ScaledBasisRegression : public ::testing::TestWithParam<int> {};

TEST_P(ScaledBasisRegression, TinyButWellConditionedBasisRefactorizes) {
  // Every entry ~1e-13: below the historical absolute 1e-12 pivot cutoff,
  // which called this basis singular. The relative test must accept it and
  // the inverse must actually work.
  constexpr int kDim = 10;
  const auto cols = scaled_basis(kDim, 1e-13, 42);
  BasisState basis;
  basis.configure(128, GetParam());
  ASSERT_TRUE(basis.refactorize(column_pointers(cols)))
      << "well-conditioned basis misclassified as singular";

  std::vector<Coefficient> rhs_sparse = {{3, 1.0}};
  std::vector<double> rhs(kDim, 0.0);
  rhs[3] = 1.0;
  std::vector<double> x(kDim, 0.0);
  basis.ftran(rhs_sparse, x);
  // Inverse entries are ~1e13; residual in the input scale stays tiny.
  EXPECT_LT(ftran_residual(cols, x, rhs), 1e-6);
}

TEST_P(ScaledBasisRegression, HugeBasisRefactorizes) {
  const auto cols = scaled_basis(8, 1e14, 7);
  BasisState basis;
  basis.configure(128, GetParam());
  EXPECT_TRUE(basis.refactorize(column_pointers(cols)));
}

TEST_P(ScaledBasisRegression, TrulySingularBasisStillRejected) {
  auto cols = scaled_basis(8, 1.0, 11);
  cols[5] = cols[1];  // duplicate column: exactly singular
  BasisState basis;
  basis.configure(128, GetParam());
  EXPECT_FALSE(basis.refactorize(column_pointers(cols)));
}

INSTANTIATE_TEST_SUITE_P(Anchors, ScaledBasisRegression, ::testing::Values(1, INT_MAX));

TEST(BasisStateLuAnchorTest, ScaledAndSingularBasesUnderLuAnchor) {
  // The same two regressions with the sparse LU forced as the anchor.
  BasisState basis;
  basis.configure(128, /*lu_threshold=*/1);

  const auto tiny = scaled_basis(10, 1e-13, 42);
  ASSERT_TRUE(basis.refactorize(column_pointers(tiny)));
  EXPECT_TRUE(basis.anchor_is_lu());
  EXPECT_EQ(basis.stats().lu_reinversions, 1);

  auto singular = scaled_basis(8, 1.0, 11);
  singular[5] = singular[1];
  EXPECT_FALSE(basis.refactorize(column_pointers(singular)));
}

TEST(BasisStateLuAnchorTest, ThresholdSelectsAnchor) {
  const auto cols = scaled_basis(6, 1.0, 3);
  const auto ptrs = column_pointers(cols);

  BasisState below;
  below.configure(128, /*lu_threshold=*/7);
  ASSERT_TRUE(below.refactorize(ptrs));
  EXPECT_FALSE(below.anchor_is_lu());
  EXPECT_EQ(below.stats().lu_reinversions, 0);

  BasisState at;
  at.configure(128, /*lu_threshold=*/6);
  ASSERT_TRUE(at.refactorize(ptrs));
  EXPECT_TRUE(at.anchor_is_lu());
  EXPECT_EQ(at.stats().lu_reinversions, 1);
}

TEST(BasisStateLuAnchorTest, AnchorsAgreeOnSolves) {
  // Explicit-inverse anchor and LU anchor represent the same B^-1: ftran,
  // btran, pivot_row, and apply_inverse must agree to rounding.
  constexpr int kDim = 24;
  const auto cols = scaled_basis(kDim, 1.0, 17);
  const auto ptrs = column_pointers(cols);

  BasisState explicit_anchor;
  explicit_anchor.configure(128, INT_MAX);
  ASSERT_TRUE(explicit_anchor.refactorize(ptrs));
  BasisState lu_anchor;
  lu_anchor.configure(128, 1);
  ASSERT_TRUE(lu_anchor.refactorize(ptrs));

  util::Rng rng(23);
  std::vector<Coefficient> a;
  for (int i = 0; i < kDim; ++i) {
    if (rng.bernoulli(0.4)) a.push_back({i, rng.uniform(-2.0, 2.0)});
  }
  std::vector<double> wa(kDim, 0.0);
  std::vector<double> wb(kDim, 0.0);
  explicit_anchor.ftran(a, wa);
  lu_anchor.ftran(a, wb);
  for (int i = 0; i < kDim; ++i) {
    EXPECT_NEAR(wa[static_cast<std::size_t>(i)], wb[static_cast<std::size_t>(i)],
                1e-9)
        << "ftran[" << i << "]";
  }

  std::vector<double> v(kDim);
  for (int i = 0; i < kDim; ++i) v[static_cast<std::size_t>(i)] = rng.uniform(-1.0, 1.0);
  std::vector<double> ya;
  std::vector<double> yb;
  explicit_anchor.btran(v, ya);
  lu_anchor.btran(v, yb);
  for (int i = 0; i < kDim; ++i) {
    EXPECT_NEAR(ya[static_cast<std::size_t>(i)], yb[static_cast<std::size_t>(i)],
                1e-9)
        << "btran[" << i << "]";
  }

  std::vector<double> ra;
  std::vector<double> rb;
  std::vector<int> support;
  explicit_anchor.pivot_row(5, ra, support);
  lu_anchor.pivot_row(5, rb, support);
  for (int i = 0; i < kDim; ++i) {
    EXPECT_NEAR(ra[static_cast<std::size_t>(i)], rb[static_cast<std::size_t>(i)],
                1e-9)
        << "pivot_row[" << i << "]";
  }

  std::vector<double> xa;
  std::vector<double> xb;
  explicit_anchor.apply_inverse(v, xa);
  lu_anchor.apply_inverse(v, xb);
  for (int i = 0; i < kDim; ++i) {
    EXPECT_NEAR(xa[static_cast<std::size_t>(i)], xb[static_cast<std::size_t>(i)],
                1e-9)
        << "apply_inverse[" << i << "]";
  }
}

// Dense reference of the kernel with an explicit anchor: the in-place
// Gauss-Jordan inverse of the anchor basis, stored and swept as a dense
// m x m matrix, and the same product-form eta file. Every loop keeps the
// operation order of the dense explicit anchor the sparse one replaced, so the
// kernel must match it bit for bit (the sparse sweeps skip only exact-zero
// terms, which can at most flip the sign of a zero; == ignores that).
class DenseReference {
 public:
  bool invert(const std::vector<std::vector<Coefficient>>& cols) {
    m_ = static_cast<int>(cols.size());
    const int m = m_;
    std::vector<double> a(static_cast<std::size_t>(m) * m, 0.0);
    std::vector<double> scale(static_cast<std::size_t>(m), 0.0);
    for (int c = 0; c < m; ++c) {
      for (const auto& entry : cols[static_cast<std::size_t>(c)]) {
        a[at(entry.var, c)] = entry.value;
        scale[static_cast<std::size_t>(c)] =
            std::max(scale[static_cast<std::size_t>(c)], std::abs(entry.value));
      }
    }
    std::vector<int> pivots(static_cast<std::size_t>(m));
    for (int col = 0; col < m; ++col) {
      int pivot = col;
      double best = std::abs(a[at(col, col)]);
      for (int r = col + 1; r < m; ++r) {
        if (std::abs(a[at(r, col)]) > best) {
          best = std::abs(a[at(r, col)]);
          pivot = r;
        }
      }
      if (best <= 1e-12 * scale[static_cast<std::size_t>(col)]) return false;
      pivots[static_cast<std::size_t>(col)] = pivot;
      for (int c = 0; c < m; ++c) std::swap(a[at(pivot, c)], a[at(col, c)]);
      const double inv_piv = 1.0 / a[at(col, col)];
      a[at(col, col)] = 1.0;
      for (int c = 0; c < m; ++c) a[at(col, c)] *= inv_piv;
      for (int r = 0; r < m; ++r) {
        if (r == col) continue;
        const double factor = a[at(r, col)];
        if (factor == 0.0) continue;
        a[at(r, col)] = 0.0;
        for (int c = 0; c < m; ++c) a[at(r, c)] -= factor * a[at(col, c)];
      }
    }
    for (int col = m - 1; col >= 0; --col) {
      const int pivot = pivots[static_cast<std::size_t>(col)];
      for (int r = 0; r < m; ++r) std::swap(a[at(r, pivot)], a[at(r, col)]);
    }
    inv_ = std::move(a);
    etas_.clear();
    return true;
  }

  void push(int r, const std::vector<double>& w) {
    Eta eta{r, 1.0 / w[static_cast<std::size_t>(r)], {}, {}};
    for (int i = 0; i < m_; ++i) {
      if (i == r || w[static_cast<std::size_t>(i)] == 0.0) continue;
      eta.idx.push_back(i);
      eta.val.push_back(w[static_cast<std::size_t>(i)]);
    }
    etas_.push_back(std::move(eta));
  }

  std::vector<double> ftran(const std::vector<Coefficient>& a) const {
    std::vector<double> w(static_cast<std::size_t>(m_), 0.0);
    for (const auto& entry : a) {
      if (entry.value == 0.0) continue;
      for (int r = 0; r < m_; ++r) {
        w[static_cast<std::size_t>(r)] += entry.value * inv_[at(r, entry.var)];
      }
    }
    apply_etas(w);
    return w;
  }

  std::vector<double> btran(std::vector<double> v) const {
    for (std::size_t k = etas_.size(); k-- > 0;) {
      const Eta& eta = etas_[k];
      double s = v[static_cast<std::size_t>(eta.r)];
      for (std::size_t p = 0; p < eta.idx.size(); ++p) {
        s -= v[static_cast<std::size_t>(eta.idx[p])] * eta.val[p];
      }
      v[static_cast<std::size_t>(eta.r)] = s * eta.pivot_inv;
    }
    std::vector<double> y(static_cast<std::size_t>(m_), 0.0);
    for (int r = 0; r < m_; ++r) {
      const double vr = v[static_cast<std::size_t>(r)];
      if (vr == 0.0) continue;
      for (int c = 0; c < m_; ++c) y[static_cast<std::size_t>(c)] += vr * inv_[at(r, c)];
    }
    return y;
  }

  std::vector<double> apply_inverse(const std::vector<double>& v) const {
    std::vector<double> x(static_cast<std::size_t>(m_), 0.0);
    for (int r = 0; r < m_; ++r) {
      double acc = 0.0;
      for (int c = 0; c < m_; ++c) acc += inv_[at(r, c)] * v[static_cast<std::size_t>(c)];
      x[static_cast<std::size_t>(r)] = acc;
    }
    apply_etas(x);
    return x;
  }

 private:
  struct Eta {
    int r;
    double pivot_inv;
    std::vector<int> idx;
    std::vector<double> val;
  };

  std::size_t at(int r, int c) const {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(m_) +
           static_cast<std::size_t>(c);
  }

  void apply_etas(std::vector<double>& w) const {
    for (const Eta& eta : etas_) {
      const double t = w[static_cast<std::size_t>(eta.r)] * eta.pivot_inv;
      if (t != 0.0) {
        for (std::size_t p = 0; p < eta.idx.size(); ++p) {
          w[static_cast<std::size_t>(eta.idx[p])] -= eta.val[p] * t;
        }
      }
      w[static_cast<std::size_t>(eta.r)] = t;
    }
  }

  int m_ = 0;
  std::vector<double> inv_;
  std::vector<Eta> etas_;
};

// Random sparse nonsingular basis: a dominant diagonal in (2, 4) and up to
// three small off-diagonals per column.
std::vector<std::vector<Coefficient>> random_sparse_basis(int m, util::Rng& rng) {
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

std::vector<Coefficient> random_sparse_column(int m, util::Rng& rng) {
  std::vector<Coefficient> a;
  const int count = 1 + static_cast<int>(rng.next_below(4));
  for (int e = 0; e < count; ++e) {
    const int r = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(m)));
    bool dup = false;
    for (const auto& entry : a) dup = dup || entry.var == r;
    if (!dup) a.push_back({r, rng.uniform(-2.0, 2.0)});
  }
  return a;
}

std::vector<double> random_dense(int m, double density, util::Rng& rng) {
  std::vector<double> v(static_cast<std::size_t>(m), 0.0);
  for (auto& x : v) {
    if (rng.bernoulli(density)) x = rng.uniform(-1.0, 1.0);
  }
  return v;
}

void expect_equal(const std::vector<double>& got, const std::vector<double>& want,
                  const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << what << "[" << i << "]";
  }
}

void expect_near(const std::vector<double>& got, const std::vector<double>& want,
                 const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  double scale = 1.0;
  for (const double x : want) scale = std::max(scale, std::abs(x));
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-8 * scale) << what << "[" << i << "]";
  }
}

class SparseAnchorProperty : public ::testing::TestWithParam<int> {};

// Random sparse bases under both anchors, with eta files of 0-128 pivots
// that revisit pivot rows: pivot_row(r) is BTRAN of e_r entry by entry, and
// FTRAN, BTRAN and apply_inverse match the dense reference — bit for bit
// under the explicit anchor, to rounding under the LU.
TEST_P(SparseAnchorProperty, KernelMatchesDenseReference) {
  for (const int lu_threshold : {INT_MAX, 1}) {
    SCOPED_TRACE(lu_threshold == 1 ? "LU anchor" : "explicit anchor");
    util::Rng rng(static_cast<std::uint64_t>(9100 + GetParam()));
    const int m = 4 + static_cast<int>(rng.next_below(57));
    auto cols = random_sparse_basis(m, rng);
    BasisState basis;
    basis.configure(1 << 20, lu_threshold);
    ASSERT_TRUE(basis.refactorize(column_pointers(cols)));
    ASSERT_EQ(basis.anchor_is_lu(), lu_threshold == 1);
    DenseReference reference;
    ASSERT_TRUE(reference.invert(cols));

    const int pivots = GetParam() % 4 == 0 ? 0
                       : GetParam() % 4 == 1
                           ? 1 + static_cast<int>(rng.next_below(3))
                           : static_cast<int>(rng.next_below(129));
    int last_row = -1;
    int pushed = 0;
    std::vector<double> w(static_cast<std::size_t>(m), 0.0);
    for (int k = 0; k < pivots; ++k) {
      const auto a = random_sparse_column(m, rng);
      basis.ftran(a, w);
      // The largest |w_r| keeps the product form well conditioned; every
      // third pivot revisits the last row when that pivot is usable.
      int r = 0;
      for (int i = 1; i < m; ++i) {
        if (std::abs(w[static_cast<std::size_t>(i)]) >
            std::abs(w[static_cast<std::size_t>(r)])) {
          r = i;
        }
      }
      if (k % 3 == 2 && last_row >= 0 &&
          std::abs(w[static_cast<std::size_t>(last_row)]) >
              0.1 * std::abs(w[static_cast<std::size_t>(r)])) {
        r = last_row;
      }
      if (std::abs(w[static_cast<std::size_t>(r)]) < 1e-6) continue;
      basis.update(r, w);
      reference.push(r, w);
      last_row = r;
      ++pushed;
    }
    ASSERT_EQ(basis.eta_length(), pushed);

    const bool exact = lu_threshold != 1;
    const auto check = exact ? expect_equal : expect_near;
    for (int trial = 0; trial < 4; ++trial) {
      const auto a = random_sparse_column(m, rng);
      basis.ftran(a, w);
      check(w, reference.ftran(a), "ftran");

      const auto v = random_dense(m, trial == 0 ? 0.1 : 0.7, rng);
      std::vector<double> y;
      basis.btran(v, y);
      check(y, reference.btran(v), "btran");

      std::vector<double> x;
      basis.apply_inverse(v, x);
      check(x, reference.apply_inverse(v), "apply_inverse");
    }
    for (int r = 0; r < m; ++r) {
      std::vector<double> unit(static_cast<std::size_t>(m), 0.0);
      unit[static_cast<std::size_t>(r)] = 1.0;
      std::vector<double> rho;
      std::vector<int> nonzeros;
      std::vector<double> y;
      basis.pivot_row(r, rho, nonzeros);
      basis.btran(unit, y);
      expect_equal(rho, y, "pivot_row vs btran");
      check(rho, reference.btran(unit), "pivot_row");
      // The listed support is strictly ascending and holds every nonzero:
      // pricing visits only the columns meeting it.
      std::vector<char> listed(static_cast<std::size_t>(m), 0);
      for (std::size_t k = 0; k < nonzeros.size(); ++k) {
        ASSERT_TRUE(k == 0 || nonzeros[k - 1] < nonzeros[k]) << "pivot_row support order";
        listed[static_cast<std::size_t>(nonzeros[k])] = 1;
      }
      for (int i = 0; i < m; ++i) {
        if (rho[static_cast<std::size_t>(i)] != 0.0) {
          EXPECT_TRUE(listed[static_cast<std::size_t>(i)]) << "pivot_row support misses " << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseAnchorProperty, ::testing::Range(1, 25));

}  // namespace
}  // namespace prete::lp
