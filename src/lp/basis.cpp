#include "lp/basis.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace prete::lp {

void BasisState::configure(int refactor_interval, int lu_threshold) {
  refactor_interval_ = refactor_interval;
  lu_threshold_ = lu_threshold;
}

void BasisState::clear_etas() {
  eta_row_.clear();
  eta_pivot_inv_.clear();
  eta_idx_.clear();
  eta_val_.clear();
  eta_next_.clear();
  eta_row_before_.clear();
  eta_head_.assign(static_cast<std::size_t>(m_), -1);
  eta_start_.assign(1, 0);
}

void BasisState::reset_diagonal(int m, const std::vector<double>& signs) {
  m_ = m;
  anchor_is_lu_ = m >= lu_threshold_;
  if (anchor_is_lu_) {
    // Trivial LU of diag(signs) — no O(m^2) buffer ever materializes.
    lu_.reset_diagonal(m, signs);
  } else {
    inv_rows_.start.resize(static_cast<std::size_t>(m) + 1);
    inv_rows_.idx.resize(static_cast<std::size_t>(m));
    for (int i = 0; i <= m; ++i) inv_rows_.start[static_cast<std::size_t>(i)] = i;
    for (int i = 0; i < m; ++i) inv_rows_.idx[static_cast<std::size_t>(i)] = i;
    inv_rows_.val.assign(signs.begin(), signs.begin() + m);
    inv_cols_ = inv_rows_;  // a diagonal matrix is its own transpose
  }
  clear_etas();
  pivots_since_refactor_ = 0;
}

bool BasisState::refactorize(
    const std::vector<std::span<const Coefficient>>& basis_columns) {
  const int m = static_cast<int>(basis_columns.size());
  m_ = m;
  anchor_is_lu_ = m >= lu_threshold_;
  if (anchor_is_lu_) {
    if (!lu_.factorize(basis_columns, lu_arena_)) return false;
    ++stats_.lu_reinversions;
  } else if (!invert_sparse(basis_columns)) {
    return false;
  }
  clear_etas();
  pivots_since_refactor_ = 0;
  ++stats_.reinversions;
  return true;
}

bool BasisState::invert_sparse(
    const std::vector<std::span<const Coefficient>>& basis_columns) {
  // Single-pass in-place Gauss-Jordan with partial pivoting: the matrix
  // gradually becomes its own inverse (row swaps are undone as a column
  // permutation at the end). An entry a dense sweep would update by
  // factor * 0 is left alone, so each step costs the nonzeros of the pivot
  // row times the rows it eliminates.
  const int m = m_;
  const std::size_t mm = static_cast<std::size_t>(m) * m;
  if (gj_val_.size() != mm) {
    gj_val_.assign(mm, 0.0);
    gj_present_.assign(mm, 0);
  }
  gj_row_cols_.resize(static_cast<std::size_t>(m));
  gj_col_rows_.resize(static_cast<std::size_t>(m));
  col_scale_.assign(static_cast<std::size_t>(m), 0.0);
  for (int c = 0; c < m; ++c) {
    for (const auto& entry : basis_columns[static_cast<std::size_t>(c)]) {
      const std::size_t at = static_cast<std::size_t>(entry.var) * m + c;
      if (!gj_present_[at]) {
        gj_present_[at] = 1;
        gj_row_cols_[static_cast<std::size_t>(entry.var)].push_back(c);
        gj_col_rows_[static_cast<std::size_t>(c)].push_back(entry.var);
      }
      gj_val_[at] = entry.value;
      const double mag = std::abs(entry.value);
      if (mag > col_scale_[static_cast<std::size_t>(c)]) {
        col_scale_[static_cast<std::size_t>(c)] = mag;
      }
    }
  }

  gj_phys_.resize(static_cast<std::size_t>(m));
  gj_logical_.resize(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    gj_phys_[static_cast<std::size_t>(i)] = i;
    gj_logical_[static_cast<std::size_t>(i)] = i;
  }
  pivot_rows_.resize(static_cast<std::size_t>(m));
  for (int col = 0; col < m; ++col) {
    // Pivot: the largest magnitude in column col among logical rows >= col,
    // the lowest logical row on ties (the first strict max in row order).
    const std::vector<int>& column = gj_col_rows_[static_cast<std::size_t>(col)];
    int pivot = col;
    double best = std::abs(
        gj_val_[static_cast<std::size_t>(gj_phys_[static_cast<std::size_t>(col)]) * m + col]);
    for (const int p : column) {
      const int r = gj_logical_[static_cast<std::size_t>(p)];
      if (r <= col) continue;
      const double v = std::abs(gj_val_[static_cast<std::size_t>(p) * m + col]);
      if (v > best || (v == best && r < pivot)) {
        best = v;
        pivot = r;
      }
    }
    // Relative singularity: the eliminated column's best pivot collapsed
    // against the column's input magnitude. An absolute cutoff here
    // misclassifies badly scaled (but perfectly conditioned) bases — a
    // basis scaled by 1e-13 is not singular.
    if (best <= 1e-12 * col_scale_[static_cast<std::size_t>(col)]) {
      clear_workspace();
      return false;  // numerically singular basis
    }
    pivot_rows_[static_cast<std::size_t>(col)] = pivot;
    if (pivot != col) {
      std::swap(gj_phys_[static_cast<std::size_t>(pivot)],
                gj_phys_[static_cast<std::size_t>(col)]);
      gj_logical_[static_cast<std::size_t>(gj_phys_[static_cast<std::size_t>(pivot)])] = pivot;
      gj_logical_[static_cast<std::size_t>(gj_phys_[static_cast<std::size_t>(col)])] = col;
    }
    const int prow = gj_phys_[static_cast<std::size_t>(col)];
    double* pv = gj_val_.data() + static_cast<std::size_t>(prow) * m;
    const double inv_piv = 1.0 / pv[col];
    pv[col] = 1.0;
    gj_pivot_nz_.clear();
    for (const int c : gj_row_cols_[static_cast<std::size_t>(prow)]) {
      pv[c] *= inv_piv;
      if (pv[c] != 0.0) gj_pivot_nz_.push_back(c);
    }
    // Every row holding column col is present in its list; fill-in lands in
    // the pivot row's other columns, so the list does not grow here.
    for (std::size_t q = 0; q < column.size(); ++q) {
      const int p = column[q];
      if (p == prow) continue;
      double* row = gj_val_.data() + static_cast<std::size_t>(p) * m;
      const double factor = row[col];
      if (factor == 0.0) continue;
      row[col] = 0.0;
      for (const int c : gj_pivot_nz_) {
        const std::size_t at = static_cast<std::size_t>(p) * m + c;
        if (!gj_present_[at]) {
          gj_present_[at] = 1;
          gj_row_cols_[static_cast<std::size_t>(p)].push_back(c);
          gj_col_rows_[static_cast<std::size_t>(c)].push_back(p);
        }
        row[c] -= factor * pv[c];
      }
    }
  }

  // Undo the row swaps as column swaps, in reverse: workspace column j ends
  // up in column dest[j] of the inverse.
  perm_.resize(static_cast<std::size_t>(m));
  for (int c = 0; c < m; ++c) perm_[static_cast<std::size_t>(c)] = c;
  for (int col = m - 1; col >= 0; --col) {
    std::swap(perm_[static_cast<std::size_t>(pivot_rows_[static_cast<std::size_t>(col)])],
              perm_[static_cast<std::size_t>(col)]);
  }
  std::vector<int>& dest = gj_logical_;  // no longer needed as a row map
  for (int c = 0; c < m; ++c) {
    dest[static_cast<std::size_t>(perm_[static_cast<std::size_t>(c)])] = c;
  }

  // Gather the nonzeros row by row (logical order), returning the workspace
  // to zero as they are read, then sort both ways by transposing twice.
  unsorted_.start.assign(1, 0);
  unsorted_.idx.clear();
  unsorted_.val.clear();
  for (int r = 0; r < m; ++r) {
    const int p = gj_phys_[static_cast<std::size_t>(r)];
    std::vector<int>& cols = gj_row_cols_[static_cast<std::size_t>(p)];
    for (const int j : cols) {
      const std::size_t at = static_cast<std::size_t>(p) * m + j;
      const double v = gj_val_[at];
      gj_val_[at] = 0.0;
      gj_present_[at] = 0;
      if (v == 0.0) continue;
      unsorted_.idx.push_back(dest[static_cast<std::size_t>(j)]);
      unsorted_.val.push_back(v);
    }
    cols.clear();
    unsorted_.start.push_back(static_cast<int>(unsorted_.idx.size()));
  }
  for (auto& column : gj_col_rows_) column.clear();
  transpose(unsorted_, inv_cols_);
  transpose(inv_cols_, inv_rows_);
  return true;
}

void BasisState::clear_workspace() {
  const std::size_t m = gj_row_cols_.size();
  for (std::size_t p = 0; p < m; ++p) {
    for (const int j : gj_row_cols_[p]) {
      gj_val_[p * m + static_cast<std::size_t>(j)] = 0.0;
      gj_present_[p * m + static_cast<std::size_t>(j)] = 0;
    }
    gj_row_cols_[p].clear();
  }
  for (auto& column : gj_col_rows_) column.clear();
}

void BasisState::transpose(const Compressed& in, Compressed& out) {
  const int m = m_;
  // Counting sort: out.start[j + 1] is line j's insertion cursor, and ends
  // as line j's end (= line j + 1's start).
  out.start.assign(static_cast<std::size_t>(m) + 2, 0);
  for (const int j : in.idx) ++out.start[static_cast<std::size_t>(j) + 2];
  for (std::size_t i = 2; i < out.start.size(); ++i) {
    out.start[i] += out.start[i - 1];
  }
  out.idx.resize(in.idx.size());
  out.val.resize(in.val.size());
  for (int i = 0; i < m; ++i) {
    const int begin = in.start[static_cast<std::size_t>(i)];
    const int end = in.start[static_cast<std::size_t>(i) + 1];
    for (int p = begin; p < end; ++p) {
      const int q = out.start[static_cast<std::size_t>(in.idx[static_cast<std::size_t>(p)]) + 1]++;
      out.idx[static_cast<std::size_t>(q)] = i;
      out.val[static_cast<std::size_t>(q)] = in.val[static_cast<std::size_t>(p)];
    }
  }
  out.start.pop_back();
}

void BasisState::ftran(std::span<const Coefficient> a,
                       std::vector<double>& w) const {
  // Anchor pass — sparse LU triangular solves for large bases, otherwise an
  // axpy per sparse entry against the anchor's column — then the eta file
  // in forward order.
  if (anchor_is_lu_) {
    lu_.ftran(a, w);
  } else {
    std::fill(w.begin(), w.end(), 0.0);
    for (const auto& entry : a) {
      const double v = entry.value;
      if (v == 0.0) continue;
      const int begin = inv_cols_.start[static_cast<std::size_t>(entry.var)];
      const int end = inv_cols_.start[static_cast<std::size_t>(entry.var) + 1];
      for (int p = begin; p < end; ++p) {
        w[static_cast<std::size_t>(inv_cols_.idx[static_cast<std::size_t>(p)])] +=
            v * inv_cols_.val[static_cast<std::size_t>(p)];
      }
    }
  }
  const std::size_t etas = eta_row_.size();
  for (std::size_t k = 0; k < etas; ++k) {
    const int r = eta_row_[k];
    const double t = w[static_cast<std::size_t>(r)] * eta_pivot_inv_[k];
    if (t != 0.0) {
      const int begin = eta_start_[k];
      const int end = eta_start_[k + 1];
      for (int p = begin; p < end; ++p) {
        w[static_cast<std::size_t>(eta_idx_[static_cast<std::size_t>(p)])] -=
            eta_val_[static_cast<std::size_t>(p)] * t;
      }
    }
    w[static_cast<std::size_t>(r)] = t;
  }
}

void BasisState::btran(const std::vector<double>& v,
                       std::vector<double>& y) const {
  y.assign(static_cast<std::size_t>(m_), 0.0);
  const std::vector<double>* src = &v;
  if (!eta_row_.empty()) {
    scratch_ = v;
    for (std::size_t k = eta_row_.size(); k-- > 0;) {
      const int r = eta_row_[k];
      double s = scratch_[static_cast<std::size_t>(r)];
      const int begin = eta_start_[k];
      const int end = eta_start_[k + 1];
      for (int p = begin; p < end; ++p) {
        s -= scratch_[static_cast<std::size_t>(
                 eta_idx_[static_cast<std::size_t>(p)])] *
             eta_val_[static_cast<std::size_t>(p)];
      }
      scratch_[static_cast<std::size_t>(r)] = s * eta_pivot_inv_[k];
    }
    src = &scratch_;
  }
  if (anchor_is_lu_) {
    lu_.btran(*src, y);
    return;
  }
  for (int r = 0; r < m_; ++r) {
    const double vr = (*src)[static_cast<std::size_t>(r)];
    if (vr == 0.0) continue;
    const int begin = inv_rows_.start[static_cast<std::size_t>(r)];
    const int end = inv_rows_.start[static_cast<std::size_t>(r) + 1];
    for (int p = begin; p < end; ++p) {
      y[static_cast<std::size_t>(inv_rows_.idx[static_cast<std::size_t>(p)])] +=
          vr * inv_rows_.val[static_cast<std::size_t>(p)];
    }
  }
}

namespace {

// The indices of v's nonzeros, ascending. Every index is written and the
// cursor advances past the nonzero ones, so the scan has no branch to
// mispredict.
void list_nonzeros(const std::vector<double>& v, std::vector<int>& nonzeros) {
  nonzeros.resize(v.size());
  std::size_t count = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    nonzeros[count] = static_cast<int>(i);
    count += v[i] != 0.0 ? 1 : 0;
  }
  nonzeros.resize(count);
}

}  // namespace

void BasisState::pivot_row(int r, std::vector<double>& rho,
                           std::vector<int>& nonzeros) const {
  // BTRAN of e_r. support_ lists, ascending, the rows of scratch_ that may
  // be nonzero, and eta k's dot product needs only its entries in those
  // rows. Each support row walks its own chain of eta entries (newest
  // first) with a cursor, so eta k meets each support row in O(1) amortized
  // and sums the same terms in the same ascending row order, minus the
  // exact-zero ones. An eta with fewer entries than the support is read by
  // the plain linear pass.
  scratch_.assign(static_cast<std::size_t>(m_), 0.0);
  scratch_[static_cast<std::size_t>(r)] = 1.0;
  support_.assign(1, r);
  cursor_.resize(static_cast<std::size_t>(m_));
  cursor_[static_cast<std::size_t>(r)] = eta_head_[static_cast<std::size_t>(r)];
  const int* idx = eta_idx_.data();
  const double* val = eta_val_.data();
  for (std::size_t k = eta_row_.size(); k-- > 0;) {
    const int row = eta_row_[k];
    const int begin = eta_start_[k];
    const int end = eta_start_[k + 1];
    double s = scratch_[static_cast<std::size_t>(row)];
    if (support_.size() < static_cast<std::size_t>(end - begin)) {
      for (const int i : support_) {
        // Skip the entries of etas already applied; an entry left in
        // [begin, end) is eta k's entry in row i.
        int& p = cursor_[static_cast<std::size_t>(i)];
        while (p >= end) p = eta_next_[static_cast<std::size_t>(p)];
        if (p >= begin) s -= scratch_[static_cast<std::size_t>(i)] * val[p];
      }
    } else {
      for (int p = begin; p < end; ++p) {
        s -= scratch_[static_cast<std::size_t>(idx[p])] * val[p];
      }
    }
    const double t = s * eta_pivot_inv_[k];
    scratch_[static_cast<std::size_t>(row)] = t;
    if (t != 0.0) {
      const auto at = std::lower_bound(support_.begin(), support_.end(), row);
      if (at == support_.end() || *at != row) {
        support_.insert(at, row);
        cursor_[static_cast<std::size_t>(row)] = eta_row_before_[k];
      }
    }
  }
  if (anchor_is_lu_) {
    lu_.btran_sparse(scratch_, support_, rho, nonzeros);
    return;
  }
  rho.assign(static_cast<std::size_t>(m_), 0.0);
  for (const int i : support_) {
    const double vi = scratch_[static_cast<std::size_t>(i)];
    if (vi == 0.0) continue;
    const int begin = inv_rows_.start[static_cast<std::size_t>(i)];
    const int end = inv_rows_.start[static_cast<std::size_t>(i) + 1];
    for (int p = begin; p < end; ++p) {
      rho[static_cast<std::size_t>(inv_rows_.idx[static_cast<std::size_t>(p)])] +=
          vi * inv_rows_.val[static_cast<std::size_t>(p)];
    }
  }
  list_nonzeros(rho, nonzeros);
}

void BasisState::apply_inverse(const std::vector<double>& v,
                               std::vector<double>& x) const {
  if (anchor_is_lu_) {
    lu_.ftran_dense(v, x);
  } else {
    x.assign(static_cast<std::size_t>(m_), 0.0);
    for (int r = 0; r < m_; ++r) {
      const int begin = inv_rows_.start[static_cast<std::size_t>(r)];
      const int end = inv_rows_.start[static_cast<std::size_t>(r) + 1];
      double acc = 0.0;
      for (int p = begin; p < end; ++p) {
        acc += inv_rows_.val[static_cast<std::size_t>(p)] *
               v[static_cast<std::size_t>(inv_rows_.idx[static_cast<std::size_t>(p)])];
      }
      x[static_cast<std::size_t>(r)] = acc;
    }
  }
  const std::size_t etas = eta_row_.size();
  for (std::size_t k = 0; k < etas; ++k) {
    const int r = eta_row_[k];
    const double t = x[static_cast<std::size_t>(r)] * eta_pivot_inv_[k];
    if (t != 0.0) {
      const int begin = eta_start_[k];
      const int end = eta_start_[k + 1];
      for (int p = begin; p < end; ++p) {
        x[static_cast<std::size_t>(eta_idx_[static_cast<std::size_t>(p)])] -=
            eta_val_[static_cast<std::size_t>(p)] * t;
      }
    }
    x[static_cast<std::size_t>(r)] = t;
  }
}

bool BasisState::update(int r, const std::vector<double>& w) {
  ++pivots_since_refactor_;
  // Eta append: record w as a pivot column of the product form.
  const double piv = w[static_cast<std::size_t>(r)];
  eta_row_.push_back(r);
  eta_pivot_inv_.push_back(1.0 / piv);
  eta_row_before_.push_back(eta_head_[static_cast<std::size_t>(r)]);
  double max_abs = 0.0;
  for (int i = 0; i < m_; ++i) {
    if (i == r) continue;
    const double v = w[static_cast<std::size_t>(i)];
    if (v == 0.0) continue;
    eta_next_.push_back(eta_head_[static_cast<std::size_t>(i)]);
    eta_head_[static_cast<std::size_t>(i)] = static_cast<int>(eta_idx_.size());
    eta_idx_.push_back(i);
    eta_val_.push_back(v);
    const double mag = std::abs(v);
    if (mag > max_abs) max_abs = mag;
  }
  eta_start_.push_back(static_cast<int>(eta_idx_.size()));
  stats_.eta_peak = std::max(stats_.eta_peak, static_cast<int>(eta_row_.size()));
  const bool drift = max_abs > kDriftThreshold * std::abs(piv);
  if (drift) ++stats_.drift_reinversions;
  return drift || pivots_since_refactor_ >= refactor_interval_;
}

}  // namespace prete::lp
