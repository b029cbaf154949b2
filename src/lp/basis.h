#pragma once

#include <span>
#include <vector>

#include "lp/lu.h"
#include "lp/model.h"
#include "util/arena.h"

namespace prete::lp {

// The basis inverse of the revised-simplex kernel, in product form: the
// inverse is only materialized at reinversion points (the "anchor"), and the
// pivots since then live as an eta file — one sparse pivot column per pivot,
// applied in sequence during FTRAN and in reverse during BTRAN. A pivot costs
// O(nnz(w)). The eta file is collapsed back into a fresh anchor every
// `refactor_interval` pivots, or early when an appended eta's magnitude
// spread signals numerical drift of the product form.
//
// The anchor has two representations, auto-selected by basis dimension at
// every refactorize/reset: below `lu_threshold` rows the explicit inverse,
// at or above it a Markowitz-ordered sparse LU factorization
// (lp::LuFactorization) — the regime of the thousand-row continental
// masters. Both anchors feed the same eta file. The explicit inverse of a TE
// basis is about 3% nonzero, so it is kept sparse (CSR and CSC) and rebuilt
// by an in-place Gauss-Jordan that updates each row only at the pivot row's
// nonzeros. Every kernel operation then costs in proportion to the nonzeros
// it combines.
//
// One instance serves one solve; nothing here is thread-safe (concurrent
// solves each own their engine, and with it their BasisState).
class BasisState {
 public:
  struct Stats {
    int reinversions = 0;  // anchor refactorizations performed
    int eta_peak = 0;      // longest eta file reached between reinversions
    int drift_reinversions = 0;  // reinversions forced by the drift trigger
    int lu_reinversions = 0;     // reinversions that built a sparse LU anchor
  };

  // `refactor_interval` <= 0 refactorizes after every pivot. `lu_threshold`
  // is the basis dimension at or above which the anchor switches from the
  // explicit inverse to the sparse LU (tests force a side with 1 / a huge
  // value; the default is calibrated by the lu_anchor bench phase).
  void configure(int refactor_interval, int lu_threshold = 512);

  // True when the current anchor is the sparse LU factorization.
  bool anchor_is_lu() const { return anchor_is_lu_; }

  // Resets to the inverse of a +-1 diagonal basis (the all-artificial cold
  // start): B^-1 = diag(signs). Clears the eta file.
  void reset_diagonal(int m, const std::vector<double>& signs);

  // Rebuilds the anchor from the current basis columns — the sparse LU, or
  // the sparse single-pass in-place Gauss-Jordan — and clears the eta file.
  // `basis_columns[r]` is the sparse column basic in row r. Returns false
  // on a numerically singular basis (state then undefined until the next
  // successful refactorize or reset).
  bool refactorize(const std::vector<std::span<const Coefficient>>& basis_columns);

  // Restarts the periodic-reinversion pivot counter (the engine calls this
  // at the start of each simplex phase, so each phase keeps its own refactor
  // cadence).
  void reset_refactor_counter() { pivots_since_refactor_ = 0; }

  // w = B^-1 a for a sparse column a. w is overwritten (size m).
  void ftran(std::span<const Coefficient> a, std::vector<double>& w) const;

  // y = v^T B^-1 for a dense row vector v. Zero entries of v skip their
  // anchor row; the eta transposes are applied in reverse order first.
  void btran(const std::vector<double>& v, std::vector<double>& y) const;

  // rho = e_r^T B^-1, row r of the current inverse — the pivot row that
  // drives pricing — and `nonzeros`, the indices of rho's nonzeros,
  // ascending. The reverse pass over the eta file tracks the nonzero rows of
  // the work vector and reads each eta only where they meet its entries; the LU
  // anchor's pass tracks rho's nonzeros as it goes, and the explicit
  // anchor's scatter is followed by one scan of rho.
  void pivot_row(int r, std::vector<double>& rho, std::vector<int>& nonzeros) const;

  // x = B^-1 v for a dense column vector v (basic-value recomputation).
  void apply_inverse(const std::vector<double>& v, std::vector<double>& x) const;

  // Accounts the pivot whose FTRANed entering column is w, landing in basis
  // row r, by appending a pivot column in O(nnz(w)). Returns true when the
  // caller must refactorize before the next iteration: the periodic
  // interval was reached, or the appended column's magnitude spread
  // |w_i| / |w_r| crossed the drift threshold — the forward-error growth of
  // the product form is proportional to that ratio, so a large spread means
  // the represented inverse is drifting from the true one.
  bool update(int r, const std::vector<double>& w);

  const Stats& stats() const { return stats_; }

  // Current eta-file length (pivot columns held since the last anchor).
  int eta_length() const { return static_cast<int>(eta_row_.size()); }

 private:
  // Magnitude spread beyond which an appended eta forces early reinversion.
  static constexpr double kDriftThreshold = 1e7;

  // A compressed sparse matrix: major line i (a row for CSR, a column for
  // CSC) holds idx/val[start[i] .. start[i + 1]), in ascending index order.
  struct Compressed {
    std::vector<int> start;
    std::vector<int> idx;
    std::vector<double> val;
  };

  void clear_etas();
  // The explicit-anchor reinversion; false on a singular basis.
  bool invert_sparse(const std::vector<std::span<const Coefficient>>& basis_columns);
  // Returns the Gauss-Jordan workspace to all-zero, touching only the
  // entries its patterns list.
  void clear_workspace();
  // out = in^T for an m x m compressed matrix (out's lines come out in
  // ascending index order).
  void transpose(const Compressed& in, Compressed& out);

  int m_ = 0;
  int refactor_interval_ = 128;
  int lu_threshold_ = 512;
  int pivots_since_refactor_ = 0;
  bool anchor_is_lu_ = false;

  // Sparse LU anchor (m >= lu_threshold_) and the arena backing
  // its elimination workspace across reinversions.
  LuFactorization lu_;
  util::Arena lu_arena_;

  // Explicit anchor inverse (m < lu_threshold_), exact zeros dropped: by row (BTRAN, apply_inverse, pivot_row) and by column
  // (FTRAN).
  Compressed inv_rows_;
  Compressed inv_cols_;

  // Sparse Gauss-Jordan workspace (explicit-anchor reinversion). gj_val_/gj_present_
  // are m x m, indexed by (physical row, column), and all-zero between
  // reinversions; gj_row_cols_/gj_col_rows_ list the present entries by
  // row and by column. Row swaps only exchange gj_phys_/gj_logical_
  // (logical position <-> physical row); pivot_rows_ records the logical
  // row chosen at each step, undone as a column permutation at the end.
  std::vector<double> gj_val_;
  std::vector<unsigned char> gj_present_;
  std::vector<std::vector<int>> gj_row_cols_;
  std::vector<std::vector<int>> gj_col_rows_;
  std::vector<int> gj_phys_;
  std::vector<int> gj_logical_;
  std::vector<int> gj_pivot_nz_;
  std::vector<int> pivot_rows_;
  std::vector<int> perm_;
  Compressed unsorted_;  // anchor rows before the column sort

  // Flat eta file: eta k pivots on row eta_row_[k] with 1/pivot
  // eta_pivot_inv_[k]; its off-pivot nonzeros live in
  // eta_idx_/eta_val_[eta_start_[k] .. eta_start_[k + 1]), ascending. The
  // entries of each row are also chained newest first: eta_head_[i] is row
  // i's latest entry and eta_next_[p] the one before entry p (-1 ends);
  // eta_row_before_[k] is row eta_row_[k]'s latest entry in an earlier eta,
  // where that row's chain walk starts once eta k makes it nonzero.
  std::vector<int> eta_row_;
  std::vector<double> eta_pivot_inv_;
  std::vector<int> eta_start_;
  std::vector<int> eta_idx_;
  std::vector<double> eta_val_;
  std::vector<int> eta_head_;
  std::vector<int> eta_next_;
  std::vector<int> eta_row_before_;

  // Scratch for BTRAN-style passes that transform a copy of the input; in
  // pivot_row also the ascending nonzero rows of that copy and each such
  // row's position in its eta chain.
  mutable std::vector<double> scratch_;
  mutable std::vector<int> support_;
  mutable std::vector<int> cursor_;

  // Per-column max input magnitude of the basis being refactorized — the
  // reference scale for the relative singularity test.
  std::vector<double> col_scale_;

  Stats stats_;
};

}  // namespace prete::lp
