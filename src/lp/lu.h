#pragma once

#include <span>
#include <vector>

#include "lp/model.h"
#include "util/arena.h"

namespace prete::lp {

// The active columns of an elimination ordered by (count, index): a binary
// min-heap with a position index. A count change or a retirement costs
// O(log m), and the k smallest columns come off the top in O(k log k), so
// the Markowitz candidate search does not scan every column per step.
class ColumnQueue {
 public:
  // Most columns smallest() returns in one call.
  static constexpr int kMaxPick = 8;

  // Activates columns 0 .. counts.size() - 1 with the given counts.
  void reset(const std::vector<int>& counts);

  int count(int c) const { return count_[static_cast<std::size_t>(c)]; }
  bool active(int c) const { return pos_[static_cast<std::size_t>(c)] >= 0; }

  // Count changes; a retired column keeps its count but leaves the order.
  void increment(int c);
  void decrement(int c);
  void retire(int c);

  // Writes the min(k, active) smallest active columns to out in ascending
  // (count, index) order and returns how many were written. k is capped at
  // kMaxPick.
  int smallest(int k, int* out) const;

 private:
  bool less(int a, int b) const {
    const int ca = count_[static_cast<std::size_t>(a)];
    const int cb = count_[static_cast<std::size_t>(b)];
    return ca < cb || (ca == cb && a < b);
  }
  void place(int slot, int c);
  void sift_up(int slot);
  void sift_down(int slot);

  std::vector<int> count_;
  std::vector<int> heap_;  // column ids, heap-ordered by less()
  std::vector<int> pos_;   // heap slot of each column, -1 once retired
};

// Markowitz-ordered sparse LU factorization of a basis matrix, the eta
// kernel's anchor for large bases (see lp::BasisState). The explicit-inverse
// anchor stores B^-1, whose fill the basis does not control, and rebuilds it
// in the basis's own column order, so the Gauss-Jordan workspace fills in
// well beyond the inverse itself; on the thousand-row continental masters
// the basis columns carry a handful of nonzeros each, so Gaussian
// elimination with a fill-minimizing pivot order keeps the factors — and
// with them the reinversion and the triangular solves — near the nonzero
// count of the basis.
//
// Pivot selection is the classic Markowitz compromise: at each elimination
// step the candidate columns are the few active columns with the smallest
// (column count, index), read off a ColumnQueue kept up to date as counts
// change, and within them the entry minimizing the Markowitz cost
// (row_count - 1) * (col_count - 1) wins, subject to the threshold
// partial-pivoting stability test |a_ij| >= tau * max|a_:j| on the active
// column. Ties break by larger pivot magnitude, then lower row index, so the
// factorization is a pure function of the input — bit-identical at any
// thread count.
//
// The elimination workspace (active rows with fill-in, column adjacency,
// sparse accumulator) lives in a caller-provided util::Arena, reset per
// factorization: after the high-water mark settles, reinversions stop
// touching the heap entirely. The finished factors are flat CSC-style
// arrays owned by this object and reused across factorizations.
//
// ftran() and btran_sparse() are hypersparse: each triangular pass visits
// only the elimination steps its nonzeros reach (in step order, via a heap
// over the factors' transposed structure) and repeats the dense pass's
// arithmetic there, so results match the dense passes bit for bit (up to
// the sign of a zero) at a cost that tracks the result's nonzeros.
class LuFactorization {
 public:
  struct Stats {
    int nnz_input = 0;    // nonzeros of the factorized basis
    int nnz_factors = 0;  // L + U off-diagonal entries + m pivots
  };

  // Factorizes the m x m basis matrix whose column c is basis_columns[c]
  // (sparse (row, value) entries, zeros skipped). Returns false when the
  // basis is numerically singular — an active column's magnitude collapses
  // relative to its input scale (the relative test; see BasisState). On
  // failure the factorization is unusable until the next successful call.
  bool factorize(const std::vector<std::span<const Coefficient>>& basis_columns,
                 util::Arena& arena);

  // Trivial factorization of diag(signs) (the all-artificial cold basis).
  void reset_diagonal(int m, const std::vector<double>& signs);

  int dim() const { return m_; }

  // w = B^-1 a for a sparse column a; w is overwritten (resized to m).
  void ftran(std::span<const Coefficient> a, std::vector<double>& w) const;

  // x = B^-1 v for a dense column v; x is overwritten (resized to m). The
  // dense passes: every step in order.
  void ftran_dense(const std::vector<double>& v, std::vector<double>& x) const;

  // y = B^-T v (equivalently y^T = v^T B^-1); y is overwritten.
  void btran(const std::vector<double>& v, std::vector<double>& y) const;

  // btran() of a v whose nonzeros all lie at the listed indices: the same
  // y, at a cost that tracks the steps those nonzeros reach. y_nonzeros
  // receives the indices of y's nonzeros, ascending.
  void btran_sparse(const std::vector<double>& v, const std::vector<int>& nonzeros,
                    std::vector<double>& y, std::vector<int>& y_nonzeros) const;

  const Stats& stats() const { return stats_; }

 private:
  // Threshold partial pivoting: a pivot candidate must carry at least this
  // fraction of its active column's largest magnitude. 0.1 is the standard
  // sparse-LU compromise between stability and fill freedom.
  static constexpr double kPivotTol = 0.1;
  // Relative singularity tolerance against the column's input scale.
  static constexpr double kSingularTol = 1e-12;
  // Candidate columns examined per step, in increasing column-count order.
  static constexpr int kSearchColumns = 4;

  int m_ = 0;
  // Step k eliminates row pr_[k] and column pc_[k] with pivot 1/piv_inv_[k].
  std::vector<int> pr_;
  std::vector<int> pc_;
  std::vector<double> piv_inv_;
  // L: per-step multiplier columns, flat (row index, multiplier).
  std::vector<int> l_start_;
  std::vector<int> l_idx_;
  std::vector<double> l_val_;
  // U: per-step off-pivot row entries, flat (column index, value).
  std::vector<int> u_start_;
  std::vector<int> u_idx_;
  std::vector<double> u_val_;

  // The steps ordered by the factors' structure, for the hypersparse
  // solves: row_step_[i] / col_step_[c] is the step pivoting on row i /
  // column c; l_by_row_ line j lists the steps whose L column holds row
  // pr_[j], u_by_col_ line j the steps whose U row holds column pc_[j].
  void index_steps();
  std::vector<int> row_step_;
  std::vector<int> col_step_;
  std::vector<int> l_by_row_start_;
  std::vector<int> l_by_row_step_;
  std::vector<int> u_by_col_start_;
  std::vector<int> u_by_col_step_;

  // A hypersparse pass visits its pending steps in heap order (ascending or
  // descending), each step once: step_mark_[k] == stamp_ once scheduled.
  void new_pass() const;
  template <typename Order>
  void schedule(int k, Order order) const;
  template <typename Order>
  int next_step(Order order) const;
  mutable std::vector<int> pending_;
  mutable std::vector<int> step_mark_;
  mutable int stamp_ = 0;
  mutable std::vector<int> visited_;
  // Their scratch, all-zero between calls: each pass zeroes an entry as it
  // reads it for the last time.
  mutable std::vector<double> sparse_work_;

  // Dense scratch for the triangular solves (row space / column space).
  mutable std::vector<double> work_;

  // Factorization-time workspaces, reused across calls (the heavy,
  // fill-dependent row storage itself lives in the caller's arena).
  std::vector<int> row_count_;
  std::vector<int> col_count_;  // input column counts, seeding columns_
  ColumnQueue columns_;
  std::vector<unsigned char> row_active_;
  std::vector<double> col_scale_;
  std::vector<double> spa_val_;
  std::vector<int> spa_mark_;
  std::vector<int> spa_cols_;

  Stats stats_;
};

}  // namespace prete::lp
