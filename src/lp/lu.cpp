#include "lp/lu.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>

namespace prete::lp {

namespace {

// One nonzero of an active row during elimination.
struct RowEntry {
  int col;
  double val;
};

// An active row: an arena-allocated flat array, replaced wholesale when the
// row is updated (the abandoned block is reclaimed at the next arena reset).
struct RowRef {
  RowEntry* data = nullptr;
  int len = 0;
};

}  // namespace

void ColumnQueue::reset(const std::vector<int>& counts) {
  const int m = static_cast<int>(counts.size());
  count_ = counts;
  heap_.resize(static_cast<std::size_t>(m));
  pos_.resize(static_cast<std::size_t>(m));
  for (int c = 0; c < m; ++c) place(c, c);
  for (int slot = m / 2 - 1; slot >= 0; --slot) sift_down(slot);
}

void ColumnQueue::increment(int c) {
  ++count_[static_cast<std::size_t>(c)];
  if (active(c)) sift_down(pos_[static_cast<std::size_t>(c)]);
}

void ColumnQueue::decrement(int c) {
  --count_[static_cast<std::size_t>(c)];
  if (active(c)) sift_up(pos_[static_cast<std::size_t>(c)]);
}

void ColumnQueue::retire(int c) {
  const int slot = pos_[static_cast<std::size_t>(c)];
  if (slot < 0) return;
  pos_[static_cast<std::size_t>(c)] = -1;
  const int last = heap_.back();
  heap_.pop_back();
  if (last == c) return;
  place(slot, last);
  sift_up(slot);
  sift_down(pos_[static_cast<std::size_t>(last)]);
}

int ColumnQueue::smallest(int k, int* out) const {
  // Best-first walk down the heap: the next smallest column is always the
  // least of the frontier (children of the columns already taken), which
  // holds at most one slot more than the columns taken so far.
  const int size = static_cast<int>(heap_.size());
  k = std::min(k, kMaxPick);
  int frontier[kMaxPick + 1];
  int open = 0;
  if (size > 0) frontier[open++] = 0;
  int taken = 0;
  while (taken < k && open > 0) {
    int best = 0;
    for (int i = 1; i < open; ++i) {
      if (less(heap_[static_cast<std::size_t>(frontier[i])],
               heap_[static_cast<std::size_t>(frontier[best])])) {
        best = i;
      }
    }
    const int slot = frontier[best];
    frontier[best] = frontier[--open];
    out[taken++] = heap_[static_cast<std::size_t>(slot)];
    for (int child = 2 * slot + 1; child <= 2 * slot + 2; ++child) {
      if (child < size) frontier[open++] = child;
    }
  }
  return taken;
}

void ColumnQueue::place(int slot, int c) {
  heap_[static_cast<std::size_t>(slot)] = c;
  pos_[static_cast<std::size_t>(c)] = slot;
}

void ColumnQueue::sift_up(int slot) {
  const int c = heap_[static_cast<std::size_t>(slot)];
  while (slot > 0) {
    const int parent = (slot - 1) / 2;
    const int p = heap_[static_cast<std::size_t>(parent)];
    if (!less(c, p)) break;
    place(slot, p);
    slot = parent;
  }
  place(slot, c);
}

void ColumnQueue::sift_down(int slot) {
  const int size = static_cast<int>(heap_.size());
  const int c = heap_[static_cast<std::size_t>(slot)];
  while (true) {
    int child = 2 * slot + 1;
    if (child >= size) break;
    if (child + 1 < size &&
        less(heap_[static_cast<std::size_t>(child + 1)],
             heap_[static_cast<std::size_t>(child)])) {
      ++child;
    }
    const int q = heap_[static_cast<std::size_t>(child)];
    if (!less(q, c)) break;
    place(slot, q);
    slot = child;
  }
  place(slot, c);
}

void LuFactorization::reset_diagonal(int m, const std::vector<double>& signs) {
  m_ = m;
  pr_.resize(static_cast<std::size_t>(m));
  pc_.resize(static_cast<std::size_t>(m));
  piv_inv_.resize(static_cast<std::size_t>(m));
  for (int k = 0; k < m; ++k) {
    pr_[static_cast<std::size_t>(k)] = k;
    pc_[static_cast<std::size_t>(k)] = k;
    // signs entries are +-1, their own inverse.
    piv_inv_[static_cast<std::size_t>(k)] = signs[static_cast<std::size_t>(k)];
  }
  l_start_.assign(static_cast<std::size_t>(m) + 1, 0);
  l_idx_.clear();
  l_val_.clear();
  u_start_.assign(static_cast<std::size_t>(m) + 1, 0);
  u_idx_.clear();
  u_val_.clear();
  stats_.nnz_input = m;
  stats_.nnz_factors = m;
  index_steps();
}

bool LuFactorization::factorize(
    const std::vector<std::span<const Coefficient>>& basis_columns,
    util::Arena& arena) {
  const int m = static_cast<int>(basis_columns.size());
  m_ = m;
  arena.reset();

  pr_.clear();
  pc_.clear();
  piv_inv_.clear();
  pr_.reserve(static_cast<std::size_t>(m));
  pc_.reserve(static_cast<std::size_t>(m));
  piv_inv_.reserve(static_cast<std::size_t>(m));
  l_start_.assign(1, 0);
  l_idx_.clear();
  l_val_.clear();
  u_start_.assign(1, 0);
  u_idx_.clear();
  u_val_.clear();

  // Build the row-major active matrix and the column adjacency from the
  // sparse columns. Column lists only ever grow (fill-in appends); entries
  // of eliminated rows are skipped via row_active_ rather than removed.
  row_count_.assign(static_cast<std::size_t>(m), 0);
  col_count_.assign(static_cast<std::size_t>(m), 0);
  row_active_.assign(static_cast<std::size_t>(m), 1);
  col_scale_.assign(static_cast<std::size_t>(m), 0.0);

  int nnz = 0;
  for (int c = 0; c < m; ++c) {
    for (const Coefficient& entry : basis_columns[static_cast<std::size_t>(c)]) {
      if (entry.value == 0.0) continue;
      ++row_count_[static_cast<std::size_t>(entry.var)];
      ++col_count_[static_cast<std::size_t>(c)];
      ++nnz;
      const double mag = std::abs(entry.value);
      if (mag > col_scale_[static_cast<std::size_t>(c)]) {
        col_scale_[static_cast<std::size_t>(c)] = mag;
      }
    }
  }
  stats_.nnz_input = nnz;

  RowRef* rows = arena.allocate_array<RowRef>(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    if (row_count_[static_cast<std::size_t>(i)] == 0) return false;  // zero row
    rows[i].data = arena.allocate_array<RowEntry>(
        static_cast<std::size_t>(row_count_[static_cast<std::size_t>(i)]));
    rows[i].len = 0;
  }
  std::vector<util::ArenaVector<int>> col_rows;
  col_rows.reserve(static_cast<std::size_t>(m));
  for (int c = 0; c < m; ++c) {
    if (col_scale_[static_cast<std::size_t>(c)] == 0.0) return false;  // zero col
    col_rows.emplace_back(arena);
  }
  for (int c = 0; c < m; ++c) {
    for (const Coefficient& entry : basis_columns[static_cast<std::size_t>(c)]) {
      if (entry.value == 0.0) continue;
      RowRef& row = rows[entry.var];
      row.data[row.len++] = {c, entry.value};
      col_rows[static_cast<std::size_t>(c)].push_back(entry.var);
    }
  }
  columns_.reset(col_count_);

  spa_val_.assign(static_cast<std::size_t>(m), 0.0);
  spa_mark_.assign(static_cast<std::size_t>(m), 0);
  int stamp = 0;

  // Looks up the value of (row i, column c); the row is guaranteed to hold c.
  const auto row_value = [&](int i, int c) -> double {
    const RowRef& row = rows[i];
    for (int p = 0; p < row.len; ++p) {
      if (row.data[p].col == c) return row.data[p].val;
    }
    return 0.0;  // unreachable for consistent adjacency
  };

  int candidates[kSearchColumns];

  for (int k = 0; k < m; ++k) {
    // Candidate columns: the kSearchColumns active columns with the smallest
    // (col_count, index), in that order. Most steps settle on the first (a
    // zero-cost pivot ends the search), so the others are read only once
    // the search gets past it.
    int num_candidates = columns_.smallest(1, candidates);
    if (num_candidates == 0) return false;

    // Markowitz pick with threshold partial pivoting.
    long long best_cost = std::numeric_limits<long long>::max();
    double best_mag = 0.0;
    int best_row = -1;
    int best_col = -1;
    double best_val = 0.0;
    for (int cand = 0; cand < num_candidates; ++cand) {
      const int c = candidates[cand];
      // Early exit once a zero-cost pivot is found: no later candidate can
      // cost less. (A later zero-cost entry of larger magnitude is not
      // examined, so the pick stays in the earlier column.)
      if (best_row >= 0 && best_cost <= 0) break;
      const long long cc = static_cast<long long>(columns_.count(c));
      double colmax = 0.0;
      const util::ArenaVector<int>& adj = col_rows[static_cast<std::size_t>(c)];
      for (std::size_t p = 0; p < adj.size(); ++p) {
        const int i = adj[p];
        if (!row_active_[static_cast<std::size_t>(i)]) continue;
        const double mag = std::abs(row_value(i, c));
        if (mag > colmax) colmax = mag;
      }
      // Relative singularity: the active column's magnitude collapsed
      // against its input scale — elimination cancelled it away.
      if (colmax <= kSingularTol * col_scale_[static_cast<std::size_t>(c)]) {
        return false;
      }
      const double admit = kPivotTol * colmax;
      for (std::size_t p = 0; p < adj.size(); ++p) {
        const int i = adj[p];
        if (!row_active_[static_cast<std::size_t>(i)]) continue;
        const double val = row_value(i, c);
        const double mag = std::abs(val);
        if (mag < admit) continue;  // stability threshold
        const long long cost =
            static_cast<long long>(row_count_[static_cast<std::size_t>(i)] - 1) *
            (cc - 1);
        if (cost < best_cost ||
            (cost == best_cost &&
             (mag > best_mag || (mag == best_mag && i < best_row)))) {
          best_cost = cost;
          best_mag = mag;
          best_row = i;
          best_col = c;
          best_val = val;
        }
      }
      if (cand == 0 && best_cost > 0) {
        num_candidates = columns_.smallest(kSearchColumns, candidates);
      }
    }
    if (best_row < 0) return false;

    const int prow = best_row;
    const int pcol = best_col;
    const double pivot = best_val;
    pr_.push_back(prow);
    pc_.push_back(pcol);
    piv_inv_.push_back(1.0 / pivot);

    // Emit the U row (the pivot row's off-pivot entries) before updates.
    const RowRef pivot_row = rows[prow];
    const int u_begin = static_cast<int>(u_idx_.size());
    for (int p = 0; p < pivot_row.len; ++p) {
      if (pivot_row.data[p].col == pcol) continue;
      u_idx_.push_back(pivot_row.data[p].col);
      u_val_.push_back(pivot_row.data[p].val);
    }
    const int u_end = static_cast<int>(u_idx_.size());
    u_start_.push_back(u_end);

    // Retire the pivot row and column from the active submatrix.
    row_active_[static_cast<std::size_t>(prow)] = 0;
    columns_.retire(pcol);
    for (int p = 0; p < pivot_row.len; ++p) {
      columns_.decrement(pivot_row.data[p].col);
    }

    // Eliminate: every remaining row with a nonzero in the pivot column is
    // updated through the sparse accumulator and rewritten as a fresh arena
    // block (fill-in appends in pivot-row order — deterministic).
    const util::ArenaVector<int>& pivot_adj =
        col_rows[static_cast<std::size_t>(pcol)];
    for (std::size_t p = 0; p < pivot_adj.size(); ++p) {
      const int i = pivot_adj[p];
      if (!row_active_[static_cast<std::size_t>(i)]) continue;
      const RowRef old_row = rows[i];
      const double mult = row_value(i, pcol) / pivot;
      l_idx_.push_back(i);
      l_val_.push_back(mult);

      ++stamp;
      spa_cols_.clear();
      for (int q = 0; q < old_row.len; ++q) {
        const int c = old_row.data[q].col;
        if (c == pcol) continue;
        spa_mark_[static_cast<std::size_t>(c)] = stamp;
        spa_val_[static_cast<std::size_t>(c)] = old_row.data[q].val;
        spa_cols_.push_back(c);
      }
      for (int q = u_begin; q < u_end; ++q) {
        const int c = u_idx_[static_cast<std::size_t>(q)];
        const double delta = mult * u_val_[static_cast<std::size_t>(q)];
        if (spa_mark_[static_cast<std::size_t>(c)] == stamp) {
          spa_val_[static_cast<std::size_t>(c)] -= delta;
        } else {
          // Fill-in: numerically-exact zeros are kept, so the pattern (and
          // with it the counts and the pivot sequence) never depends on
          // cancellation.
          spa_mark_[static_cast<std::size_t>(c)] = stamp;
          spa_val_[static_cast<std::size_t>(c)] = -delta;
          spa_cols_.push_back(c);
          col_rows[static_cast<std::size_t>(c)].push_back(i);
          columns_.increment(c);
        }
      }
      const int new_len = static_cast<int>(spa_cols_.size());
      RowEntry* fresh =
          arena.allocate_array<RowEntry>(static_cast<std::size_t>(new_len));
      for (int q = 0; q < new_len; ++q) {
        const int c = spa_cols_[static_cast<std::size_t>(q)];
        fresh[q] = {c, spa_val_[static_cast<std::size_t>(c)]};
      }
      rows[i] = {fresh, new_len};
      row_count_[static_cast<std::size_t>(i)] = new_len;
    }
    l_start_.push_back(static_cast<int>(l_idx_.size()));
  }

  stats_.nnz_factors =
      static_cast<int>(l_idx_.size() + u_idx_.size()) + m;
  index_steps();
  return true;
}

namespace {

// out = the steps of a per-step index list, regrouped by the step that owns
// each index (step_of): line j lists, ascending, the steps k whose list
// holds an index owned by step j.
void transpose_steps(const std::vector<int>& start, const std::vector<int>& idx,
                     const std::vector<int>& step_of, std::vector<int>& out_start,
                     std::vector<int>& out_step) {
  const std::size_t m = step_of.size();
  out_start.assign(m + 2, 0);
  for (const int i : idx) {
    ++out_start[static_cast<std::size_t>(step_of[static_cast<std::size_t>(i)]) + 2];
  }
  for (std::size_t j = 2; j < out_start.size(); ++j) out_start[j] += out_start[j - 1];
  out_step.resize(idx.size());
  for (std::size_t k = 0; k + 1 < start.size(); ++k) {
    for (int p = start[k]; p < start[k + 1]; ++p) {
      const int j = step_of[static_cast<std::size_t>(idx[static_cast<std::size_t>(p)])];
      out_step[static_cast<std::size_t>(out_start[static_cast<std::size_t>(j) + 1]++)] =
          static_cast<int>(k);
    }
  }
  out_start.pop_back();
}

}  // namespace

void LuFactorization::index_steps() {
  const std::size_t m = static_cast<std::size_t>(m_);
  row_step_.resize(m);
  col_step_.resize(m);
  for (std::size_t k = 0; k < pr_.size(); ++k) {
    row_step_[static_cast<std::size_t>(pr_[k])] = static_cast<int>(k);
    col_step_[static_cast<std::size_t>(pc_[k])] = static_cast<int>(k);
  }
  transpose_steps(l_start_, l_idx_, row_step_, l_by_row_start_, l_by_row_step_);
  transpose_steps(u_start_, u_idx_, col_step_, u_by_col_start_, u_by_col_step_);
  step_mark_.assign(m, 0);
  stamp_ = 0;
  sparse_work_.assign(m, 0.0);
}

void LuFactorization::new_pass() const {
  pending_.clear();
  if (++stamp_ == 0) {  // wrapped: forget every old mark
    std::fill(step_mark_.begin(), step_mark_.end(), 0);
    stamp_ = 1;
  }
}

template <typename Order>
void LuFactorization::schedule(int k, Order order) const {
  int& mark = step_mark_[static_cast<std::size_t>(k)];
  if (mark == stamp_) return;
  mark = stamp_;
  pending_.push_back(k);
  std::push_heap(pending_.begin(), pending_.end(), order);
}

template <typename Order>
int LuFactorization::next_step(Order order) const {
  std::pop_heap(pending_.begin(), pending_.end(), order);
  const int k = pending_.back();
  pending_.pop_back();
  return k;
}

void LuFactorization::ftran(std::span<const Coefficient> a,
                            std::vector<double>& w) const {
  // Hypersparse: each pass visits only the steps its nonzeros reach, in the
  // order of the dense pass, and repeats that pass's arithmetic on them. An
  // unvisited step's dense-pass result is a zero.
  const std::greater<int> ascending;
  const std::less<int> descending;
  std::vector<double>& work = sparse_work_;
  new_pass();
  for (const Coefficient& entry : a) {
    work[static_cast<std::size_t>(entry.var)] = entry.value;
    schedule(row_step_[static_cast<std::size_t>(entry.var)], ascending);
  }
  // Forward pass (L), ascending: replay the elimination's row operations on
  // the rhs; a scatter into row i schedules i's (later) step.
  visited_.clear();
  while (!pending_.empty()) {
    const int k = next_step(ascending);
    const double t = work[static_cast<std::size_t>(pr_[static_cast<std::size_t>(k)])];
    if (t == 0.0) continue;
    visited_.push_back(k);
    const int begin = l_start_[static_cast<std::size_t>(k)];
    const int end = l_start_[static_cast<std::size_t>(k) + 1];
    for (int p = begin; p < end; ++p) {
      const int i = l_idx_[static_cast<std::size_t>(p)];
      work[static_cast<std::size_t>(i)] -= l_val_[static_cast<std::size_t>(p)] * t;
      schedule(row_step_[static_cast<std::size_t>(i)], ascending);
    }
  }
  // Back substitution (U), descending: every off-pivot column of U row k is
  // a later pivot column, already solved; a nonzero solved at step j
  // schedules the (earlier) steps whose U rows hold column pc_j.
  w.assign(static_cast<std::size_t>(m_), 0.0);
  new_pass();
  for (const int k : visited_) schedule(k, descending);
  while (!pending_.empty()) {
    const int k = next_step(descending);
    double& rhs = work[static_cast<std::size_t>(pr_[static_cast<std::size_t>(k)])];
    double sum = rhs;
    rhs = 0.0;  // read for the last time: return the scratch to zero
    const int begin = u_start_[static_cast<std::size_t>(k)];
    const int end = u_start_[static_cast<std::size_t>(k) + 1];
    for (int p = begin; p < end; ++p) {
      const double xc = w[static_cast<std::size_t>(u_idx_[static_cast<std::size_t>(p)])];
      if (xc != 0.0) sum -= u_val_[static_cast<std::size_t>(p)] * xc;
    }
    const double x = sum * piv_inv_[static_cast<std::size_t>(k)];
    w[static_cast<std::size_t>(pc_[static_cast<std::size_t>(k)])] = x;
    if (x == 0.0) continue;
    const int ub = u_by_col_start_[static_cast<std::size_t>(k)];
    const int ue = u_by_col_start_[static_cast<std::size_t>(k) + 1];
    for (int p = ub; p < ue; ++p) {
      schedule(u_by_col_step_[static_cast<std::size_t>(p)], descending);
    }
  }
}

void LuFactorization::ftran_dense(const std::vector<double>& v,
                                  std::vector<double>& x) const {
  work_ = v;
  const std::size_t steps = pr_.size();
  for (std::size_t k = 0; k < steps; ++k) {
    const double t = work_[static_cast<std::size_t>(pr_[k])];
    if (t == 0.0) continue;
    const int begin = l_start_[k];
    const int end = l_start_[k + 1];
    for (int p = begin; p < end; ++p) {
      work_[static_cast<std::size_t>(l_idx_[static_cast<std::size_t>(p)])] -=
          l_val_[static_cast<std::size_t>(p)] * t;
    }
  }
  x.assign(static_cast<std::size_t>(m_), 0.0);
  for (std::size_t k = steps; k-- > 0;) {
    double sum = work_[static_cast<std::size_t>(pr_[k])];
    const int begin = u_start_[k];
    const int end = u_start_[k + 1];
    for (int p = begin; p < end; ++p) {
      const double xc = x[static_cast<std::size_t>(u_idx_[static_cast<std::size_t>(p)])];
      if (xc != 0.0) sum -= u_val_[static_cast<std::size_t>(p)] * xc;
    }
    x[static_cast<std::size_t>(pc_[k])] = sum * piv_inv_[k];
  }
}

void LuFactorization::btran(const std::vector<double>& v,
                            std::vector<double>& y) const {
  // B^-T = L^-T U^-T. First U^-T, consuming v (indexed by basis column) in
  // pivot order and producing intermediate values in row space; then L^-T in
  // reverse order, replaying the elimination's row operations transposed.
  work_ = v;
  y.assign(static_cast<std::size_t>(m_), 0.0);
  const std::size_t steps = pr_.size();
  for (std::size_t k = 0; k < steps; ++k) {
    const double z = work_[static_cast<std::size_t>(pc_[k])] * piv_inv_[k];
    y[static_cast<std::size_t>(pr_[k])] = z;
    if (z == 0.0) continue;
    const int begin = u_start_[k];
    const int end = u_start_[k + 1];
    for (int p = begin; p < end; ++p) {
      work_[static_cast<std::size_t>(u_idx_[static_cast<std::size_t>(p)])] -=
          u_val_[static_cast<std::size_t>(p)] * z;
    }
  }
  for (std::size_t k = steps; k-- > 0;) {
    double s = y[static_cast<std::size_t>(pr_[k])];
    const int begin = l_start_[k];
    const int end = l_start_[k + 1];
    for (int p = begin; p < end; ++p) {
      s -= l_val_[static_cast<std::size_t>(p)] *
           y[static_cast<std::size_t>(l_idx_[static_cast<std::size_t>(p)])];
    }
    y[static_cast<std::size_t>(pr_[k])] = s;
  }
}

void LuFactorization::btran_sparse(const std::vector<double>& v,
                                   const std::vector<int>& nonzeros,
                                   std::vector<double>& y,
                                   std::vector<int>& y_nonzeros) const {
  // The passes of btran() restricted, as in ftran(), to the steps the
  // nonzeros reach.
  const std::greater<int> ascending;
  const std::less<int> descending;
  std::vector<double>& work = sparse_work_;
  y.assign(static_cast<std::size_t>(m_), 0.0);
  new_pass();
  for (const int c : nonzeros) {
    const double vc = v[static_cast<std::size_t>(c)];
    if (vc == 0.0) continue;
    work[static_cast<std::size_t>(c)] = vc;
    schedule(col_step_[static_cast<std::size_t>(c)], ascending);
  }
  // U^T, ascending: a nonzero z at step k updates the later pivot columns
  // of U row k.
  visited_.clear();
  while (!pending_.empty()) {
    const int k = next_step(ascending);
    double& rhs = work[static_cast<std::size_t>(pc_[static_cast<std::size_t>(k)])];
    const double z = rhs * piv_inv_[static_cast<std::size_t>(k)];
    rhs = 0.0;  // read for the last time: return the scratch to zero
    y[static_cast<std::size_t>(pr_[static_cast<std::size_t>(k)])] = z;
    if (z == 0.0) continue;
    visited_.push_back(k);
    const int begin = u_start_[static_cast<std::size_t>(k)];
    const int end = u_start_[static_cast<std::size_t>(k) + 1];
    for (int p = begin; p < end; ++p) {
      const int c = u_idx_[static_cast<std::size_t>(p)];
      work[static_cast<std::size_t>(c)] -= u_val_[static_cast<std::size_t>(p)] * z;
      schedule(col_step_[static_cast<std::size_t>(c)], ascending);
    }
  }
  // L^T, descending: step k gathers from the rows its L column holds; a
  // nonzero at row pr_j schedules the (earlier) steps whose L columns hold
  // that row. Every nonzero of y is final at one of these steps.
  y_nonzeros.clear();
  new_pass();
  for (const int k : visited_) schedule(k, descending);
  while (!pending_.empty()) {
    const int k = next_step(descending);
    const std::size_t row = static_cast<std::size_t>(pr_[static_cast<std::size_t>(k)]);
    double s = y[row];
    const int begin = l_start_[static_cast<std::size_t>(k)];
    const int end = l_start_[static_cast<std::size_t>(k) + 1];
    for (int p = begin; p < end; ++p) {
      s -= l_val_[static_cast<std::size_t>(p)] *
           y[static_cast<std::size_t>(l_idx_[static_cast<std::size_t>(p)])];
    }
    y[row] = s;
    if (s == 0.0) continue;
    y_nonzeros.push_back(static_cast<int>(row));
    const int lb = l_by_row_start_[static_cast<std::size_t>(k)];
    const int le = l_by_row_start_[static_cast<std::size_t>(k) + 1];
    for (int p = lb; p < le; ++p) {
      schedule(l_by_row_step_[static_cast<std::size_t>(p)], descending);
    }
  }
  std::sort(y_nonzeros.begin(), y_nonzeros.end());
}

}  // namespace prete::lp
