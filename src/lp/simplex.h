#pragma once

#include <cstdint>
#include <vector>

#include "lp/model.h"
#include "util/deadline.h"

namespace prete::lp {

// Knobs of one simplex solve. The feasibility and optimality tolerances
// (1e-7) and the per-phase pivot cap (2000 + 40 * (columns + rows)) are
// fixed inside the solver.
struct SimplexOptions {
  // Rebuild the basis inverse from scratch every this many pivots to bound
  // numerical drift of the product-form updates. The kernel also reinverts
  // early when an appended eta column's magnitude spread signals drift (see
  // BasisState::update).
  int refactor_interval = 128;
  // Basis dimension at or above which the reinversion anchor switches from
  // the explicit inverse (stored sparse, rebuilt by Gauss-Jordan) to the
  // Markowitz-ordered sparse LU factorization whose cost tracks the basis
  // nonzero count (see lp::LuFactorization). The default is set from the
  // lu_anchor phase of bench_runtime_scaling. Tests pin the anchor with 1
  // (always LU) or INT_MAX (never LU).
  int lu_threshold = 512;
  // Candidate-list partial pricing: choose the entering column from a
  // rotating window of this many columns, advancing the window only when it
  // prices out (no eligible column); optimality is declared only after a
  // full rotation finds nothing, so the optimality conditions are unchanged
  // — only the pivot path moves. 0 sizes the window automatically (total/8,
  // clamped to [64, 512]) but engages it only on column-dominated LPs
  // (total >= 4m); row-dominated problems and problems smaller than the
  // window price fully. Negative forces full pricing. The window position
  // is a pure function of the solve history and ties still break toward
  // the lowest column index, so partial pricing preserves determinism at
  // any thread count. The Bland anti-cycling regime always takes the first
  // eligible column.
  //
  // The window no longer saves work: pricing is incremental (see
  // SimplexSolver), and a windowed pick is two range queries on the merit
  // tree instead of one. It stays because it sets the pivot path of the
  // column-dominated solves that engage it (under 2% of b4_degradation's),
  // so removing it would move their decisions' digests.
  int pricing_window = 0;
  // Switch to Bland's anti-cycling rule after this many consecutive
  // degenerate pivots.
  int degenerate_pivot_limit = 200;
  // Optional cooperative budget, checked (and charged one pivot) at every
  // pivot of both phases. On expiry the solve stops with kIterationLimit;
  // if phase 2 had begun, the returned solution still carries the current
  // primal-feasible point (see SolveStatus::kIterationLimit notes on
  // SimplexSolver::solve). The pointee is mutated by the solve, is not
  // owned, and nullptr (the default) means unlimited — default-constructed
  // solves behave exactly as before.
  util::Deadline* deadline = nullptr;
};

// Snapshot of an optimal basis, reusable as a warm start for a later solve.
// Valid as a hint only when the later model extends the snapshot's model as
// a prefix: the first num_structural() variables and the first num_rows()
// rows (bounds, coefficients, rhs) must be unchanged — appended variables
// and appended rows are fine. Row generation (Benders subproblems, lazy CVaR
// rows) satisfies this by construction. The caller owns that contract; the
// solver only validates internal consistency and falls back to a cold start
// on any mismatch it can detect.
struct SimplexBasis {
  enum class Status : std::uint8_t { kAtLower, kAtUpper, kFreeAtZero, kBasic };
  enum class Kind : std::uint8_t { kStructural, kSlack, kArtificial };
  struct Entry {
    Kind kind = Kind::kArtificial;
    int index = 0;  // structural column j, or the slack's row i
  };

  std::vector<Status> structural_status;  // per structural variable
  std::vector<Status> slack_status;       // per row
  std::vector<Entry> basic;               // basic column of each row
  std::vector<double> basic_value;        // value of that column at the optimum

  int num_structural() const { return static_cast<int>(structural_status.size()); }
  int num_rows() const { return static_cast<int>(slack_status.size()); }
  bool valid() const {
    return !slack_status.empty() &&
           basic.size() == slack_status.size() &&
           basic_value.size() == slack_status.size();
  }

  // Hint for a model that keeps only the first `rows` rows of the snapshot's
  // model (e.g. the shared capacity-row prefix of successive Benders
  // subproblems). Basic columns of dropped rows demote to their nearest
  // bound. When `structurals >= 0`, statuses of structural variables beyond
  // that count are also dropped (for models that append lazy variables —
  // CVaR shortfall columns — on top of a shared allocation prefix); the
  // default keeps every structural status.
  SimplexBasis truncated(int rows, int structurals = -1) const;
};

// Two-phase bounded-variable revised primal simplex. The basis inverse is
// kept as a product-form eta file anchored at periodic reinversions — see
// BasisState. Designed for the mid-sized LPs produced by the TE formulations
// (hundreds to a few thousand rows once lazy row generation is applied).
//
// Pricing. Phase 2 prices by devex (Forrest & Goldfarb reference-framework
// devex): each reduced cost is weighed by an approximate steepest-edge norm,
// which takes fewer pivots on the TE formulations than the most negative
// reduced cost. Phase 1, whose transient composite objective starts from an
// all-artificial frame, prices by the most negative reduced cost (Dantzig).
// Neither rule scans the matrix per pivot: reduced costs and merits are
// cached, a pivot re-prices only the columns that meet the pivot row's
// nonzeros (and updates their devex weights from the same row-wise
// scatter), and the entering column is read off a tournament tree of
// merits. Both rules are pure functions of the model and warm-start hint
// (ties break toward the lowest column index), so solve sequences stay
// deterministic at any thread count; the Bland anti-cycling regime
// overrides either rule after a degenerate streak.
//
// A row that lists a variable more than once is read as one entry holding
// the sum of its coefficients.
//
// The returned duals are shadow prices d(objective)/d(rhs) in the model's
// own sense (for kMaximize they are the derivatives of the maximum).
class SimplexSolver {
 public:
  explicit SimplexSolver(SimplexOptions options = {}) : options_(options) {}

  Solution solve(const Model& model) const { return solve(model, nullptr, nullptr); }

  // Warm-startable solve. `warm` (may be null) seeds the starting point and
  // basis from a previous solve under the prefix contract documented on
  // SimplexBasis; `basis_out` (may be null) receives the optimal basis for
  // the next solve in the sequence. Warm starts change only the pivot path,
  // never the optimality conditions, and depend on nothing but the hint —
  // so solve sequences stay deterministic at any thread count.
  //
  // Status contract on kIterationLimit (pivot cap or an expired
  // options.deadline): if the limit fell in phase 2 the solution carries the
  // incumbent — a primal-feasible `x` and its true `objective` — so callers
  // can install it as a best-effort answer; `duals` stay empty because the
  // incumbent basis is not dual-feasible (never build cuts from it). A limit
  // during phase 1 returns an empty `x`: no feasible point was reached.
  Solution solve(const Model& model, const SimplexBasis* warm,
                 SimplexBasis* basis_out) const;

 private:
  SimplexOptions options_;
};

}  // namespace prete::lp
