#pragma once

#include "lp/model.h"
#include "lp/simplex.h"

namespace prete::lp {

// The integrality and relative-gap tolerances are fixed at 1e-6 inside the
// search (see branch_and_bound.cpp).
struct BranchAndBoundOptions {
  SimplexOptions simplex;
  int max_nodes = 20000;
  // Nodes popped (best-first) and relaxed per wave. Waves are evaluated in
  // parallel on the runtime pool, then merged in fixed slot order, and the
  // wave size never depends on the worker count — so the node tree, the
  // incumbent sequence, and every returned bit are identical at any
  // PRETE_THREADS. Values <= 1 evaluate serially; a solve with
  // simplex.deadline set is always serial regardless of this setting,
  // because concurrent relaxations would race on the shared deadline's
  // pivot accounting (and wall-clock expiry mid-wave would make the node
  // tree timing-dependent).
  int wave_size = 8;
};

// Best-first branch-and-bound over the model's integer variables, using the
// simplex core for node relaxations. Intended for the small MIPs left after
// Benders decomposition (the master problem over binary scenario selectors)
// and for verifying the decomposition in tests.
//
// Node relaxations are evaluated in deterministic parallel waves (see
// BranchAndBoundOptions::wave_size). The returned Solution aggregates work
// counters across every node relaxation: `iterations` (total simplex
// pivots), `reinversions` / `lu_reinversions` (summed), `eta_peak` (maxed)
// and `nodes_explored`.
class BranchAndBound {
 public:
  explicit BranchAndBound(BranchAndBoundOptions options = {})
      : options_(options) {}

  Solution solve(const Model& model) const;

 private:
  BranchAndBoundOptions options_;
};

}  // namespace prete::lp
