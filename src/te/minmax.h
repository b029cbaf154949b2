#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "lp/model.h"
#include "lp/simplex.h"
#include "te/scenario.h"
#include "te/types.h"

namespace prete::te {

// Solver for the paper's availability-constrained min-max-loss program
// (Eqns 2-8): choose tunnel allocations a_{f,t} minimizing the maximum
// beta-quantile loss Phi across flows, where each flow may ignore failure
// scenarios totalling at most (1 - beta) probability (binary delta_{f,q}).
//
// Reformulation used throughout: the loss variables l_{f,q} are eliminated
// (they sit at max(0, 1 - sum_alive a/d) at any optimum), leaving rows
//   Phi + sum_{t in (T u Y)_{f,q}} a_{f,t} / d_f >= delta_{f,q}
// with delta only in the right-hand side — which makes Benders cuts exact
// subgradients of the subproblem value function.

// The Benders solve is followed by a CVaR refinement that keeps the
// quantile guarantee "loss <= Phi*" as hard rows — but only when Phi* is at
// most this, small enough to be SLA-meaningful. Past it a fairness guarantee
// of (say) 22% loss for everyone has no operational value, and enforcing it
// destroys bulk availability; the refinement then runs unconstrained (pure
// CVaR on the calibrated scenario set).
inline constexpr double kGuaranteeThreshold = 0.05;

// Benders convergence threshold on UB - LB (Algorithm 2's epsilon).
inline constexpr double kBendersEpsilon = 1e-4;

// Knobs of one min-max solve. The convergence threshold is kBendersEpsilon.
struct MinMaxOptions {
  double beta = 0.99;
  int max_iterations = 25;
  // Passed through to every LP solve inside the decomposition (refactor
  // interval, anchor threshold, pricing window, anti-cycling limit).
  lp::SimplexOptions simplex;
  // Optional cooperative budget (see util::Deadline), checked at every
  // Benders iteration and — via the simplex options — at every pivot of
  // every LP solve in the decomposition, refinement included. On expiry
  // solve_min_max_benders returns its best incumbent with
  // `deadline_exceeded` set and the bound gap it reached, instead of running
  // over. nullptr (the default) is unlimited and leaves the solve bitwise
  // identical to a build without deadlines.
  util::Deadline* deadline = nullptr;
};

struct MinMaxResult {
  TePolicy policy;
  double phi = 1.0;       // maximum beta-quantile loss achieved
  int iterations = 0;     // Benders iterations (1 for the direct solver)
  double upper_bound = 1.0;
  double lower_bound = 0.0;  // clamped to upper_bound for reporting
  bool converged = false;
  // The raw master lower bound exceeded the incumbent upper bound at some
  // iteration — a symptom of stale/incorrect cuts. A crossed bound is never
  // reported as convergence; callers treating `converged` as a certificate
  // should check this flag.
  bool bound_crossed = false;
  // Probability mass of fatal (no-surviving-tunnel) scenarios pre-dropped
  // per flow; each entry fits inside that flow's covered_probability - beta
  // budget and is charged against it before the master drops anything else.
  std::vector<double> pinned_fatal_mass;
  // The master selection the incumbent was solved at (Benders only; empty
  // for the direct solver): delta[f][q] = 1 when flow f must survive
  // scenario q of the solved set, 0 for dropped and pinned fatal pairs. When
  // phi <= kGuaranteeThreshold the shipped policy keeps loss <= phi on every
  // selected pair; past it the CVaR refinement drops that guarantee.
  std::vector<std::vector<char>> delta;
  // Total simplex pivots spent across every LP solve in the decomposition
  // (subproblem rounds, per-flow masters, CVaR refinement). The number a
  // basis cache is supposed to shrink.
  int simplex_pivots = 0;
  // Branch-and-bound nodes explored by solve_min_max_direct (0 for the
  // Benders path, which never branches).
  int bb_nodes = 0;
  // Cut-bank provenance (all zero when no CutBank was passed): how many
  // persisted cuts the solve replayed onto its master before iterating, how
  // many stored cuts failed the validity check (malformed flow id, no
  // surviving pattern) and were dropped, and how many fresh cuts this solve
  // banked for the next epoch. `bank_restart` is set when a lower-bound
  // candidate crossed the incumbent while replayed cuts were in the master:
  // the solve then dropped every cut and reran from the cold start
  // (`iterations` and `simplex_pivots` count both runs).
  int cuts_replayed = 0;
  int cuts_invalidated = 0;
  int cuts_banked = 0;
  bool bank_restart = false;
  // The MinMaxOptions deadline expired mid-solve: `policy` is the best
  // incumbent reached (possibly empty if not even one subproblem finished)
  // and `upper_bound`/`lower_bound` bracket how far the decomposition got.
  // `converged` stays meaningful: it is true only when the Benders bounds
  // genuinely closed before the expiry (the deadline then fell in the
  // post-convergence CVaR refinement, which ships the incumbent as-is).
  // Callers should treat the policy as best-effort and consult gap() for
  // the certified slack.
  bool deadline_exceeded = false;

  // Reported bound gap: how far the incumbent is from proven optimal. Always
  // finite and non-negative (the reporting lower bound is clamped).
  double gap() const { return upper_bound - std::min(lower_bound, upper_bound); }
};

// Cross-epoch warm-start state for the Benders decomposition, owned by the
// caller (te::PreTeScheme keeps one per problem shape). `signature` must be
// problem_shape_signature(problem) of the TeProblem the bases were exported
// from: the allocation-variable prefix and capacity-row prefix of the lazy
// LPs are pure functions of the problem shape, so a matching signature means
// the SimplexBasis prefix contract holds and the snapshots are valid hints.
// On a signature mismatch solve_min_max_benders resets the entry and runs
// cold — a stale cache can cost pivots, never correctness.
//
// Each basis is the FULL final basis of its LP, stored together with the
// ordered recipe of the lazy rows (and, for the refinement, lazy shortfall
// variables) that LP had grown. The next solve replays the recipe — adding
// the same rows in the same order before its first solve, stopping at the
// first entry its own state no longer admits — so the snapshot lines up
// row-for-row and the carried optimum survives installation. Truncating the
// basis to the capacity-row prefix instead is useless in practice: the
// allocation variables are basic in the dropped Phi-rows, so truncation
// demotes them to zero and the warm start degenerates to a cold one.
//
// Recipes are keyed by (flow, scenario pattern signature), like CutBank
// terms, not by scenario index: reduce_scenarios re-sorts the set by
// probability every epoch, so an index usually names a different failure
// pattern one epoch later while the pattern's Phi-row is unchanged. A
// pattern that left the scenario set stops the replay like a deselected key.
//
// Every cache-consulting LP solve (the first subproblem of a Benders solve,
// the first refinement round) counts once: as a hit when the carried basis
// was installed (lp::Solution::warm_installed), otherwise as a cold start —
// and, when a basis was offered but the replay or the installation rejected
// it, also as `rejected`.
struct BasisCache {
  // (flow, FailureScenario::signature()) of one replayed Phi-row.
  using Key = std::pair<int, std::uint64_t>;

  std::uint64_t signature = 0;

  // Final subproblem basis + the keys of its Phi-rows, in row order after
  // the capacity prefix.
  lp::SimplexBasis benders;
  std::vector<Key> benders_rows;

  // Final CVaR-refinement basis + its lazy-row recipe. CVaR rows also append
  // one shortfall variable each, so the recipe records the row kind to
  // replay the structural prefix in order.
  struct RefineRow {
    bool guarantee = false;  // false: CVaR row (appends a shortfall variable)
    int flow = 0;
    std::uint64_t pattern = 0;  // FailureScenario::signature()
  };
  lp::SimplexBasis refine;
  std::vector<RefineRow> refine_rows;

  int hits = 0;         // solves that installed the carried basis
  int cold_starts = 0;  // solves that started cold (no basis, or rejected)
  int rejected = 0;     // cold starts whose offered basis was not installed
};

// Cross-epoch bank of Benders optimality cuts, owned by the caller next to
// its BasisCache (te::PreTeScheme keeps one per problem shape). Cuts are
// stored with their weights re-keyed from scenario *indices* to scenario
// *pattern signatures* (FailureScenario::signature()), so they survive
// reduce_scenarios reordering and probability drift between epochs — the
// subproblem value function v(delta) depends only on the problem shape,
// demands, capacities, and each scenario's failed-fiber set, never on the
// probabilities, which enter the master alone.
//
// Replay validity is checked, not assumed (see replay_cut):
//  - `signature` / `environment` mismatches reset the bank — a different LP
//    shape, capacity vector, or link->fiber mapping changes v(delta) itself.
//  - Demand changes rescale the cut instead of dropping it. A cut is
//    Phi >= c + sum w_fq delta_fq with c = -sum_e cap_e u_e - v (capacity
//    and Phi-bound duals), so c holds no demand; demand enters only each
//    tunnel column's dual row sum_q w_fq alive_tq / d_f <= sum_{e in t} u_e.
//    Scaling every w_fq of flow f by min(1, d'_f / d_f), with d the cut's
//    `demands` snapshot, keeps that row (and the Phi row sum w - v <= 1)
//    feasible under the new demands d', so by weak duality the scaled cut
//    still bounds v(delta) from below.
//  - Weight terms whose pattern vanished from the current scenario set are
//    dropped with the constant untouched, which weakens the cut (treats the
//    pattern as delta = 0) but keeps it valid. A cut is invalidated only for
//    a malformed flow id or when every one of its patterns vanished.
// Scaled weights are still priced for the demands they were derived under,
// and the greedy master is not an envelope minimiser, so a replayed bank can
// steer it into a delta where the solve's own cuts cross the incumbent;
// solve_min_max_benders then restarts cold (MinMaxResult::bank_restart).
struct CutBank {
  std::uint64_t signature = 0;   // problem_shape_signature of the cuts' origin
  std::uint64_t environment = 0;  // cut_environment_signature (capacities,
                                  // link->fiber map) — shape excludes these

  struct Term {
    int flow = 0;
    std::uint64_t pattern = 0;  // FailureScenario::signature()
    double weight = 0.0;

    auto operator<=>(const Term&) const = default;  // (flow, pattern, weight)
  };
  struct Cut {
    double constant = 0.0;
    std::vector<Term> terms;      // sorted by (flow, pattern)
    std::vector<double> demands;  // per-flow demand snapshot at derivation:
                                  // the witness replay_cut scales against
    std::uint64_t last_active = 0;  // bank epoch the cut last influenced a
                                    // solve (master drop or lower bound)
  };

  std::vector<Cut> cuts;
  std::uint64_t epoch = 0;  // advanced once per banked solve

  // Eviction policy: a cut idle for `inactivity_ttl` epochs is dropped; the
  // total size is bounded by `max_cuts` with oldest-activity-first victims
  // and a deterministic lexicographic tie-break on (terms, constant).
  std::size_t max_cuts = 256;
  std::uint64_t inactivity_ttl = 8;

  // Monotone counters (reset with the bank on a signature change).
  int replayed = 0;     // cuts successfully replayed onto a master
  int invalidated = 0;  // stored cuts dropped by the validity check
  int inserted = 0;     // fresh cuts banked
  int evicted = 0;      // cuts removed by TTL or the size bound
};

// A Benders optimality cut over one epoch's scenario indices:
// Phi >= constant + sum weight * delta[flow][q].
struct CutInequality {
  double constant = 0.0;
  std::map<std::pair<int, std::size_t>, double> weights;  // (flow, q)

  double value(const std::vector<std::vector<char>>& delta) const;
};

// Replays one banked cut onto `problem` (see CutBank): terms re-keyed to
// this epoch's scenario indices through `sig_to_q`, each weight scaled by
// its flow's min(1, d'_f / d_f), vanished patterns dropped. nullopt for a
// malformed flow id or when no pattern survives.
std::optional<CutInequality> replay_cut(
    const CutBank::Cut& cut, const TeProblem& problem,
    const std::map<std::uint64_t, std::size_t>& sig_to_q);

// Hash of the subproblem data the shape signature deliberately excludes but
// cut validity depends on: per-link capacities and the link->fiber mapping
// (which fixes what each failure pattern means for tunnel liveness). A warm
// basis is self-revalidating, so BasisCache does not need this; a stale cut
// would silently overestimate the subproblem, so CutBank does.
std::uint64_t cut_environment_signature(const TeProblem& problem);

// Stable hash of the LP-shape-determining parts of a TeProblem: link count,
// tunnel count, and each tunnel's (flow, path) — everything that fixes the
// variable order and the capacity-row coefficients. Demands are deliberately
// excluded: they only move bounds/rhs, which the warm-start installation
// revalidates anyway, and demand drift between epochs is exactly the case a
// carried basis is meant to accelerate.
std::uint64_t problem_shape_signature(const TeProblem& problem);

// Tracks the Benders bound pair across iterations. The lower bound is kept
// raw: a candidate above the upper bound marks the bounds as crossed instead
// of being clamped into a spurious zero gap (the clamp used to convert the
// crossing into `converged = true` silently).
struct BendersBounds {
  double upper = 1.0;
  double lower = 0.0;  // raw best master bound, may exceed `upper` if crossed
  bool crossed = false;

  static constexpr double kCrossingTol = 1e-9;

  void observe_upper(double candidate) { upper = std::min(upper, candidate); }

  // Folds in a master lower-bound estimate; returns true when the gap has
  // genuinely closed. Never reports convergence once the bounds crossed.
  bool update(double candidate, double epsilon) {
    lower = std::max(lower, candidate);
    if (lower > upper + kCrossingTol) crossed = true;
    return !crossed && upper - lower <= epsilon;
  }

  // Reporting form: lower_bound <= upper_bound always holds for callers.
  double clamped_lower() const { return std::min(lower, upper); }
};

// Exact mixed-integer solve via branch-and-bound over all delta_{f,q}.
// Only tractable for small instances (|F| x |Q| <~ 60); used as the ground
// truth in tests and for the worked examples of Figures 2/3/7.
MinMaxResult solve_min_max_direct(const TeProblem& problem,
                                  const ScenarioSet& scenarios,
                                  const MinMaxOptions& options = {});

// Benders decomposition (Algorithm 2 + Appendix A.4): subproblem LP with
// lazy rows, optimality cuts from the duals, and a per-flow master that
// selects which scenarios each flow must survive (probability mass >= beta).
//
// `cache` (may be null) carries simplex bases across calls: on entry a cache
// whose signature matches the problem shape seeds the subproblem and
// refinement warm starts; on exit the final bases and row recipes are
// written back. A warm start never changes an LP's optimal value
// (installation revalidates feasibility and falls back cold), but it can
// steer which optimal basis — and hence which lazy rows — the decomposition
// visits, so cached and uncached runs may return different policies of equal
// quality. For a fixed cache state the solve is still a pure function of its
// inputs: repeated runs, at any thread count, are bit-identical.
//
// `cut_bank` (may be null) carries Benders optimality cuts across calls: on
// entry every stored cut that passes the validity check (see CutBank) is
// replayed, rescaled to the current demands, onto the master before
// iteration 1, so steady-state epochs converge in fewer iterations; on exit
// this solve's fresh cuts are banked and idle cuts evicted. Replayed cuts are
// valid inequalities of the current instance that only steer the master (the
// lower bound uses this solve's own cuts); a crossing while they steer
// restarts the solve cold. Steering can still make a warm solve close its
// gap at a different delta than a cold one, because the greedy master's
// bound is not a certificate. The solve remains a pure function of (inputs,
// cache state, bank state), bit-identical at any thread count.
MinMaxResult solve_min_max_benders(const TeProblem& problem,
                                   const ScenarioSet& scenarios,
                                   const MinMaxOptions& options = {},
                                   BasisCache* cache = nullptr,
                                   CutBank* cut_bank = nullptr);

}  // namespace prete::te
