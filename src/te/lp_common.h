#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "lp/model.h"
#include "lp/simplex.h"
#include "te/scenario.h"
#include "te/types.h"

namespace prete::te {

// Adds one allocation variable per tunnel (a_{f,t} >= 0) and returns their
// variable ids (indexed by TunnelId).
std::vector<int> add_allocation_variables(lp::Model& model,
                                          const TeProblem& problem);

// Adds the link-capacity rows (Eqn. 3): for every directed IP link, the sum
// of allocations of tunnels crossing it must not exceed its capacity.
void add_capacity_rows(lp::Model& model, const TeProblem& problem,
                       const std::vector<int>& alloc_vars);

// Extracts the tunnel allocation policy from an LP solution.
TePolicy extract_policy(const TeProblem& problem,
                        const std::vector<int>& alloc_vars,
                        const lp::Solution& solution);

// Flow f's demand as the TE rows divide by it (floored away from zero).
inline double demand_floor(const TeProblem& problem, net::FlowId f) {
  return std::max(problem.demand(f), 1e-9);
}

// Which of each flow's tunnels survive each failure pattern q of one solve:
// the one definition of "surviving" that every TE LP row and pricing pass
// shares. Entry (f, q) lists flow f's tunnels that ride no fiber failed in
// pattern q, in tunnels_for_flow order, so rows built from it keep their
// coefficient order. An empty entry is a fatal pair: no allocation reaches
// the flow. Built once per solve by inversion — each pattern marks the
// tunnels riding its failed fibers — and read-only afterwards, so any
// number of threads may read it at once.
class SurvivalIndex {
 public:
  // `patterns`: a ScenarioSet's scenarios, or FFC's failure sets. Only
  // their failed() lists are read. Throws std::invalid_argument on a fiber
  // id the problem's network does not have.
  SurvivalIndex(const TeProblem& problem,
                const std::vector<FailureScenario>& patterns);

  std::span<const net::TunnelId> surviving(net::FlowId f,
                                           std::size_t q) const {
    const Entry& e = entries_[q * num_flows_ + static_cast<std::size_t>(f)];
    return {tunnels_.data() + e.begin, tunnels_.data() + e.end};
  }
  bool fatal(net::FlowId f, std::size_t q) const {
    return surviving(f, q).empty();
  }

 private:
  struct Entry {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  std::size_t num_flows_ = 0;
  // Entry q * num_flows_ + f is the range tunnels_[begin, end). tunnels_
  // opens with every flow's full tunnel list, which the entries of the
  // flows a pattern leaves whole point into; the lists of the flows it cuts
  // follow.
  std::vector<Entry> entries_;
  std::vector<net::TunnelId> tunnels_;
};

// Row coefficients: `scale` on each surviving tunnel's allocation variable.
std::vector<lp::Coefficient> surviving_coefficients(
    const std::vector<int>& alloc, const SurvivalIndex& index, net::FlowId f,
    std::size_t q, double scale);

// Fraction of flow f's demand that the allocation `x` routes over its
// tunnels surviving pattern q. Inline: every pricing pass calls it once per
// (flow, scenario).
inline double surviving_fraction(const TeProblem& problem,
                                 const std::vector<int>& alloc,
                                 const std::vector<double>& x,
                                 const SurvivalIndex& index, net::FlowId f,
                                 std::size_t q) {
  const double d = demand_floor(problem, f);
  double frac = 0.0;
  for (net::TunnelId t : index.surviving(f, q)) {
    frac += x[static_cast<std::size_t>(alloc[static_cast<std::size_t>(t)])] / d;
  }
  return frac;
}

// TeaVaR's CVaR row for flow f under pattern q: appends a shortfall
// variable s in [0, 1] costing `cost` and the row s + VaR + (surviving
// allocation)/d_f >= 1. TeaVaR, ARROW and PreTE's refinement stage share it.
void add_cvar_row(lp::Model& model, const TeProblem& problem,
                  const std::vector<int>& alloc, int var_t,
                  const SurvivalIndex& index, net::FlowId f, std::size_t q,
                  double cost);

// ---- Lazy row generation ----
// Every TE LP with one row per (flow, scenario) pair — the Benders
// subproblem, PreTE's CVaR refinement, TeaVaR/ARROW and FFC — is solved by
// row generation (Algorithm 2, Appendix A.4): solve over the rows generated
// so far, price the missing rows against that solution, add the worst
// offenders, re-solve. Almost all rows are slack at the optimum, so the
// simplex basis stays near the active set. Rows, and any columns they bring,
// only append, so each re-solve warm-starts from the previous round's basis
// under the SimplexBasis prefix contract. Two limits, shared by all four,
// bound the loop and with it the model's growth: kMaxRowRounds solves of at
// most kMaxRowsPerRound new rows each. A loop stopped by either limit, the
// deadline or a failed solve has not priced every row, so its solution may
// violate rows it never generated.
inline constexpr int kMaxRowRounds = 80;
inline constexpr int kMaxRowsPerRound = 60;

// A missing row that a pricing pass found violated, under the caller's key.
// The highest scores are added first.
template <class Key>
struct RowCandidate {
  double score = 0.0;
  Key key{};
};

enum class RowStop {
  kPriced,    // pricing found no violated row
  kRounds,    // kMaxRowRounds solves still left rows violated
  kDeadline,  // the simplex deadline had expired at the start of a round
  kFailed,    // a solve ended without an optimum
};

template <class Key>
struct RowGeneration {
  RowStop stop = RowStop::kRounds;
  lp::Solution optimal;    // the last optimal solve (none: status not kOptimal)
  lp::Solution failed;     // the solve that ended a kFailed loop
  lp::SimplexBasis basis;  // `optimal`'s basis: the snapshot to carry
  std::vector<Key> keys;   // `optimal`'s generated rows, in row order
  int solves = 0;
  int pivots = 0;
  bool warm_installed = false;  // the first solve installed its seed basis

  // The LP is solved over every row it needs.
  bool complete() const { return stop == RowStop::kPriced; }
  // The last primal-feasible point: a failed solve's phase-2 incumbent
  // (kIterationLimit with an x), otherwise the last optimal solve; null when
  // there is neither.
  const lp::Solution* incumbent() const {
    if (stop == RowStop::kFailed) {
      return failed.status == lp::SolveStatus::kIterationLimit &&
                     !failed.x.empty()
                 ? &failed
                 : nullptr;
    }
    return optimal.status == lp::SolveStatus::kOptimal ? &optimal : nullptr;
  }
};

// The RowGenerator key of a (flow, group) row and its dense id when every
// flow has `groups` rows: the Benders subproblem, TeaVaR/ARROW and FFC key
// their rows this way.
using FlowGroupKey = std::pair<int, std::size_t>;
inline auto flow_group_ids(std::size_t groups) {
  return [groups](const FlowGroupKey& key) {
    return static_cast<std::size_t>(key.first) * groups + key.second;
  };
}

// Row generation over one model. The caller says how a key becomes a row
// (`add_row`), which rows a solution violates (the pricing function given
// to run) and what a stop means for it; the generator owns the loop, the
// limits and the generated keys.
template <class Key>
class RowGenerator {
 public:
  // `key_id` numbers the caller's keys densely: it maps every key the
  // caller adds or asks about to a distinct id below `key_count`, and the
  // generator keeps one membership flag per id. `add_row(key)` appends
  // key's row, and any column it brings, to `model`.
  RowGenerator(lp::Model& model, std::size_t key_count,
               std::function<std::size_t(const Key&)> key_id,
               std::function<void(const Key&)> add_row)
      : model_(model),
        key_id_(std::move(key_id)),
        add_row_(std::move(add_row)),
        present_(key_count, 0) {}

  void add(const Key& key) {
    add_row_(key);
    keys_.push_back(key);
    present_[key_id_(key)] = 1;
  }
  bool has(const Key& key) const { return present_[key_id_(key)] != 0; }
  const std::vector<Key>& keys() const { return keys_; }

  // Re-adds `carried` — the keys of the snapshot `basis`, taken on the same
  // model prefix — in order while `admit(key)` holds and the key is new, so
  // the replayed rows line up with `basis` row for row. Returns `basis` when
  // every key replayed, its truncation to the replayed rows and columns when
  // only a prefix did, and an invalid basis when none did.
  template <class Admit>
  lp::SimplexBasis replay(const lp::SimplexBasis& basis,
                          const std::vector<Key>& carried, Admit&& admit) {
    std::size_t replayed = 0;
    if (basis.valid()) {
      for (const Key& key : carried) {
        if (!admit(key) || has(key)) break;
        add(key);
        ++replayed;
      }
    }
    if (replayed == 0) return {};
    if (replayed == carried.size()) return basis;
    return basis.truncated(model_.num_rows(), model_.num_variables());
  }

  // Runs the loop from `warm` (may be invalid). `price(solution, i, out)`
  // appends the violated missing rows of pricing group i < `groups` (a
  // scenario, or one of FFC's failure sets) to `out`. Groups price on the
  // calling thread in ascending index order into one candidate list.
  template <class Price>
  RowGeneration<Key> run(const lp::SimplexOptions& options,
                         const lp::SimplexBasis& warm, std::size_t groups,
                         Price&& price) {
    const lp::SimplexSolver solver(options);
    RowGeneration<Key> out;
    const lp::SimplexBasis* seed = warm.valid() ? &warm : nullptr;
    lp::SimplexBasis basis;
    std::size_t snapshot_keys = 0;
    for (int round = 0; round < kMaxRowRounds; ++round) {
      if (options.deadline != nullptr && options.deadline->expired()) {
        out.stop = RowStop::kDeadline;
        break;
      }
      lp::Solution solution = solver.solve(model_, seed, &basis);
      out.pivots += solution.iterations;
      if (out.solves++ == 0) out.warm_installed = solution.warm_installed;
      if (solution.status != lp::SolveStatus::kOptimal) {
        out.failed = std::move(solution);
        out.stop = RowStop::kFailed;
        break;
      }
      // Snapshot while basis and keys agree: rows added below would not be
      // covered by the basis until the next solve.
      out.optimal = std::move(solution);
      out.basis = std::move(basis);
      snapshot_keys = keys_.size();
      seed = &out.basis;
      std::vector<RowCandidate<Key>> violated;
      for (std::size_t i = 0; i < groups; ++i) price(out.optimal, i, violated);
      if (violated.empty()) {
        out.stop = RowStop::kPriced;
        break;
      }
      std::sort(violated.begin(), violated.end(),
                [](const auto& a, const auto& b) { return a.score > b.score; });
      violated.resize(std::min<std::size_t>(violated.size(), kMaxRowsPerRound));
      for (const RowCandidate<Key>& candidate : violated) add(candidate.key);
    }
    out.keys.assign(keys_.begin(),
                    keys_.begin() + static_cast<std::ptrdiff_t>(snapshot_keys));
    return out;
  }

 private:
  lp::Model& model_;
  std::function<std::size_t(const Key&)> key_id_;
  std::function<void(const Key&)> add_row_;
  std::vector<Key> keys_;
  std::vector<char> present_;  // by key id
};

}  // namespace prete::te
