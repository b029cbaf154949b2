#include "te/minmax.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>
#include <tuple>
#include <stdexcept>

#include "lp/branch_and_bound.h"
#include "lp/simplex.h"
#include "te/lp_common.h"
#include "util/hash.h"

namespace prete::te {

namespace {

void check_mass(const ScenarioSet& scenarios, double beta) {
  // Negated form so a NaN covered_probability (corrupt upstream
  // probabilities) fails the check instead of slipping past `<`.
  if (!(scenarios.covered_probability + 1e-12 >= beta)) {
    throw std::invalid_argument(
        "scenario set covers less probability mass than beta");
  }
}

}  // namespace

std::uint64_t problem_shape_signature(const TeProblem& problem) {
  // FNV-1a over everything that fixes the LP column order and the
  // capacity-row coefficient pattern.
  std::uint64_t h = kSignatureSeed;
  auto mix = [&h](auto v) {
    h = util::fnv1a_u64(h, static_cast<std::uint64_t>(v));
  };
  mix(problem.network->num_links());
  mix(problem.tunnels->num_tunnels());
  for (const net::Tunnel& t : problem.tunnels->tunnels()) {
    mix(t.flow);
    mix(t.path.size());
    for (net::LinkId link : t.path) mix(link);
  }
  return h;
}

std::uint64_t cut_environment_signature(const TeProblem& problem) {
  // FNV-1a over the subproblem data that can change v(delta) without
  // changing the shape signature: each link's capacity and the fiber it
  // rides on (the latter decides which tunnels a failure pattern kills).
  std::uint64_t h = kSignatureSeed;
  auto mix = [&h](auto v) {
    h = util::fnv1a_u64(h, static_cast<std::uint64_t>(v));
  };
  const net::Network& net = *problem.network;
  mix(net.num_fibers());
  for (net::LinkId e = 0; e < net.num_links(); ++e) {
    const net::Link& link = net.link(e);
    mix(link.fiber);
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(link.capacity_gbps));
    std::memcpy(&bits, &link.capacity_gbps, sizeof(bits));
    mix(bits);
  }
  return h;
}

MinMaxResult solve_min_max_direct(const TeProblem& problem,
                                  const ScenarioSet& scenarios,
                                  const MinMaxOptions& options) {
  check_mass(scenarios, options.beta);
  const auto& flows = *problem.flows;
  const auto& Q = scenarios.scenarios;

  const SurvivalIndex survival(problem, Q);

  lp::Model model(lp::Sense::kMinimize);
  const std::vector<int> alloc = add_allocation_variables(model, problem);
  const int phi = model.add_variable(0.0, 1.0, 1.0);
  // delta_{f,q} binaries and l_{f,q} losses.
  std::map<std::pair<int, std::size_t>, int> delta;
  std::map<std::pair<int, std::size_t>, int> loss;
  for (const net::Flow& flow : flows) {
    for (std::size_t q = 0; q < Q.size(); ++q) {
      delta[{flow.id, q}] = model.add_binary(0.0);
      loss[{flow.id, q}] = model.add_variable(0.0, 1.0, 0.0);
    }
  }
  add_capacity_rows(model, problem, alloc);
  for (const net::Flow& flow : flows) {
    const double d = demand_floor(problem, flow.id);
    // (5): sum_q p_q delta_{f,q} >= beta.
    std::vector<lp::Coefficient> avail_row;
    for (std::size_t q = 0; q < Q.size(); ++q) {
      avail_row.push_back({delta[{flow.id, q}], Q[q].probability});
      // (4): sum_{t alive} a + d * l >= d.
      std::vector<lp::Coefficient> demand_row =
          surviving_coefficients(alloc, survival, flow.id, q, 1.0);
      demand_row.push_back({loss[{flow.id, q}], d});
      model.add_row(std::move(demand_row), lp::RowType::kGreaterEqual, d);
      // (6): Phi - l + (1 - delta) >= 0  <=>  Phi - l - delta >= -1.
      model.add_row({{phi, 1.0},
                     {loss[{flow.id, q}], -1.0},
                     {delta[{flow.id, q}], -1.0}},
                    lp::RowType::kGreaterEqual, -1.0);
    }
    model.add_row(std::move(avail_row), lp::RowType::kGreaterEqual,
                  options.beta);
  }

  lp::BranchAndBoundOptions bb;
  bb.max_nodes = 50000;
  bb.simplex = options.simplex;
  bb.simplex.deadline = options.deadline;
  const lp::Solution sol = lp::BranchAndBound(bb).solve(model);
  MinMaxResult result;
  result.iterations = 1;
  result.simplex_pivots = sol.iterations;
  result.bb_nodes = sol.nodes_explored;
  result.deadline_exceeded =
      options.deadline != nullptr && options.deadline->expired();
  if (sol.status != lp::SolveStatus::kOptimal) {
    result.phi = 1.0;
    return result;
  }
  result.policy = extract_policy(problem, alloc, sol);
  result.phi = sol.x[static_cast<std::size_t>(phi)];
  result.upper_bound = result.phi;
  result.lower_bound = result.phi;
  result.converged = true;
  return result;
}

namespace {

// One Benders cut of a running solve, with its provenance.
struct BendersCut : CutInequality {
  // Bank provenance: index of the CutBank entry this cut was replayed from
  // (-1 for a cut derived by this solve), and whether the cut influenced the
  // solve — attained a per-(f,q) master drop weight that was spent, or the
  // lower-bound max — which is what keeps its bank entry alive.
  int bank_index = -1;
  bool active = false;
};

// Deterministic total order on distinct bank entries for size-bound
// eviction tie-breaks: lexicographic over (terms, constant). Identical
// (terms, constant) pairs never coexist in a bank (insertion dedups them),
// so the order is strict among stored cuts.
bool cut_lex_less(const CutBank::Cut& a, const CutBank::Cut& b) {
  return std::tie(a.terms, a.constant) < std::tie(b.terms, b.constant);
}

}  // namespace

double CutInequality::value(const std::vector<std::vector<char>>& delta) const {
  double v = constant;
  for (const auto& [key, w] : weights) {
    v += w * static_cast<double>(
                 delta[static_cast<std::size_t>(key.first)][key.second]);
  }
  return v;
}

std::optional<CutInequality> replay_cut(
    const CutBank::Cut& cut, const TeProblem& problem,
    const std::map<std::uint64_t, std::size_t>& sig_to_q) {
  const std::size_t flows = std::min(
      {problem.flows->size(), problem.demands.size(), cut.demands.size()});
  CutInequality out;
  out.constant = cut.constant;
  for (const CutBank::Term& term : cut.terms) {
    if (term.flow < 0 || static_cast<std::size_t>(term.flow) >= flows) {
      return std::nullopt;
    }
    const auto it = sig_to_q.find(term.pattern);
    if (it == sig_to_q.end()) continue;  // vanished pattern: delta = 0
    const double scale = std::min(
        1.0, demand_floor(problem, term.flow) /
                 std::max(cut.demands[static_cast<std::size_t>(term.flow)],
                          1e-9));
    out.weights[{term.flow, it->second}] += term.weight * scale;
  }
  if (out.weights.empty()) return std::nullopt;
  return out;
}

namespace {

// Tallies the first LP solve a BasisCache was consulted for: a hit when the
// carried basis was installed, otherwise a cold start, and a rejection when
// a basis was on offer but the replay or installation refused it.
void count_seed(BasisCache& cache, bool offered, bool installed) {
  if (installed) {
    ++cache.hits;
    return;
  }
  ++cache.cold_starts;
  if (offered) ++cache.rejected;
}

// Second stage: with the delta selection and its quantile guarantee Phi*
// fixed, re-optimize the allocation with a CVaR objective over ALL (flow,
// scenario) pairs while enforcing loss <= Phi* on every guaranteed pair.
// The pure min-max objective is indifferent between policies with the same
// worst quantile loss; this stage breaks that tie the way an operator
// would — protect everything that is cheap to protect.
TePolicy refine_policy(const TeProblem& problem, const ScenarioSet& scenarios,
                       const SurvivalIndex& survival,
                       const std::vector<std::vector<char>>& delta,
                       double phi_star, double beta,
                       const lp::SimplexOptions& simplex_options,
                       const std::map<std::uint64_t, std::size_t>& sig_to_q,
                       BasisCache* cache, int* pivots) {
  const auto& flows = *problem.flows;
  const auto& Q = scenarios.scenarios;
  lp::Model model(lp::Sense::kMinimize);
  const std::vector<int> alloc = add_allocation_variables(model, problem);
  const int var_t = model.add_variable(0.0, 1.0, 1.0);
  add_capacity_rows(model, problem, alloc);
  const double tail = std::max(1.0 - beta, 1e-6);
  const double flow_weight = 1.0 / static_cast<double>(flows.size());
  const double phi_bound = std::min(phi_star + 1e-7, 1.0);
  const bool enforce_guarantee = phi_bound < 1.0;

  // Lazy rows are CVaR rows (each appends its shortfall variable) and
  // guarantee rows: frac >= 1 - Phi*, the quantile guarantee, independent
  // of t.
  struct Key {
    bool guarantee = false;
    int flow = 0;
    std::size_t q = 0;
  };
  auto key_id = [&](const Key& key) {
    const std::size_t flow =
        static_cast<std::size_t>(key.flow) + (key.guarantee ? flows.size() : 0);
    return flow * Q.size() + key.q;
  };
  RowGenerator<Key> rows(
      model, 2 * flows.size() * Q.size(), key_id, [&](const Key& key) {
        if (key.guarantee) {
          model.add_row(
              surviving_coefficients(alloc, survival, key.flow, key.q,
                                     1.0 / demand_floor(problem, key.flow)),
              lp::RowType::kGreaterEqual, 1.0 - phi_bound);
        } else {
          add_cvar_row(model, problem, alloc, var_t, survival, key.flow, key.q,
                       Q[key.q].probability * flow_weight / tail);
        }
      });
  auto guaranteed = [&](int flow, std::size_t q) {
    return enforce_guarantee && delta[static_cast<std::size_t>(flow)][q] != 0;
  };

  // Replay the cached epoch's lazy rows, their patterns mapped to this
  // epoch's scenarios, so the cached basis lines up row for row (and, for
  // CVaR rows, shortfall variable for variable). CVaR rows are valid members
  // of the full CVaR model for any pair, so replaying them never changes the
  // optimum; a guarantee row is only valid while its pair is guaranteed
  // under the CURRENT delta and phi_bound, so the replay stops at the first
  // entry that is not, or whose pattern left the scenario set.
  const bool seed_offered = cache != nullptr && cache->refine.valid();
  lp::SimplexBasis warm;
  if (seed_offered) {
    std::vector<Key> carried;
    for (const BasisCache::RefineRow& rr : cache->refine_rows) {
      const auto it = sig_to_q.find(rr.pattern);
      const std::size_t q = it == sig_to_q.end() ? Q.size() : it->second;
      carried.push_back({rr.guarantee, rr.flow, q});
    }
    warm = rows.replay(cache->refine, carried, [&](const Key& key) {
      return key.q < Q.size() && key.flow >= 0 &&
             static_cast<std::size_t>(key.flow) < delta.size() &&
             (!key.guarantee || guaranteed(key.flow, key.q));
    });
  }
  // Every flow gets its q=0 CVaR row unless the replay already added it.
  for (const net::Flow& flow : flows) {
    if (!rows.has({false, flow.id, 0})) rows.add({false, flow.id, 0});
  }

  auto result = rows.run(
      simplex_options, warm, Q.size(),
      [&](const lp::Solution& sol, std::size_t q,
          std::vector<RowCandidate<Key>>& out) {
        const double t_val = sol.x[static_cast<std::size_t>(var_t)];
        for (const net::Flow& flow : flows) {
          const double frac =
              surviving_fraction(problem, alloc, sol.x, survival, flow.id, q);
          if (guaranteed(flow.id, q) && !rows.has({true, flow.id, q}) &&
              1.0 - frac > phi_bound + 1e-7) {
            out.push_back({1.0 - frac - phi_bound, {true, flow.id, q}});
          }
          if (!rows.has({false, flow.id, q}) && 1.0 - frac - t_val > 1e-6 &&
              Q[q].probability > 1e-12) {
            out.push_back(
                {(1.0 - frac - t_val) * Q[q].probability, {false, flow.id, q}});
          }
        }
      });
  if (pivots != nullptr) *pivots += result.pivots;
  if (cache != nullptr && result.solves > 0) {
    count_seed(*cache, seed_offered, result.warm_installed);
  }
  // Only a fully priced solve keeps every guarantee row. A refinement that
  // stops early (deadline, round limit, failed solve) returns nothing, and
  // the caller ships the Benders incumbent, which meets every guaranteed
  // pair.
  if (!result.complete()) return {};
  if (cache != nullptr) {
    cache->refine = std::move(result.basis);
    cache->refine_rows.clear();
    for (const Key& key : result.keys) {
      cache->refine_rows.push_back(
          {key.guarantee, key.flow, Q[key.q].signature()});
    }
  }
  return extract_policy(problem, alloc, result.optimal);
}

}  // namespace

MinMaxResult solve_min_max_benders(const TeProblem& problem,
                                   const ScenarioSet& scenarios,
                                   const MinMaxOptions& options,
                                   BasisCache* cache, CutBank* cut_bank) {
  check_mass(scenarios, options.beta);
  const auto& flows = *problem.flows;
  const auto& Q = scenarios.scenarios;

  // A cache from a different problem shape violates the SimplexBasis prefix
  // contract — reset it and rebuild from this solve. Stale-but-matching
  // caches are safe: warm installation revalidates feasibility and falls
  // back cold, so a bad hint costs pivots, never a different optimum.
  const std::uint64_t signature = problem_shape_signature(problem);
  if (cache != nullptr && cache->signature != signature) {
    *cache = BasisCache{};
    cache->signature = signature;
  }
  // A cut bank, unlike a basis cache, is NOT self-revalidating: a stored
  // cut from a different shape, capacity vector, or link->fiber mapping
  // bounds a different value function and would silently corrupt the master.
  // Any mismatch starts the bank fresh (policy knobs survive the reset).
  if (cut_bank != nullptr) {
    const std::uint64_t environment = cut_environment_signature(problem);
    if (cut_bank->signature != signature ||
        cut_bank->environment != environment) {
      CutBank fresh;
      fresh.max_cuts = cut_bank->max_cuts;
      fresh.inactivity_ttl = cut_bank->inactivity_ttl;
      fresh.signature = signature;
      fresh.environment = environment;
      *cut_bank = std::move(fresh);
    }
  }

  // One survival index serves the fatal-pair scan, every subproblem's
  // Phi-rows and pricing, and the refinement's rows and pricing.
  const SurvivalIndex survival(problem, Q);

  // Fatal pairs: scenarios where a flow keeps no tunnel at all. No
  // allocation can protect them (their Phi-row reads Phi >= 1), and at the
  // degenerate SP optimum the duals cannot be relied on to point the master
  // at them — so they are dropped up-front, within each flow's probability
  // budget, and pinned to zero.
  std::vector<std::vector<char>> fatal(flows.size(),
                                       std::vector<char>(Q.size(), 0));
  std::vector<double> pinned_mass(flows.size(), 0.0);
  const double base_budget = scenarios.covered_probability - options.beta;
  for (const net::Flow& flow : flows) {
    std::vector<std::pair<double, std::size_t>> fatal_q;  // (prob, q)
    for (std::size_t q = 0; q < Q.size(); ++q) {
      if (survival.fatal(flow.id, q)) fatal_q.push_back({Q[q].probability, q});
    }
    // Drop the most probable fatal scenarios first — they hurt Phi the most
    // if kept, and if all fit in the budget the order is irrelevant.
    std::sort(fatal_q.begin(), fatal_q.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    double used = 0.0;
    for (const auto& [p, q] : fatal_q) {
      if (used + p <= base_budget + 1e-12) {
        fatal[static_cast<std::size_t>(flow.id)][q] = 1;
        used += p;
      }
    }
    pinned_mass[static_cast<std::size_t>(flow.id)] = used;
  }

  // delta[f][q]: whether flow f must survive scenario q. Initialized to all
  // ones except the pinned fatal pairs (Algorithm 2 line 2 initializes to
  // ones, which "directly satisfies constraint (5)"; the fatal pins keep
  // (5) satisfied because they fit inside the budget).
  std::vector<std::vector<char>> cold_delta(
      flows.size(), std::vector<char>(Q.size(), 1));
  for (std::size_t f = 0; f < flows.size(); ++f) {
    for (std::size_t q = 0; q < Q.size(); ++q) {
      if (fatal[f][q]) cold_delta[f][q] = 0;
    }
  }
  std::vector<std::vector<char>> delta = cold_delta;

  MinMaxResult result;
  result.upper_bound = 1.0;
  result.lower_bound = 0.0;
  result.pinned_fatal_mass = pinned_mass;
  BendersBounds bounds;
  std::vector<BendersCut> cuts;

  // ---- Cut-bank replay: seed the master with last epoch's cuts. ----
  // Stored weights are keyed by pattern signature; replay_cut re-keys them
  // to this epoch's scenario indices and rescales them to this epoch's
  // demands (see CutBank for why the scaled cut stays valid). Probability
  // changes need nothing: v(delta) does not depend on them. The basis
  // cache's row recipes use the same pattern keys.
  std::map<std::uint64_t, std::size_t> sig_to_q;
  if (cache != nullptr || cut_bank != nullptr) {
    for (std::size_t q = 0; q < Q.size(); ++q) {
      sig_to_q.emplace(Q[q].signature(), q);  // first occurrence wins on a dup
    }
  }
  if (cut_bank != nullptr) {
    for (std::size_t i = 0; i < cut_bank->cuts.size(); ++i) {
      std::optional<CutInequality> replayed =
          replay_cut(cut_bank->cuts[i], problem, sig_to_q);
      if (!replayed) {
        ++result.cuts_invalidated;
        ++cut_bank->invalidated;
        continue;
      }
      cuts.push_back(BendersCut{std::move(*replayed), static_cast<int>(i)});
      ++result.cuts_replayed;
      ++cut_bank->replayed;
    }
  }

  std::vector<std::vector<char>> best_delta = delta;

  // Master pass: per-flow scenario selection over the current cut list.
  // Each flow's pass aggregates its own cut weights (max over cuts, a
  // monotone proxy that keeps every cut's reduction opportunities visible;
  // the cut maps are ordered by (flow, scenario), so a flow's entries are
  // one contiguous range), sorts its own drop order, and spends its own
  // budget. With a bank, the cut whose weight wins a spent drop is marked
  // active: it steered the selection, which is the signal that keeps its
  // bank entry alive.
  auto run_master = [&]() {
    const bool track = cut_bank != nullptr;
    for (const net::Flow& flow : flows) {
      const auto f = static_cast<std::size_t>(flow.id);
      std::vector<double> weight(Q.size(), 0.0);
      std::vector<int> arg(track ? Q.size() : 0, -1);
      for (std::size_t ci = 0; ci < cuts.size(); ++ci) {
        const BendersCut& c = cuts[ci];
        for (auto it = c.weights.lower_bound({flow.id, 0});
             it != c.weights.end() && it->first.first == flow.id; ++it) {
          double& cell = weight[it->first.second];
          if (it->second > cell) {
            cell = it->second;
            if (track) arg[it->first.second] = static_cast<int>(ci);
          }
        }
      }
      auto& df = delta[f];
      const auto& pins = fatal[f];
      const double budget = base_budget - pinned_mass[f];
      for (std::size_t q = 0; q < Q.size(); ++q) df[q] = pins[q] ? 0 : 1;
      // Drop the unpinned scenarios a cut weighs in decreasing weight while
      // the mass budget allows; ties broken toward lower-probability
      // scenarios (cheaper to drop), then lower q.
      std::vector<std::size_t> order;
      for (std::size_t q = 0; q < Q.size(); ++q) {
        if (!pins[q] && weight[q] > 0.0) order.push_back(q);
      }
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        if (weight[a] != weight[b]) return weight[a] > weight[b];
        if (Q[a].probability != Q[b].probability) {
          return Q[a].probability < Q[b].probability;
        }
        return a < b;
      });
      double dropped = 0.0;
      for (std::size_t q : order) {
        if (dropped + Q[q].probability <= budget + 1e-12) {
          df[q] = 0;
          dropped += Q[q].probability;
          if (track && arg[q] >= 0) {
            cuts[static_cast<std::size_t>(arg[q])].active = true;
          }
        }
      }
    }
  };
  // Replayed cuts drive a master pass BEFORE the first subproblem, so
  // iteration 1 already solves at the warm drop selection instead of the
  // expensive all-ones point. In a steady-state epoch the fresh cut then
  // closes the gap immediately and the warm solve converges in one
  // iteration. Without a bank the pre-pass is skipped and the solve is
  // bitwise the legacy cold algorithm.
  if (!cuts.empty()) run_master();

  // Successive subproblems share the variable layout and the capacity-row
  // prefix. The final basis of one solve warm-starts the next by replaying
  // its Phi-row keys: re-adding the same rows in the same order makes the
  // full basis — which holds the previous optimum — line up row-for-row.
  // The cache seeds the first iteration from the previous epoch's solve the
  // same way, its pattern-keyed recipe mapped to this epoch's scenario
  // indices; a pattern that left the set maps past the end, which stops the
  // replay like a deselected key.
  lp::SimplexBasis carry;
  std::vector<std::pair<int, std::size_t>> carry_keys;
  bool carry_fresh = false;  // `carry` comes from a subproblem of this solve
  const bool seed_offered = cache != nullptr && cache->benders.valid();
  auto seed_carry = [&]() {
    carry = seed_offered ? cache->benders : lp::SimplexBasis{};
    carry_keys.clear();
    carry_fresh = false;
    if (!seed_offered) return;
    for (const auto& [flow, pattern] : cache->benders_rows) {
      const auto it = sig_to_q.find(pattern);
      const std::size_t q = it == sig_to_q.end() ? Q.size() : it->second;
      carry_keys.push_back({flow, q});
    }
  };
  seed_carry();
  // The deadline rides inside the simplex options so every LP solve of the
  // decomposition (subproblem rounds, refinement) charges pivots against the
  // same budget; the Benders loop below also checks it per iteration.
  lp::SimplexOptions simplex_options = options.simplex;
  if (options.deadline != nullptr) simplex_options.deadline = options.deadline;
  util::Deadline* const deadline = simplex_options.deadline;

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    if (deadline != nullptr && deadline->expired()) {
      result.deadline_exceeded = true;
      break;  // return the incumbent with the gap reached so far
    }
    ++result.iterations;

    // ---- Subproblem: LP with lazy Phi-rows for delta == 1 pairs. ----
    // Each row is keyed by its (flow, scenario) pair: the dual of every row
    // maps back to its key to assemble the Benders cut.
    lp::Model sp(lp::Sense::kMinimize);
    const std::vector<int> alloc = add_allocation_variables(sp, problem);
    const int phi = sp.add_variable(0.0, 1.0, 1.0);
    add_capacity_rows(sp, problem, alloc);
    const int fixed_rows = sp.num_rows();
    using Key = FlowGroupKey;
    // Phi-row for (f, q): Phi + sum_{t alive} a_t / d_f >= 1.
    RowGenerator<Key> rows(
        sp, flows.size() * Q.size(), flow_group_ids(Q.size()),
        [&](const Key& key) {
          std::vector<lp::Coefficient> coefs = surviving_coefficients(
              alloc, survival, key.first, key.second,
              1.0 / demand_floor(problem, key.first));
          coefs.push_back({phi, 1.0});
          sp.add_row(std::move(coefs), lp::RowType::kGreaterEqual, 1.0);
        });
    auto selected = [&](const Key& key) {
      return delta[static_cast<std::size_t>(key.first)][key.second] != 0;
    };
    // Replay the carried rows in order, stopping at the first key the
    // current delta no longer selects — everything before the stop lines up
    // with the carried basis row-for-row. Phi-rows are valid for any
    // selected pair, so replaying them never changes the subproblem optimum.
    const lp::SimplexBasis warm =
        rows.replay(carry, carry_keys, [&](const Key& key) {
          return key.second < Q.size() && key.first >= 0 &&
                 static_cast<std::size_t>(key.first) < delta.size() &&
                 selected(key);
        });
    // Cold seed: the highest-probability scenario's rows.
    if (rows.keys().empty()) {
      for (const net::Flow& flow : flows) {
        if (selected({flow.id, 0})) rows.add({flow.id, 0});
      }
    }

    auto sp_result = rows.run(
        simplex_options, warm, Q.size(),
        [&](const lp::Solution& sol, std::size_t q,
            std::vector<RowCandidate<Key>>& out) {
          constexpr double kTol = 1e-7;
          const double phi_val = sol.x[static_cast<std::size_t>(phi)];
          for (const net::Flow& flow : flows) {
            if (!selected({flow.id, q}) || rows.has({flow.id, q})) continue;
            const double shortfall =
                1.0 - phi_val -
                surviving_fraction(problem, alloc, sol.x, survival, flow.id, q);
            if (shortfall > kTol) out.push_back({shortfall, {flow.id, q}});
          }
        });
    result.simplex_pivots += sp_result.pivots;
    if (cache != nullptr && result.iterations == 1 && sp_result.solves > 0) {
      count_seed(*cache, seed_offered, sp_result.warm_installed);
    }
    if (sp_result.optimal.status == lp::SolveStatus::kOptimal) {
      carry = std::move(sp_result.basis);
      carry_keys = std::move(sp_result.keys);
      carry_fresh = true;
    }
    if (!sp_result.complete()) {
      // A pivot/deadline-limited subproblem still carries a primal-feasible
      // point (the capacity rows are hard rows of every SP model), so its
      // allocation is installable. Keep it as a best-effort policy when no
      // completed subproblem produced one — but never trust its objective:
      // mid-row-generation it underestimates the true SP value, so the
      // bounds stay untouched and no cut is built from it.
      const lp::Solution* incumbent = sp_result.incumbent();
      if (incumbent != nullptr && result.policy.allocation.empty()) {
        result.policy = extract_policy(problem, alloc, *incumbent);
      }
      if (deadline != nullptr && deadline->expired()) {
        result.deadline_exceeded = true;
      }
      break;  // keep the best incumbent found so far
    }
    const lp::Solution& sp_result_solution = sp_result.optimal;
    const double sp_value = sp_result_solution.objective;

    // Update incumbent (the SP allocation is feasible for the original
    // problem because delta always satisfies constraint (5)).
    bounds.observe_upper(sp_value);
    if (sp_value < result.upper_bound) {
      result.upper_bound = sp_value;
      result.policy = extract_policy(problem, alloc, sp_result_solution);
      result.phi = sp_value;
      best_delta = delta;
    }

    // ---- Optimality cut from the duals (Eqn. 11). ----
    // carry_keys now names this subproblem's Phi-rows, in row order.
    BendersCut cut;
    cut.constant = sp_value;
    for (std::size_t r = 0; r < carry_keys.size(); ++r) {
      const double w =
          sp_result_solution.duals[static_cast<std::size_t>(fixed_rows) + r];
      if (w > 1e-10) {
        cut.weights[carry_keys[r]] += w;
        cut.constant -= w;  // subtract w * delta_hat (delta_hat == 1)
      }
    }
    cuts.push_back(cut);

    // ---- Master: per-flow scenario selection. ----
    run_master();

    // Lower bound estimate: the master value at the new delta. A candidate
    // above the incumbent marks the bounds as crossed instead of being
    // clamped into a spurious zero gap.
    //
    // Replayed cuts are EXCLUDED here even though they are valid: the
    // greedy master's delta does not minimize the cut envelope, so the
    // envelope value only tracks the incumbent when the cuts are the
    // homogeneous family this run derived. Bank cuts steer the master's drop
    // selection — the actual warm start — while only this run's own cuts
    // bound it (ROADMAP item 3 lets them in once the master is an envelope
    // minimiser).
    double lb = 0.0;
    for (const BendersCut& c : cuts) {
      if (c.bank_index < 0) lb = std::max(lb, c.value(delta));
    }
    if (cut_bank != nullptr) {
      // Fresh cuts attaining the lower bound are doing the bounding work;
      // that also keeps their future bank entries alive. (Replayed cuts
      // earn their keep in the master pass instead.)
      for (BendersCut& c : cuts) {
        if (!c.active && c.bank_index < 0 && c.value(delta) == lb) {
          c.active = true;
        }
      }
    }
    const bool gap_closed = bounds.update(lb, kBendersEpsilon);
    // Restart rule: rescaled bank weights stay priced for the demands they
    // were derived under and can lock the greedy master at a delta where
    // this run's own cuts read above the incumbent. A crossing while they
    // steer drops every cut and reruns the loop from the cold start with a
    // full iteration budget: the rerun is the bankless algorithm.
    if (bounds.crossed &&
        std::any_of(cuts.begin(), cuts.end(),
                    [](const BendersCut& c) { return c.bank_index >= 0; })) {
      result.bank_restart = true;
      cuts.clear();
      delta = best_delta = cold_delta;
      bounds = BendersBounds{};
      result.policy = TePolicy{};
      result.phi = result.upper_bound = 1.0;
      result.lower_bound = 0.0;
      seed_carry();
      iter = -1;
      continue;
    }
    result.lower_bound = bounds.clamped_lower();
    result.bound_crossed = bounds.crossed;
    if (gap_closed) {
      result.converged = true;
      break;
    }
  }
  // Second stage: keep the Phi guarantee when it is SLA-meaningful, and in
  // any case serve whatever else is free to serve (CVaR refinement).
  const double guarantee = result.upper_bound <= kGuaranteeThreshold
                               ? result.upper_bound
                               : 1.0;  // vacuous -> pure CVaR refinement
  if (cache != nullptr && carry_fresh) {
    cache->benders = carry;
    cache->benders_rows.clear();
    for (const auto& [flow, q] : carry_keys) {
      cache->benders_rows.push_back({flow, Q[q].signature()});
    }
  }
  // ---- Cut-bank writeback: refresh, insert, evict. ----
  // Runs alongside the basis writeback (before refinement) so a deadline
  // expiry during refinement cannot lose this solve's cuts. Cuts from
  // COMPLETED subproblems are exact inequalities even when the overall solve
  // expired (only completed SPs reach the cut derivation), so banking from a
  // deadline-starved incumbent solve is sound.
  if (cut_bank != nullptr) {
    const std::uint64_t now = cut_bank->epoch;
    // Replayed cuts that influenced this solve stay fresh. Bank indices are
    // stable here: nothing has been inserted or evicted since replay.
    for (const BendersCut& c : cuts) {
      if (c.bank_index >= 0 && c.active) {
        cut_bank->cuts[static_cast<std::size_t>(c.bank_index)].last_active =
            now;
      }
    }
    // Bank this solve's fresh cuts under signature keys with a demand
    // snapshot (the scaling witness for future replays).
    for (const BendersCut& c : cuts) {
      if (c.bank_index >= 0) continue;
      CutBank::Cut stored;
      stored.constant = c.constant;
      stored.terms.reserve(c.weights.size());
      for (const auto& [key, w] : c.weights) {
        stored.terms.push_back({key.first, Q[key.second].signature(), w});
      }
      std::sort(stored.terms.begin(), stored.terms.end());
      stored.demands = problem.demands;
      stored.last_active = now;
      // A re-derived identical cut refreshes its existing entry instead of
      // duplicating it. The demand snapshot is replaced with this solve's:
      // the cut's duals are feasible under it, so it is a valid witness for
      // the next replay's scaling.
      bool duplicate = false;
      for (CutBank::Cut& existing : cut_bank->cuts) {
        if (existing.constant == stored.constant &&
            existing.terms == stored.terms) {
          existing.last_active = now;
          existing.demands = stored.demands;
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
      cut_bank->cuts.push_back(std::move(stored));
      ++cut_bank->inserted;
      ++result.cuts_banked;
    }
    // Activity eviction: a cut idle for inactivity_ttl epochs goes first.
    {
      std::vector<CutBank::Cut> kept;
      kept.reserve(cut_bank->cuts.size());
      for (CutBank::Cut& c : cut_bank->cuts) {
        if (now - c.last_active >= cut_bank->inactivity_ttl) {
          ++cut_bank->evicted;
        } else {
          kept.push_back(std::move(c));
        }
      }
      cut_bank->cuts = std::move(kept);
    }
    // Size bound: evict oldest activity first; ties (same last_active epoch)
    // break lexicographically on (terms, constant), largest first — fully
    // deterministic, no dependence on insertion history beyond the entries
    // themselves. Survivors keep their insertion order.
    if (cut_bank->cuts.size() > cut_bank->max_cuts) {
      std::vector<std::size_t> idx(cut_bank->cuts.size());
      std::iota(idx.begin(), idx.end(), std::size_t{0});
      std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
        const CutBank::Cut& ca = cut_bank->cuts[a];
        const CutBank::Cut& cb = cut_bank->cuts[b];
        if (ca.last_active != cb.last_active) {
          return ca.last_active < cb.last_active;
        }
        return cut_lex_less(cb, ca);
      });
      const std::size_t excess = cut_bank->cuts.size() - cut_bank->max_cuts;
      std::vector<char> victim(cut_bank->cuts.size(), 0);
      for (std::size_t i = 0; i < excess; ++i) victim[idx[i]] = 1;
      std::vector<CutBank::Cut> kept;
      kept.reserve(cut_bank->max_cuts);
      for (std::size_t i = 0; i < cut_bank->cuts.size(); ++i) {
        if (!victim[i]) kept.push_back(std::move(cut_bank->cuts[i]));
      }
      cut_bank->cuts = std::move(kept);
      cut_bank->evicted += static_cast<int>(excess);
    }
    ++cut_bank->epoch;
  }
  // Refinement is tie-breaking, not correctness: on an expired deadline the
  // incumbent ships as-is rather than starting another LP sequence.
  if (deadline == nullptr || !deadline->expired()) {
    TePolicy refined =
        refine_policy(problem, scenarios, survival, best_delta, guarantee,
                      options.beta, simplex_options, sig_to_q, cache,
                      &result.simplex_pivots);
    if (!refined.allocation.empty()) {
      result.policy = std::move(refined);
    }
  }
  if (deadline != nullptr && deadline->expired()) {
    result.deadline_exceeded = true;
  }
  result.delta = std::move(best_delta);
  return result;
}

}  // namespace prete::te
