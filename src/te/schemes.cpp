#include "te/schemes.h"

#include <algorithm>
#include <cmath>

#include "te/lp_common.h"
#include "te/minmax.h"

namespace prete::te {

TePolicy EcmpScheme::compute(const TeProblem& problem, const ScenarioSet&) {
  TePolicy policy;
  policy.allocation.assign(
      static_cast<std::size_t>(problem.tunnels->num_tunnels()), 0.0);
  for (const net::Flow& flow : *problem.flows) {
    const auto& tunnels = problem.tunnels->tunnels_for_flow(flow.id);
    if (tunnels.empty()) continue;
    const double share =
        problem.demand(flow.id) / static_cast<double>(tunnels.size());
    for (net::TunnelId t : tunnels) {
      policy.allocation[static_cast<std::size_t>(t)] = share;
    }
  }
  return policy;
}

TePolicy FfcScheme::compute(const TeProblem& problem,
                            const ScenarioSet&) {
  const net::Network& net = *problem.network;
  const auto& flows = *problem.flows;

  lp::Model model(lp::Sense::kMaximize);
  const std::vector<int> alloc = add_allocation_variables(model, problem);
  // Granted bandwidth b_f in [0, d_f]. Objective: lexicographic-ish
  // max-min fairness (a dominant weight on the minimum granted fraction
  // lambda) plus the equal-weight satisfied fraction, so no flow is starved
  // at an LP corner.
  std::vector<int> granted;
  granted.reserve(flows.size());
  for (const net::Flow& flow : flows) {
    const double d = demand_floor(problem, flow.id);
    granted.push_back(model.add_variable(0.0, d, 1.0 / d));
  }
  const int lambda =
      model.add_variable(0.0, 1.0, 10.0 * static_cast<double>(flows.size()));
  for (const net::Flow& flow : flows) {
    const double d = demand_floor(problem, flow.id);
    model.add_row({{granted[static_cast<std::size_t>(flow.id)], 1.0},
                   {lambda, -d}},
                  lp::RowType::kGreaterEqual, 0.0);
  }
  add_capacity_rows(model, problem, alloc);
  // No-failure rows seed the lazy loop.
  for (const net::Flow& flow : flows) {
    std::vector<lp::Coefficient> coefs;
    for (net::TunnelId t : problem.tunnels->tunnels_for_flow(flow.id)) {
      coefs.push_back({alloc[static_cast<std::size_t>(t)], 1.0});
    }
    coefs.push_back({granted[static_cast<std::size_t>(flow.id)], -1.0});
    model.add_row(std::move(coefs), lp::RowType::kGreaterEqual, 0.0);
  }

  // Structural failure sets of cardinality <= k, as failure patterns (their
  // probabilities are unused).
  std::vector<FailureScenario> failure_sets;
  for (net::FiberId i = 0; i < net.num_fibers(); ++i) {
    if (k_ >= 1) failure_sets.emplace_back(std::vector<net::FiberId>{i});
    for (net::FiberId j = i + 1; k_ >= 2 && j < net.num_fibers(); ++j) {
      failure_sets.emplace_back(std::vector<net::FiberId>{i, j});
    }
  }

  // One lazy row per (flow, failure set): b_f <= surviving allocation.
  const SurvivalIndex survival(problem, failure_sets);
  using Key = FlowGroupKey;
  RowGenerator<Key> rows(
      model, flows.size() * failure_sets.size(),
      flow_group_ids(failure_sets.size()), [&](const Key& key) {
        std::vector<lp::Coefficient> coefs =
            surviving_coefficients(alloc, survival, key.first, key.second, 1.0);
        coefs.push_back({granted[static_cast<std::size_t>(key.first)], -1.0});
        model.add_row(std::move(coefs), lp::RowType::kGreaterEqual, 0.0);
      });
  const auto result = rows.run(
      {}, {}, failure_sets.size(),
      [&](const lp::Solution& sol, std::size_t s,
          std::vector<RowCandidate<Key>>& out) {
        // Worst-violated flow for this failure set. Flows that keep NO
        // tunnel under the failure set are skipped: no allocation can
        // protect a physically disconnected flow, and forcing b_f = 0 for it
        // would punish the flow in every scenario rather than just this one.
        constexpr double kTol = 1e-6;
        RowCandidate<Key> worst{kTol, {-1, s}};
        for (const net::Flow& flow : flows) {
          if (survival.fatal(flow.id, s)) continue;
          double alive_sum = 0.0;
          for (net::TunnelId t : survival.surviving(flow.id, s)) {
            alive_sum += sol.x[static_cast<std::size_t>(
                alloc[static_cast<std::size_t>(t)])];
          }
          const double b = sol.x[static_cast<std::size_t>(
              granted[static_cast<std::size_t>(flow.id)])];
          if (b - alive_sum > worst.score) {
            worst = {b - alive_sum, {flow.id, s}};
          }
        }
        if (worst.key.first >= 0) out.push_back(worst);
      });
  // An iteration-limited solve still carries a primal-feasible incumbent
  // allocation — a better policy than abandoning the model.
  if (const lp::Solution* incumbent = result.incumbent()) {
    return extract_policy(problem, alloc, *incumbent);
  }
  return EcmpScheme().compute(problem, {});  // defensive fallback
}

namespace {

// TeaVar's CVaR LP on the flow-averaged loss: minimize
//   t + 1/(1-beta) * sum_{f,q} (p_q / |F|) * s_{f,q}
// with s_{f,q} >= 1 - (surviving allocation fraction) - t. The per-(f,q)
// shortfall variables and their rows are created lazily, so the dense
// simplex basis stays near the active set.
TePolicy solve_cvar(const TeProblem& problem, const ScenarioSet& scenarios,
                    double beta) {
  const auto& flows = *problem.flows;
  lp::Model model(lp::Sense::kMinimize);
  const std::vector<int> alloc = add_allocation_variables(model, problem);
  const int var_t = model.add_variable(0.0, 1.0, 1.0);
  const double tail = std::max(1.0 - beta, 1e-6);
  const double flow_weight = 1.0 / static_cast<double>(flows.size());
  add_capacity_rows(model, problem, alloc);

  const auto& Q = scenarios.scenarios;
  const SurvivalIndex survival(problem, Q);
  using Key = FlowGroupKey;
  RowGenerator<Key> rows(
      model, flows.size() * Q.size(), flow_group_ids(Q.size()),
      [&](const Key& key) {
        add_cvar_row(model, problem, alloc, var_t, survival, key.first,
                     key.second, Q[key.second].probability * flow_weight / tail);
      });
  // Seed with the highest-probability (usually no-failure) scenario.
  for (const net::Flow& flow : flows) rows.add({flow.id, 0});
  const auto result = rows.run(
      {}, {}, Q.size(),
      [&](const lp::Solution& sol, std::size_t q,
          std::vector<RowCandidate<Key>>& out) {
        constexpr double kTol = 1e-6;
        const double t_val = sol.x[static_cast<std::size_t>(var_t)];
        for (const net::Flow& flow : flows) {
          if (rows.has({flow.id, q})) continue;  // s var absorbs it
          const double violation =
              1.0 -
              surviving_fraction(problem, alloc, sol.x, survival, flow.id, q) -
              t_val;
          if (violation > kTol) out.push_back({violation, {flow.id, q}});
        }
      });
  if (!result.complete()) {
    return EcmpScheme().compute(problem, {});  // defensive fallback
  }
  return extract_policy(problem, alloc, result.optimal);
}

}  // namespace

TePolicy TeaVarScheme::compute(const TeProblem& problem,
                               const ScenarioSet& scenarios) {
  return solve_cvar(problem, scenarios, beta_);
}

TePolicy ArrowScheme::compute(const TeProblem& problem,
                              const ScenarioSet& scenarios) {
  // Optical restoration rebuilds the failed capacity within seconds, so the
  // allocation only has to fit the healthy network; the restoration outage
  // itself is charged by the evaluator via reaction().
  ScenarioSet healthy;
  if (!scenarios.scenarios.empty()) {
    healthy.scenarios.emplace_back(std::vector<net::FiberId>{}, 1.0);
    healthy.covered_probability = 1.0;
  }
  return solve_cvar(problem, healthy, beta_);
}

TePolicy FlexileScheme::compute(const TeProblem& problem,
                                const ScenarioSet& scenarios) {
  MinMaxOptions options;
  options.beta = std::min(beta_, scenarios.covered_probability);
  return solve_min_max_benders(problem, scenarios, options).policy;
}

}  // namespace prete::te
