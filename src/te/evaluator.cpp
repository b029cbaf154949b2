#include "te/evaluator.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "runtime/parallel.h"

namespace prete::te {

std::vector<double> flow_losses(const TeProblem& problem,
                                const TePolicy& policy,
                                const FailureScenario& scenario) {
  const net::Network& net = *problem.network;
  const net::TunnelSet& tunnels = *problem.tunnels;

  // Per-link load from surviving tunnels.
  std::vector<double> load(static_cast<std::size_t>(net.num_links()), 0.0);
  std::vector<bool> alive(static_cast<std::size_t>(tunnels.num_tunnels()), false);
  for (const net::Tunnel& t : tunnels.tunnels()) {
    const bool is_alive = tunnels.alive(net, t.id, scenario.failed());
    alive[static_cast<std::size_t>(t.id)] = is_alive;
    if (!is_alive) continue;
    const double a = policy.tunnel_allocation(t.id);
    if (a <= 0.0) continue;
    for (net::LinkId e : t.path) {
      load[static_cast<std::size_t>(e)] += a;
    }
  }

  // Overload factor per link: if load > capacity the link delivers
  // proportionally (models FIFO sharing for naive schemes; LP-based schemes
  // are capacity-feasible so the factor is 1).
  std::vector<double> factor(static_cast<std::size_t>(net.num_links()), 1.0);
  for (net::LinkId e = 0; e < net.num_links(); ++e) {
    const double c = net.link(e).capacity_gbps;
    if (load[static_cast<std::size_t>(e)] > c && load[static_cast<std::size_t>(e)] > 0) {
      factor[static_cast<std::size_t>(e)] = c / load[static_cast<std::size_t>(e)];
    }
  }

  std::vector<double> losses(problem.flows->size(), 0.0);
  for (const net::Flow& flow : *problem.flows) {
    const double demand = problem.demand(flow.id);
    if (demand <= 0.0) continue;
    double delivered = 0.0;
    for (net::TunnelId t : tunnels.tunnels_for_flow(flow.id)) {
      if (!alive[static_cast<std::size_t>(t)]) continue;
      const double a = policy.tunnel_allocation(t);
      if (a <= 0.0) continue;
      // The tunnel delivers through its most-congested link.
      double tunnel_factor = 1.0;
      for (net::LinkId e : tunnels.tunnel(t).path) {
        tunnel_factor = std::min(tunnel_factor, factor[static_cast<std::size_t>(e)]);
      }
      delivered += a * tunnel_factor;
    }
    losses[static_cast<std::size_t>(flow.id)] =
        std::clamp(1.0 - delivered / demand, 0.0, 1.0);
  }
  return losses;
}

double evaluate_phi(const TeProblem& problem, const ScenarioSet& scenarios,
                    double beta, const TePolicy& policy) {
  const auto& Q = scenarios.scenarios;
  std::vector<std::vector<double>> losses;  // [q][flow]
  for (const FailureScenario& scenario : Q) {
    losses.push_back(flow_losses(problem, policy, scenario));
  }
  const double budget = scenarios.covered_probability - beta;
  std::vector<std::size_t> order(Q.size());
  double phi = 0.0;
  for (std::size_t f = 0; f < problem.flows->size(); ++f) {
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                     std::size_t b) {
      return losses[a][f] > losses[b][f];
    });
    double dropped = 0.0;
    for (std::size_t q : order) {
      // The same 1e-12 slack as the solver's budget checks.
      if (dropped + Q[q].probability > budget + 1e-12) {
        phi = std::max(phi, losses[q][f]);
        break;
      }
      dropped += Q[q].probability;
    }
  }
  return phi;
}

std::vector<bool> affected_flows(const TeProblem& problem,
                                 const FailureScenario& scenario,
                                 const TePolicy* policy) {
  const net::Network& net = *problem.network;
  const net::TunnelSet& tunnels = *problem.tunnels;
  std::vector<bool> affected(problem.flows->size(), false);
  for (const net::Tunnel& t : tunnels.tunnels()) {
    if (policy && policy->tunnel_allocation(t.id) <= 1e-9) continue;
    if (!tunnels.alive(net, t.id, scenario.failed())) {
      affected[static_cast<std::size_t>(t.flow)] = true;
    }
  }
  return affected;
}

AvailabilityResult evaluate_availability(const TeProblem& problem,
                                         const TePolicy& policy,
                                         const ScenarioSet& scenarios,
                                         const EvaluationOptions& options) {
  AvailabilityResult result;
  const double num_flows = static_cast<double>(problem.flows->size());
  if (num_flows == 0) return result;

  // Scenarios are independent: evaluate them in parallel and fold the
  // probability-weighted sums in fixed chunk order (bit-identical at any
  // thread count).
  struct Acc {
    double mean_avail = 0.0;
    double system_avail = 0.0;
    double expected_max_loss = 0.0;
  };
  const Acc total = runtime::parallel_reduce(
      scenarios.scenarios.size(), Acc{},
      [&](std::size_t q) {
        const FailureScenario& scenario = scenarios.scenarios[q];
        const std::vector<double> losses =
            flow_losses(problem, policy, scenario);
        std::vector<bool> outage(losses.size(), false);
        if (options.reaction != FailureReaction::kRateAdaptation &&
            !scenario.failed().empty()) {
          // Reactive convergence / optical restoration outage hits every
          // affected flow regardless of the eventual allocation.
          outage = affected_flows(problem, scenario, &policy);
        }

        int ok = 0;
        double available = 0.0;  // fractional per-flow availability
        double max_loss = 0.0;
        for (std::size_t f = 0; f < losses.size(); ++f) {
          const bool loss_ok = losses[f] <= options.loss_tolerance;
          if (outage[f]) {
            // Charged for the outage window; the rest of the epoch counts
            // only if the post-reaction allocation serves the flow.
            available += loss_ok ? 1.0 - options.outage_epoch_fraction : 0.0;
            max_loss = std::max(max_loss, 1.0);
          } else {
            if (loss_ok) {
              ++ok;
              available += 1.0;
            }
            max_loss = std::max(max_loss, losses[f]);
          }
        }
        Acc acc;
        acc.mean_avail = scenario.probability * available / num_flows;
        acc.system_avail =
            ok == static_cast<int>(losses.size()) ? scenario.probability : 0.0;
        acc.expected_max_loss = scenario.probability * max_loss;
        return acc;
      },
      [](Acc a, const Acc& b) {
        a.mean_avail += b.mean_avail;
        a.system_avail += b.system_avail;
        a.expected_max_loss += b.expected_max_loss;
        return a;
      },
      /*grain=*/4);
  result.mean_flow_availability = total.mean_avail;
  result.system_availability = total.system_avail;
  result.expected_max_loss = total.expected_max_loss;

  // Residual mass: prefer the generator's explicit accounting (which is how
  // reduce_scenarios' dropped mass reaches evaluation) over re-deriving it
  // from the covered mass; fall back only for sets without accounting.
  const double covered = scenarios.covered_probability;
  const bool accounted =
      std::abs(covered + scenarios.residual_probability - 1.0) <= 1e-6;
  result.residual_mass = accounted ? scenarios.residual_probability
                                   : std::max(1.0 - covered, 0.0);
  if (!options.residual_counts_as_loss) {
    // Optimistic: renormalize by the covered mass — and report that the
    // residual was scaled away rather than charged.
    result.renormalized = true;
    const double mass = std::max(covered, 1e-12);
    result.mean_flow_availability /= mass;
    result.system_availability /= mass;
    result.expected_max_loss /= mass;
  } else {
    // Pessimistic: the uncovered mass is charged as total loss, using the
    // explicit residual accounting.
    result.expected_max_loss += result.residual_mass;
  }
  return result;
}

double to_nines(double availability) {
  const double unavail = std::clamp(1.0 - availability, 1e-12, 1.0);
  return -std::log10(unavail);
}

}  // namespace prete::te
