#include "te/availability.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "runtime/parallel.h"
#include "te/evaluator.h"

namespace prete::te {

PlantStatistics derive_statistics(const net::Network& network,
                                  const std::vector<optical::FiberModelParams>& params,
                                  const optical::CutLogitModel& logit,
                                  util::Rng& rng, int samples_per_fiber) {
  PlantStatistics stats;
  const auto n = static_cast<std::size_t>(network.num_fibers());
  stats.degradation_prob.resize(n);
  stats.cut_prob.resize(n);
  stats.cut_given_degradation.resize(n);
  // Fibers sample in parallel, each from its own index-derived stream (one
  // draw from the caller's rng seeds the root), so the estimates do not
  // depend on thread count or fiber iteration order.
  const util::Rng root(rng.next_u64());
  const std::vector<double> conditional = runtime::parallel_map(
      n,
      [&](std::size_t f) {
        util::Rng stream = root.split(f);
        const auto& p = params[f];
        const net::Fiber& fiber = network.fiber(static_cast<net::FiberId>(f));
        // Monte Carlo estimate of E[p_cut | degradation] for this fiber.
        double mean = 0.0;
        for (int s = 0; s < samples_per_fiber; ++s) {
          const double hour = stream.uniform(0.0, 24.0);
          const auto features =
              optical::sample_degradation_features(fiber, hour, stream);
          mean += logit.probability(features, p.fiber_effect);
        }
        return mean / static_cast<double>(samples_per_fiber);
      });
  for (std::size_t f = 0; f < n; ++f) {
    const auto& p = params[f];
    stats.degradation_prob[f] = p.degradation_prob_per_epoch;
    stats.cut_given_degradation[f] = conditional[f];
    // Total cut rate: predictable (within-TE) cuts + abrupt cuts. Late cuts
    // fold into the abrupt term already calibrated by build_plant_model.
    stats.cut_prob[f] =
        conditional[f] * p.degradation_prob_per_epoch +
        p.abrupt_cut_prob_per_epoch;
  }
  // Realized alpha: predictable mass over total mass.
  double predictable = 0.0;
  double total = 0.0;
  for (std::size_t f = 0; f < n; ++f) {
    predictable += stats.cut_given_degradation[f] * stats.degradation_prob[f];
    total += stats.cut_prob[f];
  }
  stats.alpha = total > 0 ? predictable / total : 0.25;
  return stats;
}

PlantStatistics with_alpha(PlantStatistics stats, double alpha) {
  for (std::size_t f = 0; f < stats.cut_prob.size(); ++f) {
    const double pd = std::max(stats.degradation_prob[f], 1e-12);
    stats.cut_given_degradation[f] =
        std::clamp(alpha * stats.cut_prob[f] / pd, 0.0, 0.95);
  }
  stats.alpha = alpha;
  return stats;
}

const char* to_string(PredictorModel model) {
  switch (model) {
    case PredictorModel::kOracle:
      return "Oracle";
    case PredictorModel::kNeuralNet:
      return "NN";
    case PredictorModel::kStatistic:
      return "Statistic";
    case PredictorModel::kTeaVar:
      return "TeaVar-pred";
  }
  return "unknown";
}

AvailabilityStudy::AvailabilityStudy(const net::Topology& topology,
                                     PlantStatistics stats,
                                     StudyOptions options)
    : topology_(topology),
      stats_(std::move(stats)),
      options_(options),
      base_tunnels_(net::build_tunnels(topology.network, topology.flows)) {
  if (stats_.num_fibers() != topology.network.num_fibers()) {
    throw std::invalid_argument("statistics do not match the topology");
  }
}

std::vector<AvailabilityStudy::DegradationCase>
AvailabilityStudy::degradation_cases() const {
  std::vector<DegradationCase> cases;
  double none = 1.0;
  for (double pd : stats_.degradation_prob) none *= (1.0 - pd);
  cases.push_back({-1, none});
  double mass = none;
  // Single-fiber degradations, most probable first.
  std::vector<int> order(static_cast<std::size_t>(stats_.num_fibers()));
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return stats_.degradation_prob[static_cast<std::size_t>(a)] >
           stats_.degradation_prob[static_cast<std::size_t>(b)];
  });
  for (int f : order) {
    const double pd = stats_.degradation_prob[static_cast<std::size_t>(f)];
    if (pd <= 0.0) continue;
    const double p = none * pd / (1.0 - pd);
    cases.push_back({f, p});
    mass += p;
    if (mass >= options_.degradation_mass_target) break;
  }
  return cases;
}

std::vector<double> AvailabilityStudy::nature_probs(int degraded_fiber,
                                                    double degraded_prob) const {
  std::vector<double> probs(static_cast<std::size_t>(stats_.num_fibers()));
  for (std::size_t f = 0; f < probs.size(); ++f) {
    // Theorem 4.1: without a degradation signal the failure probability is
    // the discounted (1 - alpha) p_i.
    probs[f] = (1.0 - stats_.alpha) * stats_.cut_prob[f];
  }
  if (degraded_fiber >= 0) {
    probs[static_cast<std::size_t>(degraded_fiber)] = degraded_prob;
  }
  return probs;
}

double AvailabilityStudy::evaluate_policy(const TeProblem& problem,
                                          const TePolicy& policy,
                                          const std::vector<double>& true_probs,
                                          FailureReaction reaction) const {
  const ScenarioSet nature =
      generate_failure_scenarios(true_probs, options_.nature_scenario_options);
  EvaluationOptions eval;
  eval.reaction = reaction;
  eval.loss_tolerance = options_.loss_tolerance;
  eval.outage_epoch_fraction = options_.outage_epoch_fraction;
  return evaluate_availability(problem, policy, nature, eval)
      .mean_flow_availability;
}

double AvailabilityStudy::evaluate_static(
    TeScheme& scheme, const net::TrafficMatrix& demands) const {
  TeProblem problem;
  problem.network = &topology_.network;
  problem.flows = &topology_.flows;
  problem.tunnels = &base_tunnels_;
  problem.demands = demands;

  // The scheme plans once, on its believed static probabilities and
  // (possibly error-laden) demand estimate.
  TeProblem planning = problem;
  if (options_.demand_error != 0.0) {
    for (double& d : planning.demands) d *= (1.0 + options_.demand_error);
  }
  const ScenarioSet believed =
      generate_failure_scenarios(stats_.cut_prob, options_.scenario_options);
  const TePolicy policy = scheme.compute(planning, believed);

  // ... but reality follows the degradation-conditioned process.
  double availability = 0.0;
  double mass = 0.0;
  for (const DegradationCase& c : degradation_cases()) {
    const double p_cut =
        c.fiber >= 0
            ? stats_.cut_given_degradation[static_cast<std::size_t>(c.fiber)]
            : 0.0;
    const auto probs = nature_probs(c.fiber, p_cut);
    availability += c.probability *
                    evaluate_policy(problem, policy, probs, scheme.reaction());
    mass += c.probability;
  }
  // Residual degradation mass: treat as the no-degradation behaviour.
  if (mass < 1.0) {
    const auto probs = nature_probs(-1, 0.0);
    availability += (1.0 - mass) *
                    evaluate_policy(problem, policy, probs, scheme.reaction());
  }
  return availability;
}

double AvailabilityStudy::evaluate_prete(
    PredictorModel model, const net::TrafficMatrix& demands) const {
  TeProblem problem;
  problem.network = &topology_.network;
  problem.flows = &topology_.flows;
  problem.demands = demands;

  net::TrafficMatrix planning_demands = demands;
  if (options_.demand_error != 0.0) {
    for (double& d : planning_demands) d *= (1.0 + options_.demand_error);
  }

  PreTeConfig config;
  config.beta = options_.beta;
  config.alpha = stats_.alpha;
  config.tunnel_update = options_.tunnel_update;
  config.scenario_options = options_.scenario_options;
  if (!options_.create_tunnels) config.tunnel_update.ratio = 0.0;

  double availability = 0.0;
  double mass = 0.0;
  for (const DegradationCase& c : degradation_cases()) {
    mass += c.probability;
    if (c.fiber < 0) {
      // No degradation: calibrated probabilities everywhere, no new tunnels.
      net::TunnelSet tunnels = base_tunnels_;
      problem.tunnels = &tunnels;
      PreTeScheme prete(stats_.cut_prob, config);
      const auto outcome = prete.compute_for_degradation(
          topology_.network, topology_.flows, tunnels, planning_demands,
          DegradationScenario::none(stats_.num_fibers()));
      const auto probs = nature_probs(-1, 0.0);
      availability += c.probability *
                      evaluate_policy(problem, outcome.solver_result.policy,
                                      probs, FailureReaction::kRateAdaptation);
      continue;
    }

    const double p_true =
        stats_.cut_given_degradation[static_cast<std::size_t>(c.fiber)];
    // Branches the degradation into (cut happens / does not), with the
    // predictor's believed probability per branch.
    struct Branch {
      double weight;
      double believed;
      double actual;
    };
    std::vector<Branch> branches;
    switch (model) {
      case PredictorModel::kOracle:
        branches.push_back({p_true, 1.0, 1.0});
        branches.push_back({1.0 - p_true, 0.0, 0.0});
        break;
      case PredictorModel::kNeuralNet: {
        // Calibration error alternates sign deterministically by fiber so
        // the study stays reproducible.
        const double sign = (c.fiber % 2 == 0) ? 1.0 : -1.0;
        const double believed = std::clamp(
            p_true + sign * options_.nn_probability_error, 0.01, 0.99);
        branches.push_back({1.0, believed, p_true});
        break;
      }
      case PredictorModel::kStatistic:
        branches.push_back({1.0, 0.4, p_true});
        break;
      case PredictorModel::kTeaVar:
        branches.push_back(
            {1.0, stats_.cut_prob[static_cast<std::size_t>(c.fiber)], p_true});
        break;
    }

    for (const Branch& branch : branches) {
      net::TunnelSet tunnels = base_tunnels_;
      problem.tunnels = &tunnels;
      PreTeScheme prete(stats_.cut_prob, config);
      DegradationScenario s = DegradationScenario::none(stats_.num_fibers());
      s.degraded[static_cast<std::size_t>(c.fiber)] = true;
      s.predicted_prob[static_cast<std::size_t>(c.fiber)] = branch.believed;
      const auto outcome = prete.compute_for_degradation(
          topology_.network, topology_.flows, tunnels, planning_demands, s);
      const auto probs = nature_probs(c.fiber, branch.actual);
      availability += c.probability * branch.weight *
                      evaluate_policy(problem, outcome.solver_result.policy,
                                      probs, FailureReaction::kRateAdaptation);
    }
  }
  if (mass < 1.0) {
    // Residual mass behaves like the no-degradation case; reuse its
    // availability by evaluating once more.
    net::TunnelSet tunnels = base_tunnels_;
    problem.tunnels = &tunnels;
    PreTeScheme prete(stats_.cut_prob, config);
    const auto outcome = prete.compute_for_degradation(
        topology_.network, topology_.flows, tunnels, planning_demands,
        DegradationScenario::none(stats_.num_fibers()));
    const auto probs = nature_probs(-1, 0.0);
    availability += (1.0 - mass) *
                    evaluate_policy(problem, outcome.solver_result.policy,
                                    probs, FailureReaction::kRateAdaptation);
  }
  return availability;
}

double AvailabilityStudy::mean_new_tunnels(
    const net::TrafficMatrix& demands) const {
  PreTeConfig config;
  config.beta = options_.beta;
  config.alpha = stats_.alpha;
  config.tunnel_update = options_.tunnel_update;
  config.scenario_options = options_.scenario_options;

  double total = 0.0;
  double weight = 0.0;
  for (const DegradationCase& c : degradation_cases()) {
    if (c.fiber < 0) continue;
    net::TunnelSet tunnels = base_tunnels_;
    PreTeScheme prete(stats_.cut_prob, config);
    DegradationScenario s = DegradationScenario::none(stats_.num_fibers());
    s.degraded[static_cast<std::size_t>(c.fiber)] = true;
    s.predicted_prob[static_cast<std::size_t>(c.fiber)] =
        stats_.cut_given_degradation[static_cast<std::size_t>(c.fiber)];
    const auto outcome = prete.compute_for_degradation(
        topology_.network, topology_.flows, tunnels, demands, s);
    total += c.probability *
             static_cast<double>(outcome.tunnel_update.created.size());
    weight += c.probability;
  }
  return weight > 0 ? total / weight : 0.0;
}

std::vector<AvailabilityPoint> sweep_scales(
    const AvailabilityStudy& study, TeScheme& scheme,
    const net::TrafficMatrix& base_demands, const std::vector<double>& scales) {
  std::vector<AvailabilityPoint> curve;
  curve.reserve(scales.size());
  for (double scale : scales) {
    curve.push_back({scale, study.evaluate_static(
                                scheme, net::scale_traffic(base_demands, scale))});
  }
  return curve;
}

std::vector<AvailabilityPoint> sweep_scales_prete(
    const AvailabilityStudy& study, PredictorModel model,
    const net::TrafficMatrix& base_demands, const std::vector<double>& scales) {
  std::vector<AvailabilityPoint> curve;
  curve.reserve(scales.size());
  for (double scale : scales) {
    curve.push_back({scale, study.evaluate_prete(
                                model, net::scale_traffic(base_demands, scale))});
  }
  return curve;
}

double max_scale_at_availability(const std::vector<AvailabilityPoint>& curve,
                                 double target) {
  double best = 0.0;
  for (std::size_t i = 0; i < curve.size(); ++i) {
    if (curve[i].availability >= target) {
      best = std::max(best, curve[i].scale);
      // Interpolate into the next segment if it dips below the target.
      if (i + 1 < curve.size() && curve[i + 1].availability < target &&
          curve[i + 1].scale > curve[i].scale) {
        const double frac = (curve[i].availability - target) /
                            std::max(curve[i].availability -
                                         curve[i + 1].availability,
                                     1e-12);
        best = std::max(best, curve[i].scale +
                                  frac * (curve[i + 1].scale - curve[i].scale));
      }
    }
  }
  return best;
}

}  // namespace prete::te
