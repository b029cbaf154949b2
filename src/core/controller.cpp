#include "core/controller.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/policy_guard.h"

namespace prete::core {

Controller::Controller(const net::Topology& topology,
                       std::vector<double> static_fiber_probs,
                       std::shared_ptr<const ml::FailurePredictor> predictor,
                       ControllerConfig config)
    : topology_(topology),
      static_probs_(std::move(static_fiber_probs)),
      predictor_(std::move(predictor)),
      config_(config),
      tunnels_(net::build_tunnels(topology.network, topology.flows)),
      scheme_(static_probs_, config_.te),
      num_static_tunnels_(tunnels_.num_tunnels()) {
  if (static_cast<int>(static_probs_.size()) != topology.network.num_fibers()) {
    throw std::invalid_argument("static probabilities size mismatch");
  }
  if (!predictor_) throw std::invalid_argument("predictor is required");
}

void Controller::set_solver_budget(std::int64_t pivot_budget, double wall_ms) {
  if (pivot_budget < 0) {
    throw std::invalid_argument("solver pivot budget must be >= 0");
  }
  // Rejects NaN too: !(NaN >= 0) is true.
  if (!(wall_ms >= 0.0)) {
    throw std::invalid_argument("solver wall budget must be >= 0 ms");
  }
  config_.solver_pivot_budget = pivot_budget;
  config_.solver_wall_ms = wall_ms;
}

te::TeProblem Controller::current_problem(
    const net::TrafficMatrix& demands) const {
  te::TeProblem problem;
  problem.network = &topology_.network;
  problem.flows = &topology_.flows;
  problem.tunnels = &tunnels_;
  problem.demands = demands;
  return problem;
}

std::optional<te::TePolicy> Controller::last_good_projection() const {
  if (!last_good_.has_value()) return std::nullopt;
  // The stored policy covers (a prefix of) the static tunnels, which keep
  // their ids across dynamic-tunnel churn; everything past the prefix gets
  // zero. Dropping allocations can only lower flow totals and link loads,
  // so a policy that validated when stored re-validates here.
  te::TePolicy projected;
  projected.allocation.assign(
      static_cast<std::size_t>(tunnels_.num_tunnels()), 0.0);
  const std::size_t n =
      std::min(projected.allocation.size(), last_good_->allocation.size());
  std::copy_n(last_good_->allocation.begin(), n,
              projected.allocation.begin());
  return projected;
}

te::TePolicy Controller::static_floor(const net::TrafficMatrix& demands) const {
  const net::Network& net = topology_.network;
  te::TePolicy policy;
  policy.allocation.assign(static_cast<std::size_t>(tunnels_.num_tunnels()),
                           0.0);
  for (const net::Flow& flow : topology_.flows) {
    const auto& tunnels = tunnels_.tunnels_for_flow(flow.id);
    if (tunnels.empty()) continue;
    const double d = demands[static_cast<std::size_t>(flow.id)];
    const double share = std::isfinite(d) && d > 0.0
                             ? d / static_cast<double>(tunnels.size())
                             : 0.0;
    for (net::TunnelId t : tunnels) {
      policy.allocation[static_cast<std::size_t>(t)] = share;
    }
  }
  // Scale the whole split down by the worst link-overload ratio so the
  // floor is capacity-safe by construction, whatever the demands are.
  std::vector<double> load(static_cast<std::size_t>(net.num_links()), 0.0);
  for (const net::Tunnel& t : tunnels_.tunnels()) {
    for (net::LinkId e : t.path) {
      load[static_cast<std::size_t>(e)] +=
          policy.allocation[static_cast<std::size_t>(t.id)];
    }
  }
  double worst = 1.0;
  for (net::LinkId e = 0; e < net.num_links(); ++e) {
    const double cap = net.link(e).capacity_gbps;
    if (cap > 0.0) {
      worst = std::max(worst, load[static_cast<std::size_t>(e)] / cap);
    } else if (load[static_cast<std::size_t>(e)] > 0.0) {
      worst = std::numeric_limits<double>::infinity();
    }
  }
  const double scale = std::isfinite(worst) ? 1.0 / worst : 0.0;
  for (double& a : policy.allocation) a *= scale;
  return policy;
}

ControlDecision Controller::run_pipeline(
    const te::DegradationScenario& scenario, const net::TrafficMatrix& demands,
    const te::PreTeScheme::Prepared* prepared, util::Deadline* external) {
  if (demands.size() != topology_.flows.size()) {
    throw std::invalid_argument("demand vector size differs from flow count");
  }
  // With an external deadline the configured budgets are armed on it and
  // it is threaded through the solve even when unlimited — that is what
  // lets another thread's request_cancel() reach the pivot loop. An
  // unlimited, never-cancelled external deadline leaves the solve bitwise
  // identical to the internal-deadline path.
  util::Deadline deadline = util::Deadline::unlimited();
  util::Deadline* budget = external;
  if (config_.solver_pivot_budget > 0) {
    (budget != nullptr ? budget : &deadline)
        ->set_pivot_budget(config_.solver_pivot_budget);
    if (budget == nullptr) budget = &deadline;
  }
  if (config_.solver_wall_ms > 0.0) {
    (budget != nullptr ? budget : &deadline)
        ->set_wall_clock_ms(config_.solver_wall_ms);
    if (budget == nullptr) budget = &deadline;
  }
  if (armed_solver_collapse_) {
    // The collapse cancels the internal deadline, never the external one:
    // the solve is not superseded, it just has no budget at all.
    armed_solver_collapse_ = false;
    deadline.request_cancel();
    budget = &deadline;
  }

  ControlDecision decision;
  decision.phi = 1.0;
  decision.gap = 1.0;
  bool installed = false;

  // Rung 0/1: the full solve — or, when the deadline expires mid-solve, the
  // solver's best incumbent. Either way the candidate must pass the
  // validator before installation; a throw or a rejected policy descends
  // the ladder instead of propagating.
  try {
    if (armed_solver_faults_ > 0) {
      --armed_solver_faults_;
      throw std::runtime_error("injected solver exception");
    }
    auto outcome =
        prepared != nullptr
            ? scheme_.compute_with_prepared(topology_.network, topology_.flows,
                                            tunnels_, demands, *prepared,
                                            budget)
            : scheme_.compute_for_degradation(topology_.network,
                                              topology_.flows, tunnels_,
                                              demands, scenario, budget);
    decision.believed_scenarios = std::move(outcome.scenarios);
    decision.new_tunnels =
        static_cast<int>(outcome.tunnel_update.created.size());
    decision.solver_pivots = outcome.solver_result.simplex_pivots;
    decision.deadline_exceeded = outcome.solver_result.deadline_exceeded;
    te::TePolicy& policy = outcome.solver_result.policy;
    const PolicyCheck check = validate_policy(current_problem(demands), policy);
    bool usable = check.valid && !policy.allocation.empty();
    if (usable && outcome.solver_result.deadline_exceeded) {
      // A starved solve can hand back the trivial all-zero incumbent (it is
      // primal-feasible and validator-clean, but it drops every flow). The
      // lower rungs are strictly better than that, so an expired-deadline
      // incumbent must carry actual allocation to count as usable.
      double total_alloc = 0.0;
      for (double a : policy.allocation) total_alloc += a;
      double total_demand = 0.0;
      for (double d : demands) total_demand += std::max(d, 0.0);
      if (total_alloc <= 0.0 && total_demand > 0.0) usable = false;
    }
    if (usable) {
      decision.policy = std::move(policy);
      decision.phi = outcome.solver_result.phi;
      decision.gap = outcome.solver_result.gap();
      decision.fallback_level = outcome.solver_result.deadline_exceeded
                                    ? FallbackLevel::kIncumbent
                                    : FallbackLevel::kFull;
      installed = true;
    }
  } catch (const std::exception&) {
    decision.deadline_exceeded = budget != nullptr && budget->expired();
  }
  decision.superseded = external != nullptr && external->cancel_requested();

  // Rung 2: re-project the last validated policy onto the current tunnels.
  if (!installed) {
    if (auto projected = last_good_projection();
        projected.has_value() &&
        validate_policy(current_problem(demands), *projected).valid) {
      decision.policy = std::move(*projected);
      decision.fallback_level = FallbackLevel::kLastGood;
      installed = true;
    }
  }

  // Rung 3: the static floor always validates.
  if (!installed) {
    decision.policy = static_floor(demands);
    decision.fallback_level = FallbackLevel::kStaticFloor;
  }

  // Only healthy rungs refresh the last-good snapshot: re-installing a
  // fallback must not launder it into "good". A superseded (cancelled)
  // solve never refreshes it either, whatever rung it harvested — the
  // superseding epoch installs the policy that should become last-good.
  if (!decision.superseded &&
      (decision.fallback_level == FallbackLevel::kFull ||
       decision.fallback_level == FallbackLevel::kIncumbent)) {
    te::TePolicy trimmed = decision.policy;
    trimmed.allocation.resize(
        std::min(trimmed.allocation.size(),
                 static_cast<std::size_t>(num_static_tunnels_)));
    last_good_ = std::move(trimmed);
  }
  return decision;
}

ControlDecision Controller::on_te_period(const net::TrafficMatrix& demands) {
  return run_pipeline(
      te::DegradationScenario::none(topology_.network.num_fibers()), demands);
}

PreparedEpoch Controller::prepare_telemetry(
    net::FiberId fiber, const std::vector<double>& trace_db,
    optical::TimeSec trace_start_sec, double healthy_loss_db) const {
  PreparedEpoch prepared;
  // Consistency guards: a malformed window is rejected (empty quality)
  // rather than fed to detection. The one-week cap bounds the interpolation
  // cost a runaway collector can impose.
  constexpr std::size_t kMaxWindowSamples = 604800;  // 7 days at 1 Hz
  if (fiber < 0 || fiber >= topology_.network.num_fibers() ||
      trace_db.empty() || trace_db.size() > kMaxWindowSamples ||
      trace_start_sec < 0 || !std::isfinite(healthy_loss_db) ||
      healthy_loss_db <= 0.0) {
    prepared.malformed = true;
    return prepared;
  }

  const std::vector<double> clean =
      optical::sanitize_trace(trace_db, &prepared.quality);
  if (prepared.quality.all_missing) return prepared;

  const optical::DegradationDetector detector(healthy_loss_db);
  const auto result =
      detector.scan(clean, trace_start_sec, topology_.network.fiber(fiber));
  if (result.degradations.empty()) return prepared;

  if (!prepared.quality.trusted()) {
    // The window shows a degradation but its waveform is not trustworthy
    // (mostly missing, stuck-at, corrupt): skip the ML predictor — whose
    // features would be garbage — and react with the fiber's static
    // probability instead.
    prepared.scenario =
        te::DegradationScenario::none(topology_.network.num_fibers());
    prepared.scenario.degraded[static_cast<std::size_t>(fiber)] = true;
    prepared.scenario.predicted_prob[static_cast<std::size_t>(fiber)] =
        static_probs_[static_cast<std::size_t>(fiber)];
  } else {
    // React to the first episode with an observed onset: a boundary-
    // truncated episode carries window-edge features (its degree is the
    // walked noisy level, its onset the window start), which would mislead
    // the predictor. When every episode in the window is truncated, react
    // to the first one anyway — stale features still beat ignoring a live
    // degradation.
    const optical::DetectedDegradation* chosen = &result.degradations.front();
    for (const optical::DetectedDegradation& d : result.degradations) {
      if (!d.truncated_start) {
        chosen = &d;
        break;
      }
    }
    prepared.scenario = scenario_for_features(chosen->features);
  }
  prepared.has_signal = true;
  prepared.prepared =
      scheme_.prepare_scenarios(topology_.network, prepared.scenario);
  return prepared;
}

std::optional<ControlDecision> Controller::on_telemetry(
    net::FiberId fiber, const std::vector<double>& trace_db,
    optical::TimeSec trace_start_sec, double healthy_loss_db,
    const net::TrafficMatrix& demands) {
  const PreparedEpoch prepared =
      prepare_telemetry(fiber, trace_db, trace_start_sec, healthy_loss_db);
  last_telemetry_quality_ = prepared.quality;
  if (!prepared.has_signal) return std::nullopt;
  return decide_prepared(prepared, demands);
}

ControlDecision Controller::decide_prepared(const PreparedEpoch& prepared,
                                            const net::TrafficMatrix& demands,
                                            util::Deadline* external) {
  if (!prepared.has_signal) {
    throw std::invalid_argument("decide_prepared needs a prepared signal");
  }
  last_telemetry_quality_ = prepared.quality;
  return run_pipeline(prepared.scenario, demands,
                      prepared.prepared.has_value() ? &*prepared.prepared
                                                    : nullptr,
                      external);
}

te::DegradationScenario Controller::scenario_for_features(
    const optical::DegradationFeatures& features) const {
  te::DegradationScenario scenario =
      te::DegradationScenario::none(topology_.network.num_fibers());
  const auto fiber = static_cast<std::size_t>(features.fiber_id);
  if (features.fiber_id < 0 ||
      features.fiber_id >= topology_.network.num_fibers()) {
    throw std::out_of_range("degradation on unknown fiber");
  }
  scenario.degraded[fiber] = true;
  // A throwing predictor is a component fault, not a reason to drop the
  // reaction: fall back to the fiber's static probability. (NaN predictions
  // are sanitized further down by PreTeScheme.)
  try {
    scenario.predicted_prob[fiber] = predictor_->predict(features);
  } catch (const std::exception&) {
    scenario.predicted_prob[fiber] = static_probs_[fiber];
  }
  return scenario;
}

ControlDecision Controller::on_degradation(
    const optical::DegradationFeatures& features,
    const net::TrafficMatrix& demands) {
  return run_pipeline(scenario_for_features(features), demands);
}

void Controller::on_degradation_cleared() { tunnels_.clear_dynamic(); }

}  // namespace prete::core
