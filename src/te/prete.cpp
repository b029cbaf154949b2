#include "te/prete.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>

namespace prete::te {

bool DegradationScenario::any() const {
  return std::any_of(degraded.begin(), degraded.end(), [](bool b) { return b; });
}

DegradationScenario DegradationScenario::none(int num_fibers) {
  DegradationScenario s;
  s.degraded.assign(static_cast<std::size_t>(num_fibers), false);
  s.predicted_prob.assign(static_cast<std::size_t>(num_fibers), 0.0);
  return s;
}

namespace {

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

PreTeScheme::PreTeScheme(std::vector<double> static_fiber_probs,
                         PreTeConfig config)
    : static_probs_(std::move(static_fiber_probs)), config_(config) {}

PreTeScheme::Prepared PreTeScheme::prepare_scenarios(
    const net::Network& network,
    const DegradationScenario& degradation) const {
  if (degradation.degraded.size() != static_probs_.size() ||
      static_cast<int>(static_probs_.size()) != network.num_fibers()) {
    throw std::invalid_argument("degradation scenario size mismatch");
  }
  if (degradation.predicted_prob.size() != degradation.degraded.size()) {
    throw std::invalid_argument("degradation scenario size mismatch");
  }

  Prepared prepared;

  // Sanitize predictions before they reach scenario generation: a NaN or
  // out-of-range p_NN from a faulted predictor must degrade this fiber's
  // estimate, not invalidate the whole solve.
  prepared.believed = degradation;
  for (std::size_t f = 0; f < prepared.believed.predicted_prob.size(); ++f) {
    if (!prepared.believed.degraded[f]) continue;
    double& p = prepared.believed.predicted_prob[f];
    if (!std::isfinite(p)) p = static_probs_[f];
    p = std::clamp(p, 0.0, 1.0);
  }

  // Step 1 (§4.1): calibrate probabilities per Eqn. 1.
  prepared.calibrated = calibrated_probabilities(
      static_probs_, prepared.believed.degraded,
      prepared.believed.predicted_prob, config_.alpha);

  // Step 3 (§4.3), generation half: regenerate the believed scenario set. A
  // configured scenario_source (correlated SRLG model, reduction pipeline)
  // replaces the independent product-form enumeration. Generation sees only
  // the calibrated probabilities, so hoisting it ahead of the tunnel
  // updates (step 2, which runs in compute_with_prepared) cannot change the
  // result.
  // The memo is compared bit for bit: sources are pure, so an unchanged
  // vector (every TE period in which no fiber probability moved) gets the
  // same set back.
  {
    const std::lock_guard<std::mutex> lock(memo_.mutex);
    if (memo_.scenarios && same_bits(memo_.calibrated, prepared.calibrated)) {
      prepared.scenarios = *memo_.scenarios;
      return prepared;
    }
  }
  prepared.scenarios = config_.scenario_source
                           ? config_.scenario_source(prepared.calibrated)
                           : generate_failure_scenarios(
                                 prepared.calibrated, config_.scenario_options);
  const std::lock_guard<std::mutex> lock(memo_.mutex);
  memo_.calibrated = prepared.calibrated;
  memo_.scenarios = prepared.scenarios;
  return prepared;
}

PreTeScheme::Outcome PreTeScheme::compute_for_degradation(
    const net::Network& network, const std::vector<net::Flow>& flows,
    net::TunnelSet& tunnels, const net::TrafficMatrix& demands,
    const DegradationScenario& degradation, util::Deadline* deadline) {
  return compute_with_prepared(network, flows, tunnels, demands,
                               prepare_scenarios(network, degradation),
                               deadline);
}

PreTeScheme::Outcome PreTeScheme::compute_with_prepared(
    const net::Network& network, const std::vector<net::Flow>& flows,
    net::TunnelSet& tunnels, const net::TrafficMatrix& demands,
    const Prepared& prepared, util::Deadline* deadline) {
  if (demands.size() != flows.size()) {
    throw std::invalid_argument("demand vector size differs from flow count");
  }
  if (prepared.believed.degraded.size() !=
      static_cast<std::size_t>(network.num_fibers())) {
    throw std::invalid_argument("degraded mask size differs from fiber count");
  }
  Outcome outcome;

  // Step 2 (§4.2, Algorithm 1): reactive tunnel updates per degraded fiber.
  for (net::FiberId f = 0; f < network.num_fibers(); ++f) {
    if (!prepared.believed.degraded[static_cast<std::size_t>(f)]) continue;
    const TunnelUpdateResult r = update_tunnels_for_degradation(
        network, flows, tunnels, f, config_.tunnel_update);
    outcome.tunnel_update.shortfall += r.shortfall;
    outcome.tunnel_update.created.insert(outcome.tunnel_update.created.end(),
                                         r.created.begin(), r.created.end());
  }

  outcome.scenarios = prepared.scenarios;

  TeProblem problem;
  problem.network = &network;
  problem.flows = &flows;
  problem.tunnels = &tunnels;
  problem.demands = demands;

  MinMaxOptions solver = config_.solver;
  solver.beta = std::min(config_.beta, outcome.scenarios.covered_probability);
  if (deadline != nullptr) solver.deadline = deadline;
  ShapeState& state = shape_state(problem_shape_signature(problem));
  outcome.solver_result = solve_min_max_benders(
      problem, outcome.scenarios, solver, &state.basis, &state.cut_bank);
  return outcome;
}

PreTeScheme::ShapeState& PreTeScheme::shape_state(std::uint64_t signature) {
  auto it = shape_states_.find(signature);
  if (it == shape_states_.end()) {
    if (shape_states_.size() >= kMaxCachedShapes) {
      // Evict the least-recently-used shape. Stamps are unique (one per
      // access), so the victim — and therefore the whole cache trajectory —
      // is deterministic. Its counters retire into the aggregates.
      auto victim = shape_states_.begin();
      for (auto jt = std::next(shape_states_.begin());
           jt != shape_states_.end(); ++jt) {
        if (jt->second.last_used < victim->second.last_used) victim = jt;
      }
      add_counters(retired_, victim->second);
      shape_states_.erase(victim);
      ++evictions_;
    }
    it = shape_states_.emplace(signature, ShapeState{}).first;
  }
  it->second.last_used = ++access_counter_;
  return it->second;
}

PreTeScheme::CacheStats PreTeScheme::cache_stats() const {
  CacheStats stats = retired_;
  stats.shapes = static_cast<int>(shape_states_.size());
  stats.evictions = evictions_;
  for (const auto& entry : shape_states_) add_counters(stats, entry.second);
  return stats;
}

void PreTeScheme::add_counters(CacheStats& stats, const ShapeState& state) {
  stats.hits += state.basis.hits;
  stats.cold_starts += state.basis.cold_starts;
  stats.rejected += state.basis.rejected;
  stats.cuts_replayed += state.cut_bank.replayed;
  stats.cuts_invalidated += state.cut_bank.invalidated;
  stats.cuts_banked += state.cut_bank.inserted;
}

}  // namespace prete::te
