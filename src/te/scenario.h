#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/graph.h"

namespace prete::te {

// Starting hash of the te signatures (FailureScenario::signature,
// problem_shape_signature, cut_environment_signature). It is one digit
// short of util::kFnvOffsetBasis. It stays: the cut bank sorts its terms by
// pattern signature and breaks eviction ties on that order, so a new seed
// could move decisions.
inline constexpr std::uint64_t kSignatureSeed = 1469598103934665603ull;

// One failure scenario q: the set of simultaneously failed fibers with its
// product-form probability p_q (§4.3). The set is an ascending,
// duplicate-free list of fiber ids, checked and signed once, where the
// scenario is made; a default-constructed scenario fails nothing.
struct FailureScenario {
  FailureScenario() = default;
  // Throws std::invalid_argument on a negative, repeated or descending id.
  explicit FailureScenario(std::vector<net::FiberId> failed,
                           double probability = 0.0);

  const std::vector<net::FiberId>& failed() const { return failed_; }

  // Stable 64-bit signature of the failed-fiber *pattern*: FNV-1a from
  // kSignatureSeed over the ascending ids; the probability stays out. Two
  // scenarios with the same failed set sign identically no matter where
  // they sit in their ScenarioSet — reduce_scenarios reordering,
  // probability drift between epochs, and input permutation all leave it
  // unchanged, which is what lets te::CutBank and te::BasisCache re-key
  // their rows onto the next epoch's scenario indices.
  std::uint64_t signature() const { return signature_; }

  double probability = 0.0;

 private:
  std::vector<net::FiberId> failed_;
  std::uint64_t signature_ = kSignatureSeed;
};

struct ScenarioSet {
  std::vector<FailureScenario> scenarios;
  // Probability mass covered by the enumerated scenarios. The residual
  // (1 - covered) corresponds to rare multi-failure scenarios beyond the
  // cutoff (treated as loss by pessimistic evaluators).
  double covered_probability = 0.0;
  // Truncation accounting: how many positive-probability candidates the
  // generator enumerated but dropped (max_scenarios / target_mass cutoffs),
  // and the total uncovered mass — dropped candidates plus outcomes the
  // generator never enumerated (higher-order joint failures). Generators
  // maintain covered_probability + residual_probability ≈ 1 and verify the
  // identity before returning, so truncation is never silent.
  int dropped_scenarios = 0;
  double residual_probability = 0.0;
};

struct ScenarioOptions {
  // Enumerate joint failures up to this cardinality.
  int max_simultaneous_failures = 2;
  // Stop adding scenarios once this probability mass is covered.
  double target_mass = 1.0 - 1e-6;
  // Hard cap on scenario count (keeps the optimizations tractable).
  int max_scenarios = 200;
};

// Enumerates failure scenarios for the given per-fiber cut probabilities in
// decreasing probability order: the no-failure scenario, then single cuts,
// then pairs, subject to the cutoff options (§6.1 "We select degradation and
// failure scenarios based on the specific cutoff values").
ScenarioSet generate_failure_scenarios(const std::vector<double>& cut_probs,
                                       const ScenarioOptions& options = {});

// --- Correlated (SRLG) failure model ---------------------------------------

// A correlated multi-fiber cut event: a conduit dig-up or a weather cell
// (ReWeave-style localized multi-link failure). When the event fires, each
// member fiber is cut independently with its *conditional* probability;
// fibers outside the event keep their background probabilities. Events are
// rare enough that scenarios condition on at most one firing at a time —
// simultaneous events fall into the residual mass.
struct CutEvent {
  std::vector<int> fibers;          // sorted, unique member fiber ids
  double probability = 0.0;         // P(event fires), in [0, 1)
  std::vector<double> conditional;  // per-member cut prob given the event
  std::string name;                 // e.g. "conduit:17", "weather:3"
};

struct CorrelatedFailureModel {
  int num_fibers = 0;
  // Independent background cut probabilities, in [0, 1) per fiber.
  std::vector<double> background;
  std::vector<CutEvent> events;
};

struct CorrelatedScenarioOptions {
  // Background (event-free) joint failures up to this cardinality.
  int max_background_failures = 2;
  // Background pairs are enumerated only among the top-K fibers by
  // background probability; the remaining pair mass joins the residual.
  int background_pair_candidates = 64;
  // Per event, keep only this many highest-probability member cut patterns
  // (the others contribute to the residual).
  int max_patterns_per_event = 8;
  double target_mass = 1.0 - 1e-6;
  int max_scenarios = 2000;
};

// Enumerates scenarios under the correlated model: background-only outcomes
// (no failure, singles, top-K pairs) plus, for each event, its most likely
// member cut patterns combined with no background failure elsewhere.
// Outcomes with identical failed-fiber sets are aggregated (e.g. an event
// that fires but cuts nothing merges with the no-failure scenario), so the
// returned probabilities are exact sums of disjoint product-form outcomes.
// Scenarios are ordered by (probability desc, failed-set lex) and truncation
// is reported via dropped_scenarios / residual_probability.
ScenarioSet generate_correlated_scenarios(
    const CorrelatedFailureModel& model,
    const CorrelatedScenarioOptions& options = {});

// --- Scenario reduction -----------------------------------------------------

// Importance-ranked scenario reduction: rank scenarios by
// probability * (1 + |failed|)^impact_exponent and keep the top ones
// until `max_scenarios` or `target_mass` is hit. impact_exponent = 0 is pure
// probability-mass ranking; > 0 biases toward multi-fiber scenarios, whose
// losses dominate the Benders max even at lower probability. The no-failure
// scenario is always kept. Ranking ties break on the failed-set pattern, so
// the reduced set is invariant under input-order permutation.
struct ReductionOptions {
  int max_scenarios = 600;
  double target_mass = 1.0;
  double impact_exponent = 0.0;
};

struct ReductionReport {
  int before = 0;
  int after = 0;
  int dropped = 0;
  double covered_before = 0.0;
  double covered_after = 0.0;
  double dropped_mass = 0.0;
};

ScenarioSet reduce_scenarios(const ScenarioSet& set,
                             const ReductionOptions& options,
                             ReductionReport* report = nullptr);

// A pluggable scenario generator: maps calibrated per-fiber cut
// probabilities to the believed scenario set. PreTeScheme (and everything
// layered on it — core::Controller, sim::MonteCarloStudy) calls this instead
// of generate_failure_scenarios when configured, which is how correlated
// SRLG models and scenario reduction reach the optimizer.
using ScenarioSource =
    std::function<ScenarioSet(const std::vector<double>& fiber_cut_probs)>;

// Eqn. 1 / §4.3: per-fiber failure probabilities under a degradation
// scenario. For degraded fibers use the predictor output; otherwise the
// discounted static probability (1 - alpha) * p_i.
std::vector<double> calibrated_probabilities(
    const std::vector<double>& static_probs,
    const std::vector<bool>& degraded,
    const std::vector<double>& predicted_probs, double alpha);

}  // namespace prete::te
