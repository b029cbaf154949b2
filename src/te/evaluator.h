#pragma once

#include <vector>

#include "te/scenario.h"
#include "te/types.h"

namespace prete::te {

// How a scheme behaves when a failure hits (Appendix A.10 "Failure
// Reactions"):
//  - kRateAdaptation: proactive; surviving tunnels keep their allocations
//    and the switchover is sub-epoch (ms). Loss = unmet demand fraction.
//  - kRecompute: reactive (Flexile/NCFlow); affected flows lose traffic for
//    the convergence window, counting the epoch as unavailable for them even
//    if the recomputed policy is lossless afterwards.
//  - kOpticalRestoration: ARROW; failed capacity comes back after the
//    restoration latency, but affected flows suffer loss during it.
enum class FailureReaction { kRateAdaptation, kRecompute, kOpticalRestoration };

// Per-flow loss fractions under one failure scenario.
// For every flow: delivered = sum of allocations on surviving tunnels,
// scaled down proportionally on any over-capacity link (this models both
// rate adaptation and naive schemes like ECMP that can overload links).
std::vector<double> flow_losses(const TeProblem& problem,
                                const TePolicy& policy,
                                const FailureScenario& scenario);

// Whether each flow is "affected" by the scenario: at least one of its
// traffic-carrying tunnels dies. When `policy` is supplied, tunnels with
// zero allocation do not count (they carry nothing to disrupt).
std::vector<bool> affected_flows(const TeProblem& problem,
                                 const FailureScenario& scenario,
                                 const TePolicy* policy = nullptr);

// The decision's phi certificate: each flow's beta-quantile loss under
// `policy`, maximised over flows. Per flow, the highest-loss scenarios are
// dropped while their mass fits the covered_probability - beta budget (the
// budget of Eqn. 5) and the largest remaining loss counts. When
// solve_min_max_benders reports phi <= kGuaranteeThreshold, its policy's
// evaluate_phi is at most phi. Costs one flow_losses pass per scenario.
double evaluate_phi(const TeProblem& problem, const ScenarioSet& scenarios,
                    double beta, const TePolicy& policy);

struct AvailabilityResult {
  // Probability-weighted fraction of flows meeting their demand
  // (loss <= tolerance) across scenarios — the per-flow availability the
  // paper plots (Figure 13 y-axis, in "nines").
  double mean_flow_availability = 0.0;
  // Probability that no flow sees loss (system-level availability).
  double system_availability = 0.0;
  // Expected maximum flow loss (the Phi objective, for diagnostics).
  double expected_max_loss = 0.0;
  // Explicit residual-mass accounting: the probability mass the scenario
  // set does not cover, taken from the generator's residual_probability
  // when the set's covered + residual ≈ 1 identity holds (the
  // ReductionReport dropped mass propagates through that field) and from
  // 1 - covered otherwise (hand-built sets without accounting). Pessimistic
  // evaluations charge exactly this mass to expected_max_loss; optimistic
  // ones renormalize by the covered mass and say so via `renormalized` —
  // either way the consumer sees what happened to the dropped mass instead
  // of having to re-derive it.
  double residual_mass = 0.0;
  bool renormalized = false;
};

struct EvaluationOptions {
  FailureReaction reaction = FailureReaction::kRateAdaptation;
  double loss_tolerance = 1e-4;
  // Probability mass not covered by the scenario set is counted as
  // unavailable (pessimistic, keeps comparisons honest).
  bool residual_counts_as_loss = true;
  // How much of a TE epoch an affected flow is charged for a reactive
  // convergence / optical-restoration outage. 1.0 (default) is the binary
  // per-epoch accounting: any outage makes the flow unavailable for the
  // epoch. Setting it to outage_sec / epoch_sec (e.g. 8/300 for ARROW's
  // restoration) yields availability-as-fraction-of-time, which is what the
  // paper's ARROW/Flexile columns imply ("ARROW cannot achieve 99.95%" yet
  // reaches ~99.5%). Ignored for kRateAdaptation (its switchover is ms).
  double outage_epoch_fraction = 1.0;
};

// Evaluates a policy's availability over a scenario set.
// For kRecompute and kOpticalRestoration, affected flows are unavailable in
// any scenario with a failure (convergence/restoration outage), and
// post-reaction losses additionally count against unaffected flows.
AvailabilityResult evaluate_availability(const TeProblem& problem,
                                         const TePolicy& policy,
                                         const ScenarioSet& scenarios,
                                         const EvaluationOptions& options = {});

// Converts availability to "number of nines" (0.999 -> 3.0).
double to_nines(double availability);

}  // namespace prete::te
