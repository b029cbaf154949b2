#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/controller.h"
#include "net/topology.h"
#include "net/traffic.h"
#include "sim/fault_injector.h"

namespace prete::core {

// Configuration of a deterministic fault campaign against the controller.
// Everything — fault sampling, telemetry waveforms, corruption shapes — is
// derived from `seed` via split streams, so a campaign is a pure function
// of (topology, static_probs, demands, config) and bit-identical at any
// thread count.
struct FaultCampaignConfig {
  int steps = 256;
  std::uint64_t seed = 7;
  // Probabilistic fault mix for the steps after the forced prologue. The
  // defaults sum to 0.85, so a 256-step campaign injects ~218 faults.
  sim::FaultRates rates{0.35, 0.15, 0.15, 0.10, 0.10};
  // Synthetic telemetry baseline (every window holds 120 samples).
  double healthy_loss_db = 2.0;
  te::PreTeConfig te;
  // Wall-clock budget mode: when either value is positive, solver-budget
  // faults arm wall-clock deadlines (milliseconds) instead of pivot
  // budgets — kSolverCollapse steps get `collapse_wall_ms`, kDeadlineExpiry
  // steps get `expiry_wall_ms` scaled by the prologue's budget fractions.
  // Wall-clock expiry is timing-dependent, so a wall-mode campaign's
  // decision_digest and rung mix are NOT reproducible run-to-run; soak
  // tests assert clean() and rung coverage, never the digest. Zero (the
  // default) keeps the deterministic faults: pivot budgets for
  // kDeadlineExpiry, Controller::arm_solver_collapse for kSolverCollapse.
  double collapse_wall_ms = 0.0;
  double expiry_wall_ms = 0.0;
  bool wall_clock_mode() const {
    return collapse_wall_ms > 0.0 || expiry_wall_ms > 0.0;
  }
  // Correlated group cuts (conduit/weather SRLG events): when enabled, each
  // step may additionally cut a whole risk group; the step's installed
  // policy is stress-evaluated under the expanded fiber cut and the losses
  // are folded into the decision digest. Disabled (the default) leaves the
  // campaign bit-identical to a pre-SRLG build.
  sim::GroupCutPlan group_cuts;
  // Sharding: the campaign's steps are split into `shards` contiguous
  // slices, each driven against its own fresh Controller concurrently on
  // the global thread pool. Every slice replays the forced rung prologue at
  // its first 8 local steps (remapped onto its global step numbers) so each
  // shard's ladder is fully exercised; window waveforms, sampled faults,
  // and corruption shapes keep their global-step streams. Per-slice digests
  // are folded in shard order, so the combined digest is bit-identical at
  // any thread count. shards = 1 (the default) reproduces the historical
  // single-controller campaign — same digest, same counters.
  int shards = 1;
  // Drive each slice's windows through a core::EpochPipeline (overlapped
  // prepare + ordered commit) instead of direct on_telemetry calls. The
  // decision sequence, and therefore the digest, is identical either way —
  // that equality is the pipelined-vs-serial determinism witness.
  bool through_pipeline = false;
  // Supersede-cancellation inside the pipeline. Timing-dependent: only
  // meaningful in wall-clock/soak campaigns, never in digest-asserting runs.
  bool pipeline_cancel_superseded = false;
  // Maximum injected stall for kStageStall steps (milliseconds). When
  // positive and through_pipeline, the pipeline watchdog is armed at half
  // this value so injected stalls trip it. Wall-clock behavior; keep 0 in
  // deterministic campaigns (kStageStall then degenerates to a no-op).
  double stall_ms = 0.0;
};

struct FaultCampaignReport {
  int steps = 0;
  int faults_injected = 0;      // steps with a non-kNone fault armed
  int exceptions = 0;           // exceptions escaping the controller (must be 0)
  int validator_failures = 0;   // installed policies failing validate_policy
  // Guaranteed decisions (phi <= te::kGuaranteeThreshold) whose policy
  // te::evaluate_phi puts above the reported phi + 1e-6 (must be 0).
  int phi_violations = 0;
  int decisions = 0;            // steps that produced a ControlDecision
  int no_decision_steps = 0;    // nullopt from on_telemetry
  int malformed_windows = 0;    // windows rejected by the input guards
  int untrusted_windows = 0;    // decisions taken on untrusted telemetry
  int deadline_exceeded = 0;    // decisions whose solve ran out of budget
  // Decisions per ladder rung, indexed by FallbackLevel.
  std::array<int, 4> rung_count{};
  // Correlated group-cut stress results (zero unless config.group_cuts is
  // enabled): cuts injected, policy evaluations performed (a cut landing on
  // a no-decision step is injected but not evaluable), flows pushed over
  // the loss tolerance, and the worst per-flow loss observed.
  int group_cuts_injected = 0;
  int group_cuts_evaluated = 0;
  int group_cut_flow_outages = 0;
  double worst_group_cut_loss = 0.0;
  // Control-plane fault accounting (zero unless the new FaultRates fields
  // are armed): dropped windows must yield no decision; duplicate
  // re-deliveries must be deduplicated at ingest; quarantined / superseded
  // / watchdog counters are populated by pipelined (through_pipeline) runs.
  int dropped_windows = 0;
  int duplicate_windows = 0;
  int quarantined = 0;
  int superseded = 0;
  int watchdog_trips = 0;
  // FNV-1a digest over every decision's (step, rung, deadline flag, policy
  // bits) — the bit-identity witness for the CI thread matrix.
  std::uint64_t decision_digest = 0;

  bool every_rung_exercised() const {
    for (int c : rung_count) {
      if (c == 0) return false;
    }
    return true;
  }
  bool clean() const {
    return exceptions == 0 && validator_failures == 0 && phi_violations == 0;
  }

  std::string summary() const;
};

// Drives a Controller through `config.steps` telemetry windows while
// injecting faults: corrupted traces, NaN/throwing predictors, starved
// solver budgets, and malformed window metadata. A forced prologue
// guarantees each ladder rung is exercised at least once (solver collapse
// before any decision -> static floor; collapse after a good decision ->
// last-good; a sweep of partial budgets -> incumbent); the remaining steps
// sample from config.rates. Every decision is re-validated with
// validate_policy, every guaranteed decision's phi is re-evaluated with
// te::evaluate_phi, and any exception escaping the controller is counted —
// a clean run reports zero exceptions, validator failures and phi
// violations.
FaultCampaignReport run_fault_campaign(const net::Topology& topology,
                                       const std::vector<double>& static_probs,
                                       const net::TrafficMatrix& demands,
                                       const FaultCampaignConfig& config = {});

}  // namespace prete::core
