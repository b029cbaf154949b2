#pragma once

#include <cstdint>
#include <vector>

#include "net/srlg.h"
#include "util/rng.h"

namespace prete::sim {

// The component faults the harness can inject into a control-plane run.
enum class FaultKind {
  kNone = 0,
  // Telemetry corruption: NaN runs, infinite spikes, stuck-at readings,
  // negative samples (see corrupt_trace), or an absurd predicted
  // probability where no raw trace exists.
  kTelemetryCorruption,
  kPredictorNaN,    // the failure predictor returns NaN
  kPredictorThrow,  // the failure predictor throws
  // The TE solve runs out of budget mid-decomposition: a moderate pivot
  // budget that typically leaves a usable incumbent.
  kDeadlineExpiry,
  // The TE solve collapses entirely: its deadline is cancelled before the
  // solve starts, so no subproblem completes — however warm the carried
  // bases are — no incumbent exists, and the controller must descend past
  // the incumbent rung.
  kSolverCollapse,
  // Control-plane faults, injected into the epoch pipeline rather than a
  // single component. A stalled ingest/sanitize stage (the telemetry
  // collector hangs): the stage sleeps, tripping the pipeline's wall-mode
  // watchdog. A no-op in deterministic (pivot-budget) campaigns, where wall
  // time must not influence decisions.
  kStageStall,
  // The telemetry window for the step is never delivered: the harness hands
  // the controller an empty trace, which the input guards must reject.
  kWindowDrop,
  // The window is delivered twice (collector retransmit); ingest dedup must
  // drop the second copy so the controller is not double-driven.
  kWindowDuplicate,
  // The solve stage itself throws (Controller::arm_solver_exception): the
  // degradation ladder must contain the exception and still install a
  // validated policy.
  kSolverThrow,
};

const char* fault_kind_name(FaultKind kind);

// Per-step probabilities of each fault kind, evaluated in declaration order
// on a single uniform draw (so they are mutually exclusive and their sum
// must be <= 1).
struct FaultRates {
  double telemetry_corruption = 0.0;
  double predictor_nan = 0.0;
  double predictor_throw = 0.0;
  double deadline_expiry = 0.0;
  double solver_collapse = 0.0;
  // Control-plane fault rates. Appended after the component rates and
  // evaluated after them on the same draw, so a plan that leaves these at
  // their zero defaults samples bit-identically to a pre-pipeline build.
  double stage_stall = 0.0;
  double window_drop = 0.0;
  double window_duplicate = 0.0;
  double solver_throw = 0.0;

  double total() const {
    return telemetry_corruption + predictor_nan + predictor_throw +
           deadline_expiry + solver_collapse + stage_stall + window_drop +
           window_duplicate + solver_throw;
  }
};

// A deterministic fault schedule: forced (step, kind) entries fire exactly
// at their step; every other step samples from `rates` on the stream
// util::Rng(seed).split(step). No wall clock, no global state — the same
// plan yields the same faults at any thread count and in any query order.
struct FaultPlan {
  std::uint64_t seed = 0;
  FaultRates rates;
  struct Forced {
    std::int64_t step = 0;
    FaultKind kind = FaultKind::kNone;
  };
  std::vector<Forced> forced;
};

// A correlated group-cut schedule layered on top of the component faults:
// conduit dig-ups and weather events take down every fiber of an SRLG group
// at once. Like FaultPlan, forced (step, group) entries fire exactly at
// their step; every other step cuts a random non-singleton group with
// probability `rate`, sampled on an independent split stream — group cuts
// never perturb the component-fault draws and vice versa.
struct GroupCutPlan {
  net::SrlgMap srlg;
  double rate = 0.0;
  struct Forced {
    std::int64_t step = 0;
    int group = -1;
  };
  std::vector<Forced> forced;

  bool enabled() const {
    return srlg.num_groups > 0 && (rate > 0.0 || !forced.empty());
  }
};

// Schedule-driven fault injector for the control plane. `step` is whatever
// monotone identifier the harness uses for one decision opportunity — a
// campaign step, an epoch signature — and fault_at(step) is a pure function
// of (plan, step), so parallel consumers can query it order-independently.
class FaultInjector {
 public:
  // Pivot budget used when materializing kDeadlineExpiry.
  static constexpr std::int64_t kDeadlineExpiryPivots = 500;

  explicit FaultInjector(FaultPlan plan);
  FaultInjector(FaultPlan plan, GroupCutPlan group_cuts);

  FaultKind fault_at(std::int64_t step) const;

  // Which SRLG group (if any) is cut at `step`: a forced entry wins, then a
  // rate-sampled draw on the step's group-cut stream picks uniformly among
  // the non-singleton groups. Returns -1 for no group cut. Pure function of
  // (plans, step), like fault_at.
  int group_cut_at(std::int64_t step) const;

  // Fiber-level expansion of group_cut_at: the step's cut group's member
  // fibers in ascending order, or an empty list when no cut fires.
  std::vector<net::FiberId> group_cut_fibers(std::int64_t step) const;

  // Deterministically corrupts a telemetry trace in place, choosing among
  // four corruption modes (NaN run, +inf spike, stuck-at flatline, negative
  // run) from the step's stream. The trace keeps its length.
  void corrupt_trace(std::int64_t step, std::vector<double>& trace) const;

  // Stall duration for a kStageStall step: uniform in [max_ms/2, max_ms],
  // drawn from the step's own stall stream (pure function of plan and
  // step, like the other schedules). Returns 0 when max_ms <= 0.
  double stall_ms_at(std::int64_t step, double max_ms) const;

  const FaultPlan& plan() const { return plan_; }
  const GroupCutPlan& group_cuts() const { return group_cuts_; }

 private:
  FaultPlan plan_;
  GroupCutPlan group_cuts_;
  // Non-singleton groups, ascending — the candidates for sampled cuts
  // (cutting a singleton group is just an independent fiber fault, which
  // the base fault plan already covers).
  std::vector<int> cuttable_groups_;
};

}  // namespace prete::sim
