#include "core/fault_campaign.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/epoch_pipeline.h"
#include "core/policy_guard.h"
#include "runtime/task_group.h"
#include "te/evaluator.h"
#include "util/hash.h"
#include "util/rng.h"

namespace prete::core {

using util::fnv1a;

namespace {

using sim::FaultKind;

// Samples in each synthetic telemetry window (1 Hz).
constexpr std::size_t kWindowSamples = 120;
// Admission depth of the epoch pipeline on the pipelined drive.
constexpr int kPipelineMaxInFlight = 4;

// One telemetry delivery the campaign will make. A kWindowDuplicate step
// contributes two deliveries (the primary plus its retransmit); every other
// step contributes one. Precomputing the full delivery sequence before any
// window is driven gives the pipelined path a race-free epoch -> delivery
// mapping (epoch indices are assigned in submission order).
struct Delivery {
  int step = 0;   // global step: fault/window/corruption streams, digest
  int local = 0;  // slice-local step: prologue/malformed/clearing schedules
  bool primary = true;        // false for the duplicate re-delivery
  bool last_of_step = true;   // clearing runs after the step's last delivery
  net::FiberId fiber = 0;
  std::vector<double> trace;
  optical::TimeSec t0 = 0;
  double healthy_loss = 0.0;
  bool bad_metadata = false;  // NaN healthy loss or negative start time
  bool dropped = false;       // kWindowDrop: empty trace, guards must reject
  FaultKind kind = FaultKind::kNone;
};

// Predictor whose failure mode the campaign arms per step. Serial drives
// call set_mode before each window; pipelined drives instead resolve the
// mode from the epoch executing on this thread (EpochPipeline's epoch
// scope), so concurrent preparation of different epochs cannot race on a
// shared mutable mode.
class FaultyPredictor final : public ml::FailurePredictor {
 public:
  enum class Mode { kNormal, kNaN, kThrow };

  static Mode mode_for(FaultKind kind) {
    switch (kind) {
      case FaultKind::kPredictorNaN:
        return Mode::kNaN;
      case FaultKind::kPredictorThrow:
        return Mode::kThrow;
      default:
        return Mode::kNormal;
    }
  }

  double predict(const optical::DegradationFeatures&) const override {
    Mode mode = mode_;
    if (deliveries_ != nullptr) {
      const std::int64_t epoch = EpochPipeline::current_epoch();
      if (epoch >= 0 &&
          epoch < static_cast<std::int64_t>(deliveries_->size())) {
        mode = mode_for((*deliveries_)[static_cast<std::size_t>(epoch)].kind);
      }
    }
    switch (mode) {
      case Mode::kNaN:
        return std::numeric_limits<double>::quiet_NaN();
      case Mode::kThrow:
        throw std::runtime_error("injected predictor fault");
      case Mode::kNormal:
        break;
    }
    return 0.35;
  }

  void set_mode(Mode mode) { mode_ = mode; }
  void set_schedule(const std::vector<Delivery>* deliveries) {
    deliveries_ = deliveries;
  }

 private:
  Mode mode_ = Mode::kNormal;
  const std::vector<Delivery>* deliveries_ = nullptr;
};

std::uint64_t fold_decision(std::uint64_t hash, int step,
                            const ControlDecision& decision) {
  hash = fnv1a(hash, &step, sizeof(step));
  const int level = static_cast<int>(decision.fallback_level);
  hash = fnv1a(hash, &level, sizeof(level));
  const unsigned char exceeded = decision.deadline_exceeded ? 1 : 0;
  hash = fnv1a(hash, &exceeded, sizeof(exceeded));
  for (double a : decision.policy.allocation) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &a, sizeof(bits));
    hash = fnv1a(hash, &bits, sizeof(bits));
  }
  return hash;
}

// Synthetic telemetry window for one step: healthy baseline with thermal
// noise; on degraded steps a mid-window pulse 4-6 dB above baseline with
// its own jitter, so the detector extracts nonzero gradient/fluctuation
// features. Derived entirely from the step's split stream.
std::vector<double> make_window(const FaultCampaignConfig& config,
                                util::Rng stream, bool degraded) {
  std::vector<double> trace(kWindowSamples);
  const double pulse_db = 4.0 + 2.0 * stream.next_double();
  const std::size_t onset = trace.size() / 6;
  const std::size_t recovery = trace.size() - trace.size() / 6;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    double level = config.healthy_loss_db;
    if (degraded && i >= onset && i < recovery) level += pulse_db;
    trace[i] = level + 0.04 * (stream.next_double() - 0.5);
  }
  return trace;
}

// Precomputes every delivery of one contiguous slice [start, start + len).
// Schedules that shape the ladder (forced prologue, malformed metadata,
// clearing, budget sweep) run on the LOCAL step so every shard exercises
// them from a fresh controller; streams that shape the data (window
// waveform, sampled faults, corruption, stalls) run on the GLOBAL step so a
// sharded campaign samples the same fault universe as an unsharded one.
std::vector<Delivery> build_deliveries(const net::Topology& topology,
                                       const FaultCampaignConfig& config,
                                       const sim::FaultInjector& injector,
                                       const util::Rng& root, int start,
                                       int len) {
  std::vector<Delivery> deliveries;
  deliveries.reserve(static_cast<std::size_t>(len));
  for (int local = 0; local < len; ++local) {
    const int step = start + local;
    Delivery d;
    d.step = step;
    d.local = local;
    d.fiber = static_cast<net::FiberId>(
        step % topology.network.num_fibers());
    d.kind = injector.fault_at(step);

    // Healthy (no-degradation) windows keep the nullopt path exercised.
    const bool degraded = local < 8 || local % 9 != 8;
    d.trace = make_window(config, root.split(static_cast<std::uint64_t>(step)),
                          degraded);
    d.healthy_loss = config.healthy_loss_db;
    d.t0 = static_cast<optical::TimeSec>(step) * 300;

    // A slice of steps delivers malformed window metadata to exercise the
    // input guards: the controller must reject them with nullopt.
    if (local > 8 && local % 13 == 9) {
      d.healthy_loss = std::numeric_limits<double>::quiet_NaN();
      d.bad_metadata = true;
    } else if (local > 8 && local % 13 == 10) {
      d.t0 = -1;
      d.bad_metadata = true;
    }

    switch (d.kind) {
      case FaultKind::kTelemetryCorruption:
        injector.corrupt_trace(step, d.trace);
        break;
      case FaultKind::kWindowDrop:
        d.trace.clear();
        d.dropped = true;
        break;
      case FaultKind::kWindowDuplicate: {
        d.last_of_step = false;
        deliveries.push_back(d);
        Delivery dup = deliveries.back();
        dup.primary = false;
        dup.last_of_step = true;
        deliveries.push_back(std::move(dup));
        continue;
      }
      default:
        break;
    }
    deliveries.push_back(std::move(d));
  }
  return deliveries;
}

// Per-slice mutable driving state shared by the serial and pipelined paths.
struct SliceState {
  FaultCampaignReport report;
  int full_solve_pivots = 0;
};

// Arms the controller for one delivery's fault, exactly as the historical
// serial campaign did at the top of each step. Runs strictly before the
// delivery's solve (serially, or on the pipeline's commit thread).
void arm_delivery(Controller& controller, const FaultCampaignConfig& config,
                  const Delivery& d, const SliceState& state) {
  static const int budget_sixteenths[] = {8, 4, 2, 1, 12};
  controller.set_solver_budget(0);
  switch (d.kind) {
    case FaultKind::kDeadlineExpiry: {
      if (config.wall_clock_mode()) {
        // Wall-clock mode: the prologue's budget fractions scale the wall
        // budget instead of the pivot count, floored so the deadline is
        // armed (0 would mean unlimited) but still tight.
        double ms = config.expiry_wall_ms;
        if (d.local >= 3 && d.local <= 7) {
          const int frac = budget_sixteenths[d.local - 3];
          ms = config.expiry_wall_ms * static_cast<double>(frac) / 16.0;
        }
        controller.set_solver_budget(0, std::max(ms, 1e-3));
        break;
      }
      std::int64_t budget = sim::FaultInjector::kDeadlineExpiryPivots;
      if (d.local >= 3 && d.local <= 7 && state.full_solve_pivots > 0) {
        const int frac = budget_sixteenths[d.local - 3];
        budget = std::max<std::int64_t>(
            2, static_cast<std::int64_t>(state.full_solve_pivots) * frac / 16);
      }
      controller.set_solver_budget(budget);
      break;
    }
    case FaultKind::kSolverCollapse:
      if (config.wall_clock_mode()) {
        controller.set_solver_budget(0, std::max(config.collapse_wall_ms, 1e-3));
      } else {
        controller.arm_solver_collapse();
      }
      break;
    case FaultKind::kSolverThrow:
      controller.arm_solver_exception(1);
      break;
    default:
      break;
  }
}

// Folds one committed delivery's outcome into the slice report: guard
// accounting, validator re-check, digest folding, group-cut stress, and the
// full-solve pivot measurement. Identical for the serial and pipelined
// drives — that sameness is what makes their digests comparable.
void fold_outcome(const net::Topology& topology,
                  const net::TrafficMatrix& demands,
                  const sim::FaultInjector& injector,
                  const Controller& controller, const Delivery& d,
                  const std::optional<ControlDecision>& decision,
                  const optical::TelemetryQuality& quality,
                  SliceState& state) {
  FaultCampaignReport& report = state.report;
  if (d.bad_metadata || d.dropped) {
    if (d.dropped) {
      ++report.dropped_windows;
    } else {
      ++report.malformed_windows;
    }
    if (decision.has_value()) ++report.validator_failures;  // guard hole
    return;
  }
  if (!decision.has_value()) {
    ++report.no_decision_steps;
    return;
  }
  ++report.decisions;
  ++report.rung_count[static_cast<std::size_t>(decision->fallback_level)];
  if (decision->deadline_exceeded) ++report.deadline_exceeded;
  if (!quality.trusted()) ++report.untrusted_windows;
  te::TeProblem problem;
  problem.network = &topology.network;
  problem.flows = &topology.flows;
  problem.tunnels = &controller.tunnels();
  problem.demands = demands;
  if (!validate_policy(problem, decision->policy).valid) {
    ++report.validator_failures;
  }
  if (decision->phi <= te::kGuaranteeThreshold) {
    const double beta =
        std::min(controller.scheme().config().beta,
                 decision->believed_scenarios.covered_probability);
    if (te::evaluate_phi(problem, decision->believed_scenarios, beta,
                         decision->policy) > decision->phi + 1e-6) {
      ++report.phi_violations;
    }
  }
  report.decision_digest =
      fold_decision(report.decision_digest, d.step, *decision);
  if (injector.group_cut_at(d.step) >= 0) {
    // Stress the freshly installed policy under the correlated group cut:
    // every fiber of the SRLG group goes down at once. Losses fold into the
    // digest so the CI thread matrix also witnesses the group-cut
    // evaluation path bit-for-bit.
    const te::FailureScenario scenario(injector.group_cut_fibers(d.step),
                                       1.0);
    const auto losses = te::flow_losses(problem, decision->policy, scenario);
    ++report.group_cuts_evaluated;
    for (double loss : losses) {
      if (loss > 1e-4) ++report.group_cut_flow_outages;
      report.worst_group_cut_loss =
          std::max(report.worst_group_cut_loss, loss);
      std::uint64_t bits = 0;
      std::memcpy(&bits, &loss, sizeof(bits));
      report.decision_digest =
          fnv1a(report.decision_digest, &bits, sizeof(bits));
    }
  }
  if (d.kind == FaultKind::kNone &&
      decision->fallback_level == FallbackLevel::kFull) {
    state.full_solve_pivots = decision->solver_pivots;
  }
}

// Runs one contiguous slice [start, start + len) against a fresh
// Controller, serially or through an EpochPipeline, and returns its report
// (digest seeded from the FNV offset basis).
FaultCampaignReport run_campaign_slice(const net::Topology& topology,
                                       const std::vector<double>& static_probs,
                                       const net::TrafficMatrix& demands,
                                       const FaultCampaignConfig& config,
                                       int start, int len) {
  // Forced prologue (local steps 0-7, remapped onto this slice's global
  // step numbers): exercise every ladder rung deterministically. Local step
  // 0 collapses the solver before any decision exists, so the only rung
  // left is the static floor; local step 1 runs clean to establish a
  // last-good policy and measure a full solve's pivot count; local step 2
  // collapses again, landing on last-good; local steps 3-7 sweep partial
  // budgets to catch the solve mid-flight with a usable incumbent.
  sim::FaultPlan plan;
  plan.seed = config.seed;
  plan.rates = config.rates;
  plan.forced = {{start + 0, FaultKind::kSolverCollapse},
                 {start + 1, FaultKind::kNone},
                 {start + 2, FaultKind::kSolverCollapse},
                 {start + 3, FaultKind::kDeadlineExpiry},
                 {start + 4, FaultKind::kDeadlineExpiry},
                 {start + 5, FaultKind::kDeadlineExpiry},
                 {start + 6, FaultKind::kDeadlineExpiry},
                 {start + 7, FaultKind::kDeadlineExpiry}};
  const sim::FaultInjector injector(plan, config.group_cuts);
  const util::Rng root(config.seed ^ 0x5afe5afe5afeULL);

  const std::vector<Delivery> deliveries =
      build_deliveries(topology, config, injector, root, start, len);

  auto predictor = std::make_shared<FaultyPredictor>();
  ControllerConfig controller_config;
  controller_config.te = config.te;
  Controller controller(topology, static_probs, predictor, controller_config);

  SliceState state;
  state.report.steps = len;
  state.report.decision_digest = util::kFnvOffsetBasis;
  for (const Delivery& d : deliveries) {
    if (d.primary && d.kind != FaultKind::kNone) {
      ++state.report.faults_injected;
    }
    if (d.primary && injector.group_cut_at(d.step) >= 0) {
      ++state.report.group_cuts_injected;
    }
  }

  if (!config.through_pipeline) {
    // Historical serial drive: one on_telemetry per delivery, duplicate
    // re-deliveries deduplicated at ingest by their (fiber, t0) identity.
    for (const Delivery& d : deliveries) {
      if (!d.primary) {
        ++state.report.duplicate_windows;
      } else {
        predictor->set_mode(FaultyPredictor::mode_for(d.kind));
        arm_delivery(controller, config, d, state);
        try {
          const auto decision = controller.on_telemetry(
              d.fiber, d.trace, d.t0, d.healthy_loss, demands);
          fold_outcome(topology, demands, injector, controller, d, decision,
                       controller.last_telemetry_quality(), state);
        } catch (const std::exception&) {
          ++state.report.exceptions;
        }
      }
      if (d.last_of_step && d.local % 8 == 7) {
        controller.on_degradation_cleared();
      }
    }
    return state.report;
  }

  // Pipelined drive: overlapped prepare on the pool, ordered commits, the
  // same per-delivery arming and folding on the commit thread. Predictor
  // faults resolve from the epoch scope (epoch index == delivery index, by
  // submission order), so concurrent preparation never races a mode flag.
  predictor->set_schedule(&deliveries);
  EpochPipelineConfig pipe_config;
  pipe_config.max_in_flight = kPipelineMaxInFlight;
  pipe_config.cancel_superseded = config.pipeline_cancel_superseded;
  if (config.stall_ms > 0.0) {
    pipe_config.stage_watchdog_ms = config.stall_ms / 2.0;
  }
  EpochPipeline pipeline(controller, pipe_config);
  if (config.wall_clock_mode()) {
    // Soak mode exercises the retry/quarantine machinery: a refetch
    // redelivers the same window, so a transiently-bad window stays bad and
    // quarantines after the attempt budget. Digesting runs leave the
    // fetcher unset so pipelined semantics match serial exactly.
    pipeline.set_fetch_window(
        [&deliveries](std::size_t epoch, int) { return deliveries[epoch].trace; });
  }
  pipeline.set_before_solve([&](std::size_t epoch) {
    arm_delivery(controller, config, deliveries[epoch], state);
  });
  pipeline.set_after_commit([&](std::size_t epoch, const EpochResult& r) {
    const Delivery& d = deliveries[epoch];
    switch (r.status) {
      case EpochStatus::kDuplicate:
        ++state.report.duplicate_windows;
        break;
      case EpochStatus::kQuarantined:
        ++state.report.quarantined;
        break;
      case EpochStatus::kStageFault:
        // A fault the pipeline could not contain inside the ladder — the
        // moral equivalent of the serial drive's escaped exception.
        ++state.report.exceptions;
        break;
      default:
        fold_outcome(topology, demands, injector, controller, d, r.decision,
                     r.quality, state);
        break;
    }
    if (r.superseded) ++state.report.superseded;
    if (d.last_of_step && d.local % 8 == 7) {
      controller.on_degradation_cleared();
    }
  });
  for (const Delivery& d : deliveries) {
    EpochInput input;
    input.fiber = d.fiber;
    input.trace_db = d.trace;
    input.trace_start_sec = d.t0;
    input.healthy_loss_db = d.healthy_loss;
    input.demands = demands;
    if (d.kind == FaultKind::kStageStall) {
      input.stall_prepare_ms = injector.stall_ms_at(d.step, config.stall_ms);
    }
    pipeline.submit(std::move(input));
  }
  pipeline.drain();
  state.report.watchdog_trips +=
      static_cast<int>(pipeline.stats().watchdog_trips);
  return state.report;
}

// Accumulates a slice report into the campaign total (digest handled by the
// caller, which folds per-slice digests in shard order).
void merge_report(FaultCampaignReport& total, const FaultCampaignReport& s) {
  total.faults_injected += s.faults_injected;
  total.exceptions += s.exceptions;
  total.validator_failures += s.validator_failures;
  total.phi_violations += s.phi_violations;
  total.decisions += s.decisions;
  total.no_decision_steps += s.no_decision_steps;
  total.malformed_windows += s.malformed_windows;
  total.untrusted_windows += s.untrusted_windows;
  total.deadline_exceeded += s.deadline_exceeded;
  for (std::size_t r = 0; r < total.rung_count.size(); ++r) {
    total.rung_count[r] += s.rung_count[r];
  }
  total.group_cuts_injected += s.group_cuts_injected;
  total.group_cuts_evaluated += s.group_cuts_evaluated;
  total.group_cut_flow_outages += s.group_cut_flow_outages;
  total.worst_group_cut_loss =
      std::max(total.worst_group_cut_loss, s.worst_group_cut_loss);
  total.dropped_windows += s.dropped_windows;
  total.duplicate_windows += s.duplicate_windows;
  total.quarantined += s.quarantined;
  total.superseded += s.superseded;
  total.watchdog_trips += s.watchdog_trips;
}

}  // namespace

std::string FaultCampaignReport::summary() const {
  std::ostringstream os;
  os << "steps=" << steps << " faults=" << faults_injected
     << " exceptions=" << exceptions << " invalid=" << validator_failures
     << " phi_violations=" << phi_violations
     << " rungs=[" << rung_count[0] << ',' << rung_count[1] << ','
     << rung_count[2] << ',' << rung_count[3] << ']'
     << " untrusted=" << untrusted_windows
     << " malformed=" << malformed_windows;
  if (dropped_windows > 0 || duplicate_windows > 0) {
    os << " dropped=" << dropped_windows << " dup=" << duplicate_windows;
  }
  if (quarantined > 0) os << " quarantined=" << quarantined;
  if (superseded > 0) os << " superseded=" << superseded;
  if (group_cuts_injected > 0) {
    os << " group_cuts=" << group_cuts_injected << '/' << group_cuts_evaluated
       << " group_outages=" << group_cut_flow_outages;
  }
  os << " digest=" << decision_digest;
  return os.str();
}

FaultCampaignReport run_fault_campaign(const net::Topology& topology,
                                       const std::vector<double>& static_probs,
                                       const net::TrafficMatrix& demands,
                                       const FaultCampaignConfig& config) {
  const int shards =
      std::clamp(config.shards, 1, std::max(1, config.steps));
  if (shards == 1) {
    return run_campaign_slice(topology, static_probs, demands, config, 0,
                              config.steps);
  }

  // Contiguous slices, each against its own fresh controller, run
  // concurrently on the global pool. Slice results land in preassigned
  // elements and digests fold in shard order afterwards, so the combined
  // report is a pure function of (inputs, config) — bit-identical at any
  // thread count.
  std::vector<int> slice_start(static_cast<std::size_t>(shards), 0);
  std::vector<int> slice_len(static_cast<std::size_t>(shards), 0);
  const int base = config.steps / shards;
  const int extra = config.steps % shards;
  int cursor = 0;
  for (int s = 0; s < shards; ++s) {
    slice_start[static_cast<std::size_t>(s)] = cursor;
    slice_len[static_cast<std::size_t>(s)] = base + (s < extra ? 1 : 0);
    cursor += slice_len[static_cast<std::size_t>(s)];
  }

  std::vector<FaultCampaignReport> slices(static_cast<std::size_t>(shards));
  runtime::TaskGroup group;
  for (int s = 0; s < shards; ++s) {
    group.run([&, s] {
      slices[static_cast<std::size_t>(s)] = run_campaign_slice(
          topology, static_probs, demands, config,
          slice_start[static_cast<std::size_t>(s)],
          slice_len[static_cast<std::size_t>(s)]);
    });
  }
  group.wait();

  FaultCampaignReport total;
  total.steps = config.steps;
  total.decision_digest = util::kFnvOffsetBasis;
  for (const FaultCampaignReport& slice : slices) {
    merge_report(total, slice);
    total.decision_digest = fnv1a(total.decision_digest,
                                  &slice.decision_digest,
                                  sizeof(slice.decision_digest));
  }
  return total;
}

}  // namespace prete::core
