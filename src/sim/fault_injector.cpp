#include "sim/fault_injector.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace prete::sim {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kTelemetryCorruption:
      return "telemetry-corruption";
    case FaultKind::kPredictorNaN:
      return "predictor-nan";
    case FaultKind::kPredictorThrow:
      return "predictor-throw";
    case FaultKind::kDeadlineExpiry:
      return "deadline-expiry";
    case FaultKind::kSolverCollapse:
      return "solver-collapse";
    case FaultKind::kStageStall:
      return "stage-stall";
    case FaultKind::kWindowDrop:
      return "window-drop";
    case FaultKind::kWindowDuplicate:
      return "window-duplicate";
    case FaultKind::kSolverThrow:
      return "solver-throw";
  }
  return "unknown";
}

FaultInjector::FaultInjector(FaultPlan plan)
    : FaultInjector(std::move(plan), GroupCutPlan{}) {}

FaultInjector::FaultInjector(FaultPlan plan, GroupCutPlan group_cuts)
    : plan_(std::move(plan)), group_cuts_(std::move(group_cuts)) {
  if (plan_.rates.total() > 1.0 + 1e-12) {
    throw std::invalid_argument("fault rates must sum to <= 1");
  }
  if (!(group_cuts_.rate >= 0.0 && group_cuts_.rate <= 1.0)) {
    throw std::invalid_argument("group cut rate must be in [0, 1]");
  }
  for (const GroupCutPlan::Forced& f : group_cuts_.forced) {
    if (f.group < 0 || f.group >= group_cuts_.srlg.num_groups) {
      throw std::invalid_argument("forced group cut out of range");
    }
  }
  for (int g = 0; g < group_cuts_.srlg.num_groups; ++g) {
    if (!group_cuts_.srlg.singleton(g)) cuttable_groups_.push_back(g);
  }
}

FaultKind FaultInjector::fault_at(std::int64_t step) const {
  for (const FaultPlan::Forced& f : plan_.forced) {
    if (f.step == step) return f.kind;
  }
  util::Rng stream =
      util::Rng(plan_.seed).split(static_cast<std::uint64_t>(step));
  double u = stream.next_double();
  const FaultRates& r = plan_.rates;
  if ((u -= r.telemetry_corruption) < 0.0) {
    return FaultKind::kTelemetryCorruption;
  }
  if ((u -= r.predictor_nan) < 0.0) return FaultKind::kPredictorNaN;
  if ((u -= r.predictor_throw) < 0.0) return FaultKind::kPredictorThrow;
  if ((u -= r.deadline_expiry) < 0.0) return FaultKind::kDeadlineExpiry;
  if ((u -= r.solver_collapse) < 0.0) return FaultKind::kSolverCollapse;
  if ((u -= r.stage_stall) < 0.0) return FaultKind::kStageStall;
  if ((u -= r.window_drop) < 0.0) return FaultKind::kWindowDrop;
  if ((u -= r.window_duplicate) < 0.0) return FaultKind::kWindowDuplicate;
  if ((u -= r.solver_throw) < 0.0) return FaultKind::kSolverThrow;
  return FaultKind::kNone;
}

double FaultInjector::stall_ms_at(std::int64_t step, double max_ms) const {
  if (max_ms <= 0.0) return 0.0;
  // Its own stream family (xor'd constant), like corruption and group cuts,
  // so stall durations never perturb the other schedules' draws.
  util::Rng stream = util::Rng(plan_.seed ^ 0x57A11ULL)
                         .split(static_cast<std::uint64_t>(step));
  return max_ms * (0.5 + 0.5 * stream.next_double());
}

int FaultInjector::group_cut_at(std::int64_t step) const {
  if (!group_cuts_.enabled()) return -1;
  for (const GroupCutPlan::Forced& f : group_cuts_.forced) {
    if (f.step == step) return f.group;
  }
  if (group_cuts_.rate <= 0.0 || cuttable_groups_.empty()) return -1;
  // Group cuts draw from their own stream family (xor'd constant) so they
  // compose with fault_at without perturbing its samples.
  util::Rng stream = util::Rng(plan_.seed ^ 0x6C0DEULL)
                         .split(static_cast<std::uint64_t>(step));
  if (!stream.bernoulli(group_cuts_.rate)) return -1;
  return cuttable_groups_[static_cast<std::size_t>(
      stream.next_below(cuttable_groups_.size()))];
}

std::vector<net::FiberId> FaultInjector::group_cut_fibers(
    std::int64_t step) const {
  const int group = group_cut_at(step);
  if (group < 0) return {};
  // A sorted copy: srlg_from_groups keeps the caller's member order, and
  // group_probabilities multiplies in that order.
  std::vector<net::FiberId> fibers =
      group_cuts_.srlg.members[static_cast<std::size_t>(group)];
  std::sort(fibers.begin(), fibers.end());
  return fibers;
}

void FaultInjector::corrupt_trace(std::int64_t step,
                                  std::vector<double>& trace) const {
  if (trace.empty()) return;
  // A distinct stream from fault_at's (xor'd constant) so corruption shape
  // and fault sampling stay independent.
  util::Rng stream = util::Rng(plan_.seed ^ 0xC0FFEEULL)
                         .split(static_cast<std::uint64_t>(step));
  const std::size_t n = trace.size();
  const std::size_t start = static_cast<std::size_t>(stream.next_below(n));
  const std::size_t len =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   stream.next_below(n / 4 + 1)));
  const std::size_t end = std::min(n, start + len);
  switch (stream.next_below(4)) {
    case 0:  // NaN run (dropped samples)
      for (std::size_t i = start; i < end; ++i) {
        trace[i] = std::numeric_limits<double>::quiet_NaN();
      }
      break;
    case 1:  // infinite spike
      trace[start] = std::numeric_limits<double>::infinity();
      break;
    case 2: {  // stuck-at flatline from `anchor` to the end of the window
      // Clamp the anchor off the last sample so the flatline always
      // overwrites at least one reading (a corruption that corrupts nothing
      // would silently weaken the campaign).
      const std::size_t anchor = n >= 2 ? std::min(start, n - 2) : 0;
      for (std::size_t i = anchor + 1; i < n; ++i) trace[i] = trace[anchor];
      break;
    }
    default:  // negative (physically impossible) run
      for (std::size_t i = start; i < end; ++i) trace[i] = -5.0;
      break;
  }
}

}  // namespace prete::sim
