#include "core/epoch_pipeline.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace prete::core {

namespace {

// Epoch scoping for stage code (see EpochPipeline::current_epoch). A stage
// runs wholly on one thread, so thread-local storage identifies the epoch
// without racing the overlap.
thread_local std::int64_t tl_current_epoch = -1;

struct EpochScope {
  std::int64_t saved;
  explicit EpochScope(std::int64_t epoch) : saved(tl_current_epoch) {
    tl_current_epoch = epoch;
  }
  ~EpochScope() { tl_current_epoch = saved; }
};

void sleep_ms(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

const char* epoch_status_name(EpochStatus status) {
  switch (status) {
    case EpochStatus::kDecided:
      return "decided";
    case EpochStatus::kNoSignal:
      return "no-signal";
    case EpochStatus::kMalformed:
      return "malformed";
    case EpochStatus::kDuplicate:
      return "duplicate";
    case EpochStatus::kQuarantined:
      return "quarantined";
    case EpochStatus::kStageFault:
      return "stage-fault";
  }
  return "unknown";
}

std::int64_t EpochPipeline::current_epoch() { return tl_current_epoch; }

EpochPipeline::EpochPipeline(Controller& controller,
                             EpochPipelineConfig config,
                             runtime::ThreadPool& pool)
    : controller_(controller),
      config_(config),
      pool_(pool),
      group_(pool) {
  config_.max_in_flight = std::max(1, config_.max_in_flight);
}

EpochPipeline::~EpochPipeline() {
  // Drain stragglers so no task outlives the pipeline; results are dropped.
  group_.wait();
}

bool EpochPipeline::sanitization_failed(
    const optical::TelemetryQuality& quality) {
  return quality.all_missing || (!quality.empty() && !quality.trusted());
}

std::size_t EpochPipeline::submit(EpochInput input) {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::size_t epoch = next_epoch_++;
  // Bounded admission: block while the pipeline is at depth, helping the
  // pool execute queued work so a single-worker pool cannot deadlock on a
  // submitter waiting for commits that only the pool can perform.
  while (in_flight_ >= static_cast<std::size_t>(config_.max_in_flight)) {
    lock.unlock();
    const bool ran = pool_.try_run_one();
    lock.lock();
    if (!ran && in_flight_ >= static_cast<std::size_t>(config_.max_in_flight)) {
      admit_cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
  }
  ++in_flight_;
  ++stats_.submitted;
  stats_.max_in_flight_seen = std::max(stats_.max_in_flight_seen, in_flight_);

  auto slot = std::make_unique<Slot>();
  slot->result.epoch = epoch;
  // Ingest dedup: a window with the same (fiber, start-time) identity as
  // the previous admission is an exact re-delivery (collector retransmit)
  // and is dropped here — before it can double-drive the controller — in
  // both the pipelined and any serial mirror of this path.
  const bool duplicate = have_last_window_ &&
                         input.fiber == last_window_fiber_ &&
                         input.trace_start_sec == last_window_t0_;
  have_last_window_ = true;
  last_window_fiber_ = input.fiber;
  last_window_t0_ = input.trace_start_sec;
  slot->input = std::move(input);
  Slot* raw = slot.get();
  slots_.emplace(epoch, std::move(slot));

  if (duplicate) {
    raw->result.status = EpochStatus::kDuplicate;
    raw->ready = true;
    lock.unlock();
    commit_ready();
    return epoch;
  }
  lock.unlock();
  group_.run([this, epoch] {
    run_prepare(epoch);
    commit_ready();
  });
  return epoch;
}

void EpochPipeline::run_prepare(std::size_t epoch) {
  Slot* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = slots_.find(epoch);
    if (it == slots_.end()) return;
    slot = it->second.get();
  }
  // Until `ready` is set, only this task touches the slot's payload.
  EpochScope scope(static_cast<std::int64_t>(epoch));
  const EpochInput& input = slot->input;
  EpochResult& result = slot->result;

  const bool watchdog_armed = config_.stage_watchdog_ms > 0.0;
  std::vector<double> refetched;
  std::size_t local_retries = 0;
  std::size_t local_trips = 0;
  for (int attempt = 0;; ++attempt) {
    result.ingest_attempts = attempt + 1;
    const std::vector<double>& trace =
        attempt == 0 ? input.trace_db : refetched;
    const auto started = std::chrono::steady_clock::now();
    // Injected stage stall (chaos only): inside the timed section so the
    // watchdog sees it, and only on the first attempt so a retry models the
    // transient fault clearing.
    if (attempt == 0) sleep_ms(input.stall_prepare_ms);
    bool stage_threw = false;
    try {
      slot->prepared = controller_.prepare_telemetry(
          input.fiber, trace, input.trace_start_sec, input.healthy_loss_db);
    } catch (const std::exception&) {
      stage_threw = true;
      slot->prepared = PreparedEpoch{};
    }
    const bool tripped =
        watchdog_armed && elapsed_ms(started) > config_.stage_watchdog_ms;
    if (tripped) ++local_trips;

    result.quality = slot->prepared.quality;
    const bool sanitize_bad =
        !stage_threw && !slot->prepared.malformed &&
        sanitization_failed(slot->prepared.quality);
    result.retry_hint = stage_threw || tripped
                            ? optical::RetryHint::kTransient
                            : slot->prepared.quality.retry_hint();

    if (!stage_threw && !tripped && !sanitize_bad) {
      result.status = slot->prepared.malformed ? EpochStatus::kMalformed
                      : slot->prepared.has_signal
                          ? EpochStatus::kDecided  // provisional; commit seals
                          : EpochStatus::kNoSignal;
      break;
    }

    // The stage failed this attempt. Retry only when a fetcher exists, the
    // failure is transient, and the attempt budget allows it; a structural
    // verdict is never worth a refetch (the poison would come back).
    const bool retryable = fetch_ &&
                           result.retry_hint == optical::RetryHint::kTransient &&
                           attempt + 1 < kMaxIngestAttempts;
    if (retryable) {
      ++local_retries;
      refetched = fetch_(epoch, attempt + 1);
      continue;
    }

    if (stage_threw) {
      // Fault isolation: a throwing prepare degrades this epoch, never the
      // pipeline. With a sane fiber we fall back to a static-probability
      // scenario — the commit's ladder then contains any repeat throw; with
      // a nonsense fiber there is nothing safe to react to.
      const auto num_fibers =
          static_cast<net::FiberId>(controller_.static_probs().size());
      if (input.fiber >= 0 && input.fiber < num_fibers) {
        slot->prepared.malformed = false;
        slot->prepared.has_signal = true;
        slot->prepared.scenario = te::DegradationScenario::none(num_fibers);
        slot->prepared.scenario.degraded[static_cast<std::size_t>(
            input.fiber)] = true;
        slot->prepared.scenario.predicted_prob[static_cast<std::size_t>(
            input.fiber)] =
            controller_.static_probs()[static_cast<std::size_t>(input.fiber)];
        slot->prepared.prepared.reset();
        result.status = EpochStatus::kDecided;
      } else {
        result.status = EpochStatus::kStageFault;
      }
      break;
    }
    if (fetch_ && sanitize_bad) {
      // Failed sanitization with the retry budget spent (or a structural
      // verdict): quarantine. The epoch is dropped rather than allowed to
      // drive a decision off a window known to be poisoned.
      slot->prepared.has_signal = false;
      result.status = EpochStatus::kQuarantined;
      break;
    }
    // No fetcher (or only a watchdog trip): proceed with what we have —
    // exactly the serial on_telemetry semantics, where untrusted-but-
    // degraded windows still decide on the static probability.
    result.status = slot->prepared.malformed ? EpochStatus::kMalformed
                    : slot->prepared.has_signal ? EpochStatus::kDecided
                                                : EpochStatus::kNoSignal;
    break;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  stats_.ingest_retries += local_retries;
  stats_.watchdog_trips += local_trips;
  if (result.status == EpochStatus::kDecided && config_.cancel_superseded &&
      committing_ && committing_epoch_ < epoch &&
      committing_deadline_ != nullptr) {
    // A fresher epoch is ready while an older solve is still running:
    // cancel the stale solve, harvesting its incumbent through the ladder.
    committing_deadline_->request_cancel();
    ++stats_.cancel_requests;
  }
  slot->ready = true;
}

void EpochPipeline::commit_ready() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (committing_) return;  // another thread owns the commit sequence
    auto it = slots_.find(next_commit_);
    if (it == slots_.end() || !it->second->ready) return;
    std::unique_ptr<Slot> slot = std::move(it->second);
    slots_.erase(it);
    const std::size_t epoch = slot->result.epoch;
    committing_ = true;
    committing_epoch_ = epoch;
    committing_deadline_ = &slot->deadline;
    lock.unlock();

    commit_one(epoch, *slot);

    lock.lock();
    committing_ = false;
    committing_deadline_ = nullptr;
    ++next_commit_;
    --in_flight_;
    switch (slot->result.status) {
      case EpochStatus::kDecided:
        ++stats_.decided;
        break;
      case EpochStatus::kNoSignal:
        ++stats_.no_signal;
        break;
      case EpochStatus::kMalformed:
        ++stats_.malformed;
        break;
      case EpochStatus::kDuplicate:
        ++stats_.duplicates;
        break;
      case EpochStatus::kQuarantined:
        ++stats_.quarantined;
        break;
      case EpochStatus::kStageFault:
        ++stats_.stage_faults;
        break;
    }
    if (slot->result.superseded) ++stats_.superseded;
    results_.push_back(std::move(slot->result));
    admit_cv_.notify_all();
    drain_cv_.notify_all();
  }
}

void EpochPipeline::commit_one(std::size_t epoch, Slot& slot) {
  EpochScope scope(static_cast<std::int64_t>(epoch));
  EpochResult& result = slot.result;
  // Hooks run for every epoch — decision or not — in strict epoch order on
  // the commit thread, so harnesses can serialize per-epoch controller
  // mutations (budgets, clearing schedules) against the overlap.
  try {
    if (before_solve_) before_solve_(epoch);
    if (result.status == EpochStatus::kDecided) {
      ControlDecision decision = controller_.decide_prepared(
          slot.prepared, slot.input.demands, &slot.deadline);
      result.superseded = decision.superseded;
      result.decision = std::move(decision);
    }
  } catch (const std::exception&) {
    // A throwing commit (hook or an infrastructure failure below the
    // ladder) is contained to this epoch.
    result.status = EpochStatus::kStageFault;
    result.decision.reset();
  }
  if (after_commit_) {
    try {
      after_commit_(epoch, result);
    } catch (const std::exception&) {
      // A throwing observer must not poison the pipeline; the epoch's own
      // outcome (already recorded) stands.
    }
  }
}

std::vector<EpochResult> EpochPipeline::drain() {
  // Waiting on the TaskGroup (which helps execute pool work) covers every
  // prepare task; commits happen inside those tasks or synchronously in
  // submit, so afterwards nothing is in flight — except when a straggler is
  // between its group bookkeeping and the commit, which the cv covers.
  group_.wait();
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [&] { return in_flight_ == 0; });
  std::vector<EpochResult> out = std::move(results_);
  results_.clear();
  return out;
}

EpochPipelineStats EpochPipeline::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace prete::core
