#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/controller.h"
#include "runtime/task_group.h"
#include "runtime/thread_pool.h"

namespace prete::core {

// One telemetry epoch handed to the pipeline: the raw window plus the
// demands the resulting decision should be solved against.
struct EpochInput {
  net::FiberId fiber = 0;
  std::vector<double> trace_db;
  optical::TimeSec trace_start_sec = 0;
  double healthy_loss_db = 0.0;
  net::TrafficMatrix demands;
  // Chaos seam: a stalled telemetry stage. The prepare stage sleeps this
  // long before sanitizing, which the wall-mode watchdog should catch.
  // Zero (the default) in every deterministic run.
  double stall_prepare_ms = 0.0;
};

// Terminal state of one epoch after the pipeline has committed it.
enum class EpochStatus {
  kDecided = 0,     // decide_prepared ran; `decision` is valid
  kNoSignal,        // window sanitized clean, no degradation found
  kMalformed,       // rejected by the input guards (bad fiber/trace/metadata)
  kDuplicate,       // exact re-delivery of the previous window; deduplicated
  kQuarantined,     // failed sanitization twice (or structurally); dropped
  kStageFault,      // a stage threw even after containment; no decision
};

const char* epoch_status_name(EpochStatus status);

// Per-epoch outcome, returned by drain() in epoch order.
struct EpochResult {
  std::size_t epoch = 0;
  EpochStatus status = EpochStatus::kNoSignal;
  // Mirrors ControlDecision::superseded: the solve was cancelled by a
  // fresher epoch and the incumbent harvested through the ladder.
  bool superseded = false;
  int ingest_attempts = 1;
  optical::RetryHint retry_hint = optical::RetryHint::kNone;
  optical::TelemetryQuality quality;
  std::optional<ControlDecision> decision;
};

// Aggregate pipeline health counters (monotone; read after drain()).
struct EpochPipelineStats {
  std::size_t submitted = 0;
  std::size_t decided = 0;
  std::size_t no_signal = 0;
  std::size_t malformed = 0;
  std::size_t duplicates = 0;
  std::size_t quarantined = 0;
  std::size_t stage_faults = 0;   // prepare/commit stages that threw
  std::size_t ingest_retries = 0;
  std::size_t watchdog_trips = 0;
  std::size_t cancel_requests = 0;  // supersede cancellations issued
  std::size_t superseded = 0;       // decisions harvested from a cancelled solve
  std::size_t max_in_flight_seen = 0;
};

// Ingest retry: a failing window gets at most this many sanitization
// attempts. Retries happen only when a fetch_window callback is installed
// and the failure is transient (optical::RetryHint::kTransient); a window
// still failing after the last attempt — or failing structurally on the
// first — is quarantined. With no callback the pipeline falls through to
// the serial on_telemetry semantics instead (untrusted-but-degraded windows
// still decide on the static probability). Retries do not back off.
inline constexpr int kMaxIngestAttempts = 2;

// Knobs of one EpochPipeline: admission depth, supersede cancellation and
// the stage watchdog.
struct EpochPipelineConfig {
  // Bounded admission: submit() blocks once this many epochs are in flight
  // (submitted but not yet committed). Must be >= 1. Depth 1 degenerates to
  // fully serial execution; the decision sequence is identical either way.
  int max_in_flight = 4;
  // When true, an epoch whose preparation finds a degradation signal
  // requests cancellation of the older solve still committing
  // (util::Deadline::request_cancel): the stale solve's incumbent is
  // harvested through the ladder and marked superseded. Cancellation is
  // wall-clock-timing-dependent, so this must stay false in any run whose
  // decision digest is asserted.
  bool cancel_superseded = false;
  // Per-stage watchdog: a prepare stage whose wall time exceeds this budget
  // counts a watchdog trip and is treated as a transient ingest fault
  // (retried under the same rules as a failed sanitization). 0 disables —
  // the deterministic default, since wall time is not reproducible.
  double stage_watchdog_ms = 0.0;
};

// Supervised, overlapped epoch pipeline over one core::Controller.
//
// Epoch t+1's ingest/sanitize/detect/predict/scenario-regeneration
// (Controller::prepare_telemetry — const, side-effect-free) runs on the
// thread pool while epoch t's solve (Controller::decide_prepared) is still
// running. Commits are strictly serialized in epoch order on whichever
// worker finished a prepare and won the commit race, so the controller's
// mutable state (tunnel table, warm-start caches, last-good ladder) sees
// exactly the serial call sequence: the ControlDecision stream — and any
// digest over it — is bit-identical to calling on_telemetry in a loop,
// at any pool size and any admission depth.
//
// Fault isolation: a throwing prepare degrades that epoch to a
// static-probability scenario (the controller's ladder then contains any
// repeat throw); a throwing commit records kStageFault for that epoch. In
// both cases the pipeline keeps running and later epochs are unaffected.
//
// Cancellation (cancel_superseded): each commit solves against a per-epoch
// util::Deadline the pipeline owns; when a fresher epoch's prepare lands
// with a signal, it request_cancel()s the older deadline. The stale solve
// returns its best incumbent, descends the ladder as needed, and is marked
// superseded — a superseded decision never refreshes the controller's
// last-good snapshot.
class EpochPipeline {
 public:
  // Re-fetches a window for a retry: (epoch, attempt) -> replacement trace.
  // attempt is 1-based (the original submission was attempt 0's trace).
  using FetchWindow =
      std::function<std::vector<double>(std::size_t epoch, int attempt)>;
  // Serial hooks, run on the commit thread in strict epoch order.
  using BeforeSolve = std::function<void(std::size_t epoch)>;
  using AfterCommit =
      std::function<void(std::size_t epoch, const EpochResult& result)>;

  explicit EpochPipeline(Controller& controller,
                         EpochPipelineConfig config = {},
                         runtime::ThreadPool& pool =
                             runtime::ThreadPool::global());
  // Drains outstanding epochs (results are discarded; call drain() to
  // observe them).
  ~EpochPipeline();

  EpochPipeline(const EpochPipeline&) = delete;
  EpochPipeline& operator=(const EpochPipeline&) = delete;

  // Admits one epoch, blocking while max_in_flight epochs are outstanding
  // (the caller thread helps execute pool work while it waits, so a
  // single-worker pool cannot deadlock the submitter). Returns the epoch
  // index. Must be called from one thread; epochs commit in submit order.
  std::size_t submit(EpochInput input);

  // Blocks until every submitted epoch has committed, then returns all
  // results accumulated since the last drain(), in epoch order.
  std::vector<EpochResult> drain();

  // Install the retry fetch callback / serial hooks. Not thread-safe
  // against in-flight epochs: set them before the first submit.
  void set_fetch_window(FetchWindow fetch) { fetch_ = std::move(fetch); }
  void set_before_solve(BeforeSolve hook) { before_solve_ = std::move(hook); }
  void set_after_commit(AfterCommit hook) { after_commit_ = std::move(hook); }

  EpochPipelineStats stats() const;
  const EpochPipelineConfig& config() const { return config_; }

  // The epoch whose prepare or commit stage is executing on the calling
  // thread, or -1 outside any stage. This is the seam epoch-scoped chaos
  // injections hook into (e.g. a predictor whose fault schedule is a pure
  // function of the epoch): a prepare stage runs wholly on one thread, so
  // thread-local scoping identifies the epoch without racing the overlap.
  static std::int64_t current_epoch();

 private:
  struct Slot {
    EpochInput input;
    PreparedEpoch prepared;
    EpochResult result;
    // The external deadline threaded through this epoch's solve; a
    // superseding epoch cancels it. Owned here so its address is stable
    // while another thread pokes it.
    util::Deadline deadline = util::Deadline::unlimited();
    bool ready = false;  // prepare finished; eligible to commit
  };

  void run_prepare(std::size_t epoch);
  // Commits every ready epoch starting at next_commit_; returns when the
  // next epoch in order is not ready (or another thread is committing).
  void commit_ready();
  void commit_one(std::size_t epoch, Slot& slot);
  // True when `quality` fails sanitization (unusable or untrusted window).
  static bool sanitization_failed(const optical::TelemetryQuality& quality);

  Controller& controller_;
  EpochPipelineConfig config_;
  runtime::ThreadPool& pool_;
  runtime::TaskGroup group_;
  FetchWindow fetch_;
  BeforeSolve before_solve_;
  AfterCommit after_commit_;

  mutable std::mutex mutex_;
  std::condition_variable admit_cv_;
  std::condition_variable drain_cv_;
  std::map<std::size_t, std::unique_ptr<Slot>> slots_;
  std::vector<EpochResult> results_;
  EpochPipelineStats stats_;
  std::size_t next_epoch_ = 0;   // next index submit() hands out
  std::size_t next_commit_ = 0;  // next epoch eligible to commit
  std::size_t in_flight_ = 0;    // submitted but not committed
  bool committing_ = false;      // a thread is inside commit_one
  // While committing_: the epoch being committed and its deadline, so a
  // superseding prepare can cancel it. Guarded by mutex_.
  std::size_t committing_epoch_ = 0;
  util::Deadline* committing_deadline_ = nullptr;
  // Dedup of exact re-deliveries: identity of the last admitted window.
  bool have_last_window_ = false;
  net::FiberId last_window_fiber_ = 0;
  optical::TimeSec last_window_t0_ = 0;
};

}  // namespace prete::core
