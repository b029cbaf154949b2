#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "te/minmax.h"
#include "te/scenario.h"
#include "te/schemes.h"
#include "te/tunnel_update.h"
#include "te/types.h"

namespace prete::te {

// The degradation scenario s (§4.3): which fibers currently show a
// degradation signal, and the predicted failure probability for each.
struct DegradationScenario {
  std::vector<bool> degraded;          // per fiber
  std::vector<double> predicted_prob;  // p_NN for degraded fibers (else unused)

  bool any() const;
  static DegradationScenario none(int num_fibers);
};

struct PreTeConfig {
  double beta = 0.99;
  // Predictable-cut fraction alpha from measurements (§6.1: 25%).
  double alpha = 0.25;
  TunnelUpdateConfig tunnel_update;
  MinMaxOptions solver;
  ScenarioOptions scenario_options;
  // Optional scenario-generator override. When set it replaces the default
  // generate_failure_scenarios(calibrated, scenario_options) call, receiving
  // the calibrated per-fiber probabilities — this is how SRLG-correlated
  // models and scenario reduction are wired through the controller and the
  // Monte Carlo study. Must be a pure function of the probabilities:
  // prepare_scenarios reuses the last set for an unchanged vector.
  ScenarioSource scenario_source;
};

// The PreTE TE scheme (§4): on each TE period (or degradation trigger),
//   1. calibrate per-fiber failure probabilities via Eqn. 1,
//   2. create new tunnels for flows crossing degraded fibers (Algorithm 1),
//   3. regenerate failure scenarios and solve the min-max-loss program
//      (Eqns 2-8) with Benders decomposition.
//
// compute_for_degradation mutates the tunnel set (adds dynamic tunnels) and
// returns the policy over the enlarged tunnel table.
//
// The scheme is stateful across calls: it keeps one te::BasisCache and one
// te::CutBank per LP problem shape (keyed by problem_shape_signature), so a
// long-lived scheme — core::Controller holds one for the controller
// lifetime — warm-starts each epoch's Benders solve from the previous epoch
// with the same topology and tunnel set and replays that epoch's
// still-valid optimality cuts onto the master. Tunnel-set changes produce a
// new signature and therefore a cold (but correct) solve. The shape table
// is bounded: past kMaxCachedShapes the least-recently-used shape is
// evicted (deterministic — access stamps are unique), and cache_stats()
// reports the eviction count so callers can see thrash.
class PreTeScheme {
 public:
  PreTeScheme(std::vector<double> static_fiber_probs, PreTeConfig config = {});

  // The policy to install is solver_result.policy.
  struct Outcome {
    ScenarioSet scenarios;           // the believed (calibrated) scenario set
    TunnelUpdateResult tunnel_update;
    MinMaxResult solver_result;
  };

  // The front half of an epoch: sanitized predictions, calibrated
  // per-fiber probabilities (Eqn. 1), and the regenerated believed scenario
  // set. Scenario generation depends only on the calibrated probabilities —
  // never on the tunnel table — and prepare_scenarios is thread-safe, so
  // preparation for epoch t+1 can run concurrently with epoch t's solve.
  struct Prepared {
    DegradationScenario believed;    // predictions sanitized and clamped
    std::vector<double> calibrated;  // per-fiber probabilities after Eqn. 1
    ScenarioSet scenarios;
  };

  // Builds the Prepared state for a degradation scenario. Thread-safe: the
  // one piece of scheme state it touches is the scenario memo, behind its
  // own mutex, so several threads may prepare at once provided
  // config().scenario_source (when set) is itself thread-safe. Sources must
  // be pure functions of the probability vector (every source in this repo
  // is), so a calibrated vector bitwise equal to the last one reuses the
  // last scenario set without changing any decision.
  Prepared prepare_scenarios(const net::Network& network,
                             const DegradationScenario& degradation) const;

  // The stateful back half: reactive tunnel updates, then the Benders solve
  // seeded from the post-update shape's basis cache and cut bank.
  // Equivalent to compute_for_degradation when `prepared` came from
  // prepare_scenarios on the same degradation — compute_for_degradation is
  // exactly the composition of the two halves, so pipelined and serial
  // epochs produce bit-identical outcomes. Throws std::invalid_argument,
  // before touching the tunnel table or any cache, when `demands` does not
  // hold one entry per flow or `prepared.believed.degraded` one per fiber.
  Outcome compute_with_prepared(const net::Network& network,
                                const std::vector<net::Flow>& flows,
                                net::TunnelSet& tunnels,
                                const net::TrafficMatrix& demands,
                                const Prepared& prepared,
                                util::Deadline* deadline = nullptr);

  // Computes the PreTE policy for a degradation scenario. `tunnels` must be
  // the mutable tunnel table for this epoch (dynamic tunnels are appended).
  //
  // Predicted probabilities in `degradation` are sanitized before use: a
  // non-finite prediction for a degraded fiber falls back to that fiber's
  // static probability, and every prediction is clamped to [0, 1], so a
  // misbehaving predictor degrades the solve's accuracy but never its
  // validity.
  //
  // `deadline` (may be null = unlimited) is threaded through to
  // solve_min_max_benders; on expiry the returned policy is the solver's
  // best incumbent and Outcome::solver_result.deadline_exceeded is set.
  Outcome compute_for_degradation(const net::Network& network,
                                  const std::vector<net::Flow>& flows,
                                  net::TunnelSet& tunnels,
                                  const net::TrafficMatrix& demands,
                                  const DegradationScenario& degradation,
                                  util::Deadline* deadline = nullptr);

  const PreTeConfig& config() const { return config_; }
  const std::vector<double>& static_probs() const { return static_probs_; }

  // Aggregate cache statistics over every shape seen so far. Hit/replay
  // counters are monotone across shape evictions: an evicted entry's totals
  // are folded into retired aggregates instead of vanishing, so a controller
  // watching the stats sees thrash (evictions climbing) rather than counters
  // that mysteriously reset.
  struct CacheStats {
    int shapes = 0;       // distinct problem shapes currently cached
    int hits = 0;         // LP solves that installed a carried basis
    int cold_starts = 0;  // LP solves that started cold
    int rejected = 0;     // cold starts whose carried basis was refused
    int evictions = 0;    // shape entries evicted by the LRU bound
    // Cut-bank aggregates (see te::CutBank), summed like hits.
    int cuts_replayed = 0;
    int cuts_invalidated = 0;
    int cuts_banked = 0;
  };
  CacheStats cache_stats() const;

 private:
  // Bounded so a scheme driven through many distinct tunnel sets (Monte
  // Carlo sweeps) cannot grow without limit. Overflow evicts the
  // least-recently-used shape — deterministic because every access gets a
  // unique monotone stamp — and costs only that shape's next solve a cold
  // start, instead of the historical clear-everything behavior that cold-
  // started every cached shape at once.
  static constexpr std::size_t kMaxCachedShapes = 16;

  // Warm-start state for one problem shape: the simplex basis cache and the
  // Benders cut bank, plus the LRU stamp.
  struct ShapeState {
    BasisCache basis;
    CutBank cut_bank;
    std::uint64_t last_used = 0;
  };
  ShapeState& shape_state(std::uint64_t signature);
  // Adds one shape's per-shape counters into `stats`: the one list the LRU
  // eviction and cache_stats() both sum.
  static void add_counters(CacheStats& stats, const ShapeState& state);

  std::vector<double> static_probs_;
  PreTeConfig config_;
  // Single-entry scenario memo: the last calibrated vector and its set.
  struct ScenarioMemo {
    std::mutex mutex;
    std::vector<double> calibrated;
    std::optional<ScenarioSet> scenarios;
  };
  mutable ScenarioMemo memo_;
  std::map<std::uint64_t, ShapeState> shape_states_;
  std::uint64_t access_counter_ = 0;
  int evictions_ = 0;
  // Counter totals carried over from evicted shape entries.
  CacheStats retired_;
};

}  // namespace prete::te
