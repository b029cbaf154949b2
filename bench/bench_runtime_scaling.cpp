// Runtime scaling: wall-clock for the 4000-epoch Monte Carlo study (the
// MonteCarloConfig default) at 1 thread vs the configured pool size, with a
// bit-identity check between the two runs. This is the determinism +
// speedup demonstration for the parallel runtime; the per-phase timings
// feed the BENCH_*.json trajectory. A TE solve runs on its calling thread,
// so the solve-chain phases (benders_master, basis_carry, cut_bank) have no
// pool work: their second leg repeats the first for the bit-identity check,
// and a ratio near 1.0x between the legs is noise, not scaling.
//
// Usage: bench_runtime_scaling [--threads=N]   (default: PRETE_THREADS or
// hardware concurrency for the parallel run).
#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <thread>

#include "core/epoch_pipeline.h"
#include "core/fault_campaign.h"
#include "lp/simplex.h"
#include "net/tunnels.h"
#include "sim/monte_carlo.h"
#include "te/lp_common.h"
#include "te/minmax.h"
#include "te/schemes.h"
#include "workload/continental.h"

using namespace prete;

namespace {

sim::MonteCarloConfig mc_config(int epochs) {
  sim::MonteCarloConfig c;
  c.epochs = epochs;
  c.beta = 0.99;
  c.planning_scenarios.max_simultaneous_failures = 1;
  c.planning_scenarios.max_scenarios = 40;
  return c;
}

// Benders master phase: repeated solves on a B4 instance with a two-failure
// scenario set, so the master pass (cut evaluation and the per-flow drop
// ordering) weighs more than in a one-failure solve. Serial at any pool
// size: the legs differ only by noise.
struct MasterSample {
  double phi = 0;
  double lower_bound = 0;
  int iterations = 0;
  bool operator==(const MasterSample& o) const {
    return phi == o.phi && lower_bound == o.lower_bound &&
           iterations == o.iterations;
  }
};

MasterSample run_master_phase(const bench::Context& ctx,
                              const net::TunnelSet& tunnels,
                              const net::TrafficMatrix& demands, int repeats) {
  te::TeProblem problem;
  problem.network = &ctx.topo.network;
  problem.flows = &ctx.topo.flows;
  problem.tunnels = &tunnels;
  problem.demands = demands;
  te::ScenarioOptions so;
  so.max_simultaneous_failures = 2;
  so.max_scenarios = 200;
  const auto scenarios = te::generate_failure_scenarios(ctx.stats.cut_prob, so);
  te::MinMaxOptions options;
  options.beta = std::min(0.99, scenarios.covered_probability);
  MasterSample sample;
  for (int r = 0; r < repeats; ++r) {
    const auto result = te::solve_min_max_benders(problem, scenarios, options);
    sample.phi = result.phi;
    sample.lower_bound = result.lower_bound;
    sample.iterations += result.iterations;
  }
  return sample;
}

// Telemetry phase: a plant-wide event log plus per-fiber loss traces, the
// two PlantSimulator paths sharded over the pool.
struct TelemetrySample {
  std::size_t cuts = 0;
  std::size_t degradations = 0;
  double trace_checksum = 0;
  bool operator==(const TelemetrySample& o) const {
    return cuts == o.cuts && degradations == o.degradations &&
           trace_checksum == o.trace_checksum;
  }
};

TelemetrySample run_telemetry_phase(const optical::PlantSimulator& plant,
                                    double horizon_sec) {
  util::Rng rng(7);
  const auto log =
      plant.simulate(static_cast<optical::TimeSec>(horizon_sec), rng);
  const auto traces = plant.loss_traces(log, 0, 3600, rng);
  TelemetrySample sample;
  sample.cuts = log.cuts.size();
  sample.degradations = log.degradations.size();
  for (const auto& trace : traces) {
    for (double v : trace) {
      if (!std::isnan(v)) sample.trace_checksum += v;
    }
  }
  return sample;
}

// One benders_master-style subproblem LP: allocation variables + Phi, the
// capacity rows, then the first 4 + e scenarios' Phi-rows for every flow —
// related but distinct LPs, like successive Benders subproblem rounds.
// Shared by the lp_kernel and lu_anchor phases.
lp::Model build_subproblem_lp(const te::TeProblem& problem,
                              const net::TunnelSet& tunnels,
                              const te::ScenarioSet& scenarios, int e) {
  const auto& Q = scenarios.scenarios;
  lp::Model model(lp::Sense::kMinimize);
  const std::vector<int> alloc = te::add_allocation_variables(model, problem);
  const int phi = model.add_variable(0.0, 1.0, 1.0);
  te::add_capacity_rows(model, problem, alloc);
  const std::size_t slice = std::min(Q.size(), static_cast<std::size_t>(4 + e));
  for (const net::Flow& flow : *problem.flows) {
    const double d = std::max(problem.demand(flow.id), 1e-9);
    for (std::size_t q = 0; q < slice; ++q) {
      std::vector<lp::Coefficient> coefs;
      for (net::TunnelId t : tunnels.tunnels_for_flow(flow.id)) {
        if (tunnels.alive(*problem.network, t, Q[q].failed())) {
          coefs.push_back({alloc[static_cast<std::size_t>(t)], 1.0 / d});
        }
      }
      coefs.push_back({phi, 1.0});
      model.add_row(std::move(coefs), lp::RowType::kGreaterEqual, 1.0);
    }
  }
  return model;
}

// LP kernel phase: the benders_master-style instance sequence solved cold
// at the kernel's production defaults (auto pricing window — on this
// row-dominated workload it resolves to full pricing). Its pivot,
// reinversion and eta-peak counts and objectives feed the bit-identity
// gate; the wall-clock is reported. Timing excludes model construction
// (built once, solved per repeat).
struct KernelSample {
  double seconds = 0;
  int pivots = 0;
  int reinversions = 0;
  int eta_peak = 0;  // longest eta file across the sequence
  double objective_checksum = 0.0;
  // Wall-clock stays out of the bit-identity comparison.
  bool operator==(const KernelSample& o) const {
    return pivots == o.pivots && reinversions == o.reinversions &&
           eta_peak == o.eta_peak && objective_checksum == o.objective_checksum;
  }
};

KernelSample run_kernel_phase(const bench::Context& ctx,
                              const net::TunnelSet& tunnels,
                              const net::TrafficMatrix& demands, int instances,
                              int repeats) {
  te::TeProblem problem;
  problem.network = &ctx.topo.network;
  problem.flows = &ctx.topo.flows;
  problem.tunnels = &tunnels;
  problem.demands = demands;
  te::ScenarioOptions so;
  so.max_simultaneous_failures = 2;
  so.max_scenarios = 200;
  const auto scenarios = te::generate_failure_scenarios(ctx.stats.cut_prob, so);

  std::vector<lp::Model> models;
  models.reserve(static_cast<std::size_t>(instances));
  for (int e = 0; e < instances; ++e) {
    models.push_back(build_subproblem_lp(problem, tunnels, scenarios, e));
  }

  KernelSample sample;
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < repeats; ++r) {
    for (const lp::Model& model : models) {
      const lp::Solution s = lp::SimplexSolver().solve(model);
      if (r == 0) {
        sample.objective_checksum += s.objective;
        sample.pivots += s.iterations;
        sample.reinversions += s.reinversions;
        sample.eta_peak = std::max(sample.eta_peak, s.eta_peak);
      }
    }
  }
  sample.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() /
      repeats;
  return sample;
}

// LU-anchor phase: the kernel's two anchor representations head to head
// on a thousand-row continental master (the regime the sparse Markowitz LU
// exists for). Two masters over the same rows: the base-demand master, whose
// optimum is exactly 0 — there both anchors must converge to the bit — and a
// demand-pressured master with a nonzero optimum, which carries the timing
// comparison. At a nonzero vertex the anchors may legitimately differ in the
// last ulps (ftran/btran round differently, so pivot paths can split on
// near-ties), so the pressured leg gates on relative agreement within solver
// tolerance, not bitwise. The wall-clock gate is the tentpole claim: at
// m >= 1000 the sparse LU anchor must beat the explicit inverse end to end.
struct LuAnchorSample {
  int rows = 0;
  double explicit_seconds = 0;
  double lu_seconds = 0;
  int explicit_pivots = 0;
  int lu_pivots = 0;
  int explicit_reinversions = 0;
  int lu_reinversions = 0;  // LU-anchored reinversions inside the LU solves
  bool all_optimal = true;
  bool base_objectives_bitwise_equal = true;
  double pressured_objective_delta = 0.0;  // relative, explicit vs LU
  double objective_checksum = 0.0;
  // Wall-clock stays out of the bit-identity comparison.
  bool operator==(const LuAnchorSample& o) const {
    return rows == o.rows && explicit_pivots == o.explicit_pivots &&
           lu_pivots == o.lu_pivots &&
           explicit_reinversions == o.explicit_reinversions &&
           lu_reinversions == o.lu_reinversions &&
           all_optimal == o.all_optimal &&
           base_objectives_bitwise_equal == o.base_objectives_bitwise_equal &&
           pressured_objective_delta == o.pressured_objective_delta &&
           objective_checksum == o.objective_checksum;
  }
};

LuAnchorSample run_lu_anchor_phase(const workload::ContinentalWorkload& w,
                                   const workload::ContinentalConfig& config,
                                   const net::TunnelSet& tunnels, int repeats) {
  te::TeProblem problem;
  problem.network = &w.topology.network;
  problem.flows = &w.topology.flows;
  problem.tunnels = &tunnels;
  // A few hundred reduced scenarios give plenty of Phi-rows; the full 1500
  // would only slow model construction.
  te::ReductionOptions reduction = config.reduction;
  reduction.max_scenarios = 400;
  const te::ScenarioSource source = workload::make_scenario_source(
      w.failure_model, config.scenario_gen, reduction);
  const te::ScenarioSet set = source(w.cut_probs);

  // Widen the scenario slice until the master clears a thousand rows.
  problem.demands = w.matrices.front();
  lp::Model base = build_subproblem_lp(problem, tunnels, set, 0);
  for (int e = 1; base.num_rows() < 1000 && e < 256; ++e) {
    base = build_subproblem_lp(problem, tunnels, set, e);
  }
  LuAnchorSample sample;
  sample.rows = base.num_rows();
  // Same rows, demands scaled until capacity pressure makes the optimum a
  // nonzero interior vertex (at the base matrix the plant fully protects the
  // sliced scenarios and Phi = 0 exactly).
  problem.demands = net::scale_traffic(w.matrices.front(), 30.0);
  lp::Model pressured = build_subproblem_lp(problem, tunnels, set, 0);
  for (int e = 1; pressured.num_rows() < 1000 && e < 256; ++e) {
    pressured = build_subproblem_lp(problem, tunnels, set, e);
  }

  lp::SimplexOptions explicit_opts;
  explicit_opts.lu_threshold = INT_MAX;  // pin the explicit-inverse anchor
  lp::SimplexOptions lu_opts;
  lu_opts.lu_threshold = 1;  // pin the sparse LU anchor

  // The legs alternate per repeat (explicit, LU, explicit, LU, ...), so
  // neither always runs first on a cold cache or a drifting clock.
  using clock = std::chrono::steady_clock;
  const auto timed_solve = [&](const lp::SimplexOptions& options, double& seconds) {
    const auto start = clock::now();
    lp::Solution s = lp::SimplexSolver(options).solve(pressured);
    seconds += std::chrono::duration<double>(clock::now() - start).count() / repeats;
    return s;
  };
  for (int r = 0; r < repeats; ++r) {
    const lp::Solution ex = timed_solve(explicit_opts, sample.explicit_seconds);
    const lp::Solution lu = timed_solve(lu_opts, sample.lu_seconds);
    if (r > 0) continue;
    sample.explicit_pivots = ex.iterations;
    sample.explicit_reinversions = ex.reinversions;
    sample.lu_pivots = lu.iterations;
    sample.lu_reinversions = lu.lu_reinversions;
    sample.all_optimal = ex.status == lp::SolveStatus::kOptimal &&
                         lu.status == lp::SolveStatus::kOptimal;
    sample.pressured_objective_delta =
        std::abs(lu.objective - ex.objective) / std::max(1.0, std::abs(ex.objective));
    sample.objective_checksum += lu.objective;
  }

  const lp::Solution base_explicit = lp::SimplexSolver(explicit_opts).solve(base);
  const lp::Solution base_lu = lp::SimplexSolver(lu_opts).solve(base);
  sample.all_optimal = sample.all_optimal &&
                       base_explicit.status == lp::SolveStatus::kOptimal &&
                       base_lu.status == lp::SolveStatus::kOptimal;
  sample.base_objectives_bitwise_equal =
      base_explicit.objective == base_lu.objective;
  sample.objective_checksum += base_lu.objective;
  return sample;
}

// Direct-solver phase: the exact MIP (branch-and-bound over every delta)
// on a triangle instance small enough for solve_min_max_direct. The node
// waves evaluate on the pool, so this is the thread-scaling witness for the
// parallel branch-and-bound — and every bit of the result (phi, pivots,
// nodes) must survive the pool resize.
struct BnbSample {
  double phi = 0.0;
  int pivots = 0;
  int nodes = 0;
  bool operator==(const BnbSample& o) const {
    return phi == o.phi && pivots == o.pivots && nodes == o.nodes;
  }
};

BnbSample run_bnb_phase(int repeats) {
  net::Topology topo = net::make_triangle();
  net::TunnelSet tunnels{2};
  tunnels.add_tunnel(0, {0});
  tunnels.add_tunnel(0, {2, 5});
  tunnels.add_tunnel(1, {2});
  tunnels.add_tunnel(1, {0, 4});
  te::TeProblem problem;
  problem.network = &topo.network;
  problem.flows = &topo.flows;
  problem.tunnels = &tunnels;
  problem.demands = {10.0, 10.0};
  const auto scenarios = te::generate_failure_scenarios({0.02, 0.03, 0.01});
  te::MinMaxOptions options;
  options.beta = 0.95;
  BnbSample sample;
  for (int r = 0; r < repeats; ++r) {
    const auto result = te::solve_min_max_direct(problem, scenarios, options);
    sample.phi = result.phi;
    sample.pivots += result.simplex_pivots;
    sample.nodes += result.bb_nodes;
  }
  return sample;
}

// Basis-carry phase: the same epoch sequence (fixed topology and tunnel set,
// as across TE periods) solved twice — once stateless (every epoch cold) and
// once through a te::BasisCache. Each epoch the demands drift 2% and one
// fiber's cut probability climbs past its neighbours', so the
// probability-sorted scenario set reorders (as in the cut_bank phase): the
// cache's pattern-keyed recipes must still line up. After the first epoch
// the cached run must spend fewer pivots; the seeds the cache offered,
// installed and rejected are reported alongside. A chain of serial simplex
// solves with no pool work: the legs differ only by noise.
struct CarrySample {
  int cold_first_epoch_pivots = 0;
  int cold_tail_pivots = 0;     // epochs after the first, stateless
  int carried_tail_pivots = 0;  // epochs after the first, cache carried
  int seeds_installed = 0;      // BasisCache::hits
  int seeds_rejected = 0;       // BasisCache::rejected
  int reordered_epochs = 0;  // epochs whose scenario order differs from the
                             // previous epoch's
  double max_phi_delta = 0.0;  // |phi_cold - phi_carried| over the sequence
  int seeds_offered() const { return seeds_installed + seeds_rejected; }
  bool operator==(const CarrySample& o) const {
    return cold_first_epoch_pivots == o.cold_first_epoch_pivots &&
           cold_tail_pivots == o.cold_tail_pivots &&
           carried_tail_pivots == o.carried_tail_pivots &&
           seeds_installed == o.seeds_installed &&
           seeds_rejected == o.seeds_rejected &&
           reordered_epochs == o.reordered_epochs &&
           max_phi_delta == o.max_phi_delta;
  }
};

CarrySample run_carry_phase(const bench::Context& ctx,
                            const net::TunnelSet& tunnels,
                            const net::TrafficMatrix& demands, int epochs) {
  te::TeProblem problem;
  problem.network = &ctx.topo.network;
  problem.flows = &ctx.topo.flows;
  problem.tunnels = &tunnels;
  te::ScenarioOptions so;
  so.max_simultaneous_failures = 2;
  so.max_scenarios = 200;
  // The drifting fiber starts as the least likely to be cut, so every step
  // of its climb overtakes other fibers' single-cut scenarios.
  const std::vector<double>& base = ctx.stats.cut_prob;
  const auto drifting = static_cast<std::size_t>(
      std::min_element(base.begin(), base.end()) - base.begin());

  CarrySample sample;
  te::BasisCache cache;
  std::vector<std::uint64_t> previous_order;
  for (int e = 0; e < epochs; ++e) {
    std::vector<double> probs = base;
    probs[drifting] *= 1.0 + 2.0 * e;
    const auto scenarios = te::generate_failure_scenarios(probs, so);
    std::vector<std::uint64_t> order;
    for (const te::FailureScenario& q : scenarios.scenarios) {
      order.push_back(q.signature());
    }
    if (e > 0 && order != previous_order) ++sample.reordered_epochs;
    previous_order = std::move(order);
    te::MinMaxOptions options;
    options.beta = std::min(0.99, scenarios.covered_probability);
    // Demand drift leaves the problem shape (and so the basis-cache
    // signature) unchanged — exactly the regime the cache targets.
    problem.demands = net::scale_traffic(demands, 1.0 + 0.02 * e);
    const te::MinMaxResult cold =
        te::solve_min_max_benders(problem, scenarios, options);
    const te::MinMaxResult carried =
        te::solve_min_max_benders(problem, scenarios, options, &cache);
    if (e == 0) {
      sample.cold_first_epoch_pivots = cold.simplex_pivots;
    } else {
      sample.cold_tail_pivots += cold.simplex_pivots;
      sample.carried_tail_pivots += carried.simplex_pivots;
    }
    sample.max_phi_delta =
        std::max(sample.max_phi_delta, std::abs(cold.phi - carried.phi));
  }
  sample.seeds_installed = cache.hits;
  sample.seeds_rejected = cache.rejected;
  return sample;
}

// Cross-epoch cut bank phase: steady-state TE epochs on the continental
// workload. Demands are fixed (so replayed cuts keep their weights unscaled)
// and scaled until the plant is under real capacity pressure — at the base
// matrix the Benders solve converges in one iteration with phi = 0 and a
// warm start has nothing to save. Each epoch one fiber's predicted cut
// probability drifts, so the regenerated reduced scenario set reorders —
// exactly what the bank's signature keying must absorb. Every epoch is
// solved twice: cold (no state) and warm (a carried te::CutBank); the gate
// requires the warm steady-state tail to cut Benders iterations AND total
// pivots while agreeing with every cold objective to the bit. No pool work
// either: the legs differ only by noise.
struct CutBankSample {
  int cold_tail_iterations = 0;
  int warm_tail_iterations = 0;
  int cold_tail_pivots = 0;
  int warm_tail_pivots = 0;
  int cuts_replayed = 0;
  int cuts_invalidated = 0;
  int cuts_banked = 0;
  bool all_converged = true;
  bool objectives_bitwise_equal = true;
  double phi_checksum = 0.0;
  bool operator==(const CutBankSample& o) const {
    return cold_tail_iterations == o.cold_tail_iterations &&
           warm_tail_iterations == o.warm_tail_iterations &&
           cold_tail_pivots == o.cold_tail_pivots &&
           warm_tail_pivots == o.warm_tail_pivots &&
           cuts_replayed == o.cuts_replayed &&
           cuts_invalidated == o.cuts_invalidated &&
           cuts_banked == o.cuts_banked && all_converged == o.all_converged &&
           objectives_bitwise_equal == o.objectives_bitwise_equal &&
           phi_checksum == o.phi_checksum;
  }
};

CutBankSample run_cut_bank_phase(const workload::ContinentalWorkload& w,
                                 const workload::ContinentalConfig& config,
                                 const net::TunnelSet& tunnels,
                                 int steady_epochs) {
  te::TeProblem problem;
  problem.network = &w.topology.network;
  problem.flows = &w.topology.flows;
  problem.tunnels = &tunnels;
  problem.demands = net::scale_traffic(w.matrices.front(), 8.0);
  // The full 1500-scenario reduction would make each pressured cold solve
  // several times more expensive without changing the story; the trimmed
  // set keeps the phase honest (hundreds of correlated scenarios, nonzero
  // residual) and the bench fast.
  te::ReductionOptions reduction = config.reduction;
  reduction.max_scenarios = 600;
  const te::ScenarioSource source = workload::make_scenario_source(
      w.failure_model, config.scenario_gen, reduction);

  CutBankSample sample;
  te::CutBank bank;
  for (int e = 0; e <= steady_epochs; ++e) {
    std::vector<double> probs = w.cut_probs;
    probs[7] *= 1.0 + 0.25 * e;  // one fiber's prediction drifts per epoch
    const te::ScenarioSet set = source(probs);
    te::MinMaxOptions options;
    options.beta = std::min(0.99, set.covered_probability);
    const te::MinMaxResult cold =
        te::solve_min_max_benders(problem, set, options);
    const te::MinMaxResult warm =
        te::solve_min_max_benders(problem, set, options, nullptr, &bank);
    sample.all_converged =
        sample.all_converged && cold.converged && warm.converged;
    sample.objectives_bitwise_equal =
        sample.objectives_bitwise_equal && warm.phi == cold.phi;
    sample.phi_checksum += cold.phi;
    if (e == 0) continue;  // warm-up epoch: fills the bank, replays nothing
    sample.cold_tail_iterations += cold.iterations;
    sample.warm_tail_iterations += warm.iterations;
    sample.cold_tail_pivots += cold.simplex_pivots;
    sample.warm_tail_pivots += warm.simplex_pivots;
    sample.cuts_replayed += warm.cuts_replayed;
    sample.cuts_invalidated += warm.cuts_invalidated;
    sample.cuts_banked += warm.cuts_banked;
  }
  return sample;
}

// Fault-campaign phase: the deterministic robustness harness end to end —
// the controller driven through injected telemetry corruption, predictor
// faults, and starved solver budgets. The decision digest doubles as the
// bit-identity witness; the gate requires a clean run (no exceptions, no
// validator failures) that exercised every degradation rung.
core::FaultCampaignReport run_campaign_phase(const bench::Context& ctx,
                                             const net::TrafficMatrix& demands,
                                             int steps) {
  core::FaultCampaignConfig config;
  config.steps = steps;
  config.te.beta = 0.99;
  return core::run_fault_campaign(ctx.topo, ctx.stats.cut_prob, demands,
                                  config);
}

// Epoch-pipeline phase: the overlapped control plane on the continental
// workload. Each epoch's ingest (sanitize + detector scan + correlated
// scenario generation and reduction — the pure, parallelizable stage)
// dominates; the base-demand solve commits quickly. The serial drive pays
// ingest and solve back to back; the pipeline overlaps up to
// max_in_flight ingests across the pool while commits stay strictly
// ordered — so the decisions must replay the serial run bit for bit while
// epochs/sec climbs with the thread count.
struct EpochPipelineSample {
  int epochs = 0;
  double serial_seconds = 0;
  double pipelined_seconds = 0;
  std::size_t decided = 0;
  bool decisions_bitwise_equal = true;
  double alloc_checksum = 0.0;
  // Wall-clock stays out of the bit-identity comparison.
  bool operator==(const EpochPipelineSample& o) const {
    return epochs == o.epochs && decided == o.decided &&
           decisions_bitwise_equal == o.decisions_bitwise_equal &&
           alloc_checksum == o.alloc_checksum;
  }
};

class BenchPredictor : public ml::FailurePredictor {
 public:
  double predict(const optical::DegradationFeatures&) const override {
    return 0.45;
  }
};

EpochPipelineSample run_epoch_pipeline_phase(
    const workload::ContinentalWorkload& w,
    const workload::ContinentalConfig& config, int epochs) {
  te::ReductionOptions reduction = config.reduction;
  reduction.max_scenarios = 300;
  core::ControllerConfig cc;
  cc.te.scenario_source = workload::make_scenario_source(
      w.failure_model, config.scenario_gen, reduction);
  auto predictor = std::make_shared<BenchPredictor>();

  const auto num_fibers = w.topology.network.num_fibers();
  std::vector<core::EpochInput> inputs;
  inputs.reserve(static_cast<std::size_t>(epochs));
  for (int e = 0; e < epochs; ++e) {
    core::EpochInput in;
    in.fiber = static_cast<net::FiberId>(e % num_fibers);
    // A +6 dB mid-window pulse over the healthy baseline; per-sample dither
    // keeps the plateaus below the stuck-at run length.
    in.trace_db.resize(120);
    for (int t = 0; t < 120; ++t) {
      const double base = (t >= 40 && t < 90) ? 11.0 : 5.0;
      in.trace_db[static_cast<std::size_t>(t)] =
          base + 0.002 * static_cast<double>(t % 5) +
          0.01 * static_cast<double>(e % 3);
    }
    in.trace_start_sec = static_cast<optical::TimeSec>(e) * 300;
    in.healthy_loss_db = 5.0;
    in.demands = w.matrices.front();
    inputs.push_back(std::move(in));
  }

  EpochPipelineSample sample;
  sample.epochs = epochs;
  using clock = std::chrono::steady_clock;

  std::vector<std::optional<core::ControlDecision>> serial;
  {
    core::Controller controller(w.topology, w.cut_probs, predictor, cc);
    const auto start = clock::now();
    for (const core::EpochInput& in : inputs) {
      serial.push_back(controller.on_telemetry(
          in.fiber, in.trace_db, in.trace_start_sec, in.healthy_loss_db,
          in.demands));
    }
    sample.serial_seconds =
        std::chrono::duration<double>(clock::now() - start).count();
  }
  {
    core::Controller controller(w.topology, w.cut_probs, predictor, cc);
    core::EpochPipelineConfig pipe_config;
    pipe_config.max_in_flight = 4;
    core::EpochPipeline pipeline(controller, pipe_config);
    const auto start = clock::now();
    for (const core::EpochInput& in : inputs) pipeline.submit(in);
    const auto results = pipeline.drain();
    sample.pipelined_seconds =
        std::chrono::duration<double>(clock::now() - start).count();

    for (std::size_t e = 0; e < results.size(); ++e) {
      if (results[e].decision.has_value() != serial[e].has_value()) {
        sample.decisions_bitwise_equal = false;
        continue;
      }
      if (!results[e].decision.has_value()) continue;
      ++sample.decided;
      const auto& a = serial[e]->policy.allocation;
      const auto& b = results[e].decision->policy.allocation;
      if (a.size() != b.size()) {
        sample.decisions_bitwise_equal = false;
        continue;
      }
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] != b[i]) sample.decisions_bitwise_equal = false;
        sample.alloc_checksum += b[i];
      }
    }
  }
  return sample;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  const unsigned parallel_threads = runtime::ThreadPool::global().size();
  bench::print_header("Runtime scaling: Monte Carlo epochs, serial vs pool");

  bench::Context ctx(net::make_b4());
  const int epochs = bench::fast_mode() ? 800 : 4000;
  const auto demands = net::scale_traffic(ctx.base_demands, 2.0);
  const sim::MonteCarloStudy mc(ctx.topo, ctx.stats, mc_config(epochs));
  te::TeaVarScheme teavar(0.99);

  const net::TunnelSet tunnels =
      net::build_tunnels(ctx.topo.network, ctx.topo.flows);
  const int master_repeats = bench::fast_mode() ? 1 : 3;
  const double telemetry_horizon =
      bench::fast_mode() ? 90.0 * 86400.0 : 365.0 * 86400.0;
  const optical::PlantSimulator plant(ctx.topo.network, ctx.params, ctx.logit);

  util::Table table({"phase", "threads", "seconds", "availability"});
  sim::MonteCarloResult serial_static, parallel_static;
  sim::MonteCarloResult serial_prete, parallel_prete;
  MasterSample serial_master, parallel_master;
  TelemetrySample serial_telemetry, parallel_telemetry;
  KernelSample serial_kernel, parallel_kernel;
  LuAnchorSample serial_lu_anchor, parallel_lu_anchor;
  BnbSample serial_bnb, parallel_bnb;
  CarrySample serial_carry, parallel_carry;
  CutBankSample serial_cut_bank, parallel_cut_bank;
  core::FaultCampaignReport serial_campaign, parallel_campaign;
  EpochPipelineSample serial_epoch, parallel_epoch;
  double t_serial_static = 0, t_parallel_static = 0;
  double t_serial_prete = 0, t_parallel_prete = 0;
  double t_serial_master = 0, t_parallel_master = 0;
  double t_serial_telemetry = 0, t_parallel_telemetry = 0;
  double t_serial_bnb = 0, t_parallel_bnb = 0;
  double t_serial_carry = 0, t_parallel_carry = 0;
  double t_serial_cut_bank = 0, t_parallel_cut_bank = 0;
  double t_serial_campaign = 0, t_parallel_campaign = 0;
  const int kernel_instances = bench::fast_mode() ? 3 : 6;
  const int kernel_repeats = bench::fast_mode() ? 3 : 8;
  const int lu_anchor_repeats = bench::fast_mode() ? 2 : 6;
  const int bnb_repeats = bench::fast_mode() ? 4 : 12;
  const int carry_epochs = bench::fast_mode() ? 3 : 5;
  const int cut_bank_epochs = bench::fast_mode() ? 2 : 3;
  const int campaign_steps = bench::fast_mode() ? 96 : 256;
  const int pipeline_epochs = bench::fast_mode() ? 8 : 16;

  // Continental workload for the cut-bank phase, generated once and shared
  // by both legs (generation itself is bit-identical at any pool size —
  // workload_continental_test covers that).
  const workload::ContinentalConfig continental_config;
  const workload::ContinentalWorkload continental =
      workload::generate_continental_workload(continental_config);
  const net::TunnelSet continental_tunnels = net::build_tunnels(
      continental.topology.network, continental.topology.flows);

  runtime::ThreadPool::set_global_threads(1);
  {
    bench::Phase phase("run_static serial");
    util::Rng rng(1);
    serial_static = mc.run_static(teavar, demands, rng);
    t_serial_static = phase.seconds();
  }
  {
    bench::Phase phase("run_prete serial");
    util::Rng rng(2);
    serial_prete = mc.run_prete(demands, rng);
    t_serial_prete = phase.seconds();
  }
  {
    bench::Phase phase("benders_master serial");
    serial_master = run_master_phase(ctx, tunnels, demands, master_repeats);
    t_serial_master = phase.seconds();
  }
  {
    bench::Phase phase("telemetry serial");
    serial_telemetry = run_telemetry_phase(plant, telemetry_horizon);
    t_serial_telemetry = phase.seconds();
  }
  {
    bench::Phase phase("lp_kernel serial");
    serial_kernel = run_kernel_phase(ctx, tunnels, demands, kernel_instances,
                                     kernel_repeats);
  }
  {
    bench::Phase phase("lu_anchor serial");
    serial_lu_anchor = run_lu_anchor_phase(continental, continental_config,
                                           continental_tunnels,
                                           lu_anchor_repeats);
  }
  {
    bench::Phase phase("bnb_direct serial");
    serial_bnb = run_bnb_phase(bnb_repeats);
    t_serial_bnb = phase.seconds();
  }
  {
    bench::Phase phase("basis_carry serial");
    serial_carry = run_carry_phase(ctx, tunnels, demands, carry_epochs);
    t_serial_carry = phase.seconds();
  }
  {
    bench::Phase phase("cut_bank serial");
    serial_cut_bank = run_cut_bank_phase(continental, continental_config,
                                         continental_tunnels, cut_bank_epochs);
    t_serial_cut_bank = phase.seconds();
  }
  {
    bench::Phase phase("fault_campaign serial");
    // Base (unscaled) demands: the campaign probes robustness, not capacity
    // pressure, and near-saturation demands make every starved solve an
    // order of magnitude more expensive for no extra fault coverage.
    serial_campaign = run_campaign_phase(ctx, ctx.base_demands, campaign_steps);
    t_serial_campaign = phase.seconds();
  }
  {
    bench::Phase phase("epoch_pipeline serial-pool");
    serial_epoch = run_epoch_pipeline_phase(continental, continental_config,
                                            pipeline_epochs);
  }

  runtime::ThreadPool::set_global_threads(parallel_threads);
  {
    bench::Phase phase("run_static parallel");
    util::Rng rng(1);
    parallel_static = mc.run_static(teavar, demands, rng);
    t_parallel_static = phase.seconds();
  }
  {
    bench::Phase phase("run_prete parallel");
    util::Rng rng(2);
    parallel_prete = mc.run_prete(demands, rng);
    t_parallel_prete = phase.seconds();
  }
  {
    bench::Phase phase("benders_master parallel");
    parallel_master = run_master_phase(ctx, tunnels, demands, master_repeats);
    t_parallel_master = phase.seconds();
  }
  {
    bench::Phase phase("telemetry parallel");
    parallel_telemetry = run_telemetry_phase(plant, telemetry_horizon);
    t_parallel_telemetry = phase.seconds();
  }
  {
    bench::Phase phase("lp_kernel parallel");
    parallel_kernel = run_kernel_phase(ctx, tunnels, demands, kernel_instances,
                                       kernel_repeats);
  }
  {
    bench::Phase phase("lu_anchor parallel");
    parallel_lu_anchor = run_lu_anchor_phase(continental, continental_config,
                                             continental_tunnels,
                                             lu_anchor_repeats);
  }
  {
    bench::Phase phase("bnb_direct parallel");
    parallel_bnb = run_bnb_phase(bnb_repeats);
    t_parallel_bnb = phase.seconds();
  }
  {
    bench::Phase phase("basis_carry parallel");
    parallel_carry = run_carry_phase(ctx, tunnels, demands, carry_epochs);
    t_parallel_carry = phase.seconds();
  }
  {
    bench::Phase phase("cut_bank parallel");
    parallel_cut_bank = run_cut_bank_phase(
        continental, continental_config, continental_tunnels, cut_bank_epochs);
    t_parallel_cut_bank = phase.seconds();
  }
  {
    bench::Phase phase("fault_campaign parallel");
    parallel_campaign =
        run_campaign_phase(ctx, ctx.base_demands, campaign_steps);
    t_parallel_campaign = phase.seconds();
  }
  {
    bench::Phase phase("epoch_pipeline parallel");
    parallel_epoch = run_epoch_pipeline_phase(continental, continental_config,
                                              pipeline_epochs);
  }

  table.add_row({"run_static", "1", util::Table::format(t_serial_static, 2),
                 util::Table::format(serial_static.mean_flow_availability, 6)});
  table.add_row({"run_static", std::to_string(parallel_threads),
                 util::Table::format(t_parallel_static, 2),
                 util::Table::format(parallel_static.mean_flow_availability, 6)});
  table.add_row({"run_prete", "1", util::Table::format(t_serial_prete, 2),
                 util::Table::format(serial_prete.mean_flow_availability, 6)});
  table.add_row({"run_prete", std::to_string(parallel_threads),
                 util::Table::format(t_parallel_prete, 2),
                 util::Table::format(parallel_prete.mean_flow_availability, 6)});
  table.add_row({"benders_master", "1", util::Table::format(t_serial_master, 2),
                 util::Table::format(serial_master.phi, 6)});
  table.add_row({"benders_master", std::to_string(parallel_threads),
                 util::Table::format(t_parallel_master, 2),
                 util::Table::format(parallel_master.phi, 6)});
  table.add_row({"telemetry", "1", util::Table::format(t_serial_telemetry, 2),
                 std::to_string(serial_telemetry.cuts) + " cuts"});
  table.add_row({"telemetry", std::to_string(parallel_threads),
                 util::Table::format(t_parallel_telemetry, 2),
                 std::to_string(parallel_telemetry.cuts) + " cuts"});
  // Solver phases: the LP table below breaks their pivots down by variant.
  const auto add_solver_rows = [&](const std::string& phase, double serial_s,
                                   double parallel_s, int serial_pivots,
                                   int parallel_pivots) {
    table.add_row({phase, "1", util::Table::format(serial_s, 2),
                   std::to_string(serial_pivots) + " pivots"});
    table.add_row({phase, std::to_string(parallel_threads),
                   util::Table::format(parallel_s, 2),
                   std::to_string(parallel_pivots) + " pivots"});
  };
  add_solver_rows("basis_carry", t_serial_carry, t_parallel_carry,
                  serial_carry.carried_tail_pivots,
                  parallel_carry.carried_tail_pivots);
  add_solver_rows("cut_bank", t_serial_cut_bank, t_parallel_cut_bank,
                  serial_cut_bank.warm_tail_pivots,
                  parallel_cut_bank.warm_tail_pivots);
  table.add_row({"fault_campaign", "1",
                 util::Table::format(t_serial_campaign, 2),
                 std::to_string(serial_campaign.faults_injected) + " faults"});
  table.add_row({"fault_campaign", std::to_string(parallel_threads),
                 util::Table::format(t_parallel_campaign, 2),
                 std::to_string(parallel_campaign.faults_injected) + " faults"});
  const auto epochs_per_sec = [](int epochs, double seconds) {
    return static_cast<double>(epochs) / std::max(seconds, 1e-9);
  };
  table.add_row(
      {"epoch_pipeline", "1",
       util::Table::format(serial_epoch.pipelined_seconds, 2),
       util::Table::format(epochs_per_sec(serial_epoch.epochs,
                                          serial_epoch.pipelined_seconds),
                           2) +
           " ep/s"});
  table.add_row(
      {"epoch_pipeline", std::to_string(parallel_threads),
       util::Table::format(parallel_epoch.pipelined_seconds, 2),
       util::Table::format(epochs_per_sec(parallel_epoch.epochs,
                                          parallel_epoch.pipelined_seconds),
                           2) +
           " ep/s"});
  table.print(std::cout);
  std::cout << "fault_campaign: " << serial_campaign.summary() << "\n";
  std::cout << "epoch_pipeline: serial drive "
            << util::Table::format(
                   epochs_per_sec(parallel_epoch.epochs,
                                  parallel_epoch.serial_seconds),
                   2)
            << " ep/s vs pipelined "
            << util::Table::format(
                   epochs_per_sec(parallel_epoch.epochs,
                                  parallel_epoch.pipelined_seconds),
                   2)
            << " ep/s on " << parallel_threads
            << " threads, decisions bitwise equal: "
            << (parallel_epoch.decisions_bitwise_equal ? "yes" : "NO") << "\n";

  // LP kernel phases: pivot counts, not thread scaling, are the story here
  // (every variant also feeds the bit-identity gate below).
  util::Table lp_table({"phase", "variant", "seconds", "pivots"});
  lp_table.add_row({"basis_carry", "cold tail",
                    util::Table::format(t_serial_carry, 2),
                    std::to_string(serial_carry.cold_tail_pivots)});
  lp_table.add_row({"basis_carry", "carried tail", "",
                    std::to_string(serial_carry.carried_tail_pivots)});
  lp_table.add_row({"cut_bank", "cold tail",
                    util::Table::format(t_serial_cut_bank, 2),
                    std::to_string(serial_cut_bank.cold_tail_pivots)});
  lp_table.add_row({"cut_bank", "replayed tail", "",
                    std::to_string(serial_cut_bank.warm_tail_pivots)});
  lp_table.add_row({"lp_kernel", "cold LPs",
                    util::Table::format(serial_kernel.seconds, 3),
                    std::to_string(serial_kernel.pivots)});
  lp_table.add_row({"lu_anchor", "explicit inverse (m=" +
                        std::to_string(serial_lu_anchor.rows) + ")",
                    util::Table::format(serial_lu_anchor.explicit_seconds, 3),
                    std::to_string(serial_lu_anchor.explicit_pivots)});
  lp_table.add_row({"lu_anchor", "sparse LU",
                    util::Table::format(serial_lu_anchor.lu_seconds, 3),
                    std::to_string(serial_lu_anchor.lu_pivots)});
  lp_table.add_row({"bnb_direct", "serial",
                    util::Table::format(t_serial_bnb, 2),
                    std::to_string(serial_bnb.pivots)});
  lp_table.add_row({"bnb_direct",
                    std::to_string(parallel_threads) + " threads",
                    util::Table::format(t_parallel_bnb, 2),
                    std::to_string(parallel_bnb.pivots)});
  lp_table.print(std::cout);
  std::cout << "lp_kernel reinversions: " << serial_kernel.reinversions
            << ", eta peak length: " << serial_kernel.eta_peak << "\n"
            << "bnb_direct nodes: " << serial_bnb.nodes
            << ", phi: " << util::Table::format(serial_bnb.phi, 6) << "\n";
  std::cout << "lu_anchor rows: " << serial_lu_anchor.rows
            << ", LU reinversions: " << serial_lu_anchor.lu_reinversions
            << " (explicit: " << serial_lu_anchor.explicit_reinversions
            << "), base objectives bitwise equal: "
            << (serial_lu_anchor.base_objectives_bitwise_equal ? "yes" : "NO")
            << ", pressured relative delta: "
            << util::Table::format(serial_lu_anchor.pressured_objective_delta,
                                   12)
            << "\n";
  std::cout << "basis_carry seeds offered " << serial_carry.seeds_offered()
            << ", installed " << serial_carry.seeds_installed << ", rejected "
            << serial_carry.seeds_rejected << " (scenario order changed on "
            << serial_carry.reordered_epochs << " epochs)"
            << ", max |phi_cold - phi_carried|: "
            << util::Table::format(serial_carry.max_phi_delta, 9) << "\n";
  std::cout << "cut_bank steady-state iterations: cold "
            << serial_cut_bank.cold_tail_iterations << " vs replayed "
            << serial_cut_bank.warm_tail_iterations << " (replayed "
            << serial_cut_bank.cuts_replayed << ", invalidated "
            << serial_cut_bank.cuts_invalidated << ", banked "
            << serial_cut_bank.cuts_banked << "), objectives bitwise equal: "
            << (serial_cut_bank.objectives_bitwise_equal ? "yes" : "NO")
            << "\n";
  const bool identical =
      serial_static.mean_flow_availability ==
          parallel_static.mean_flow_availability &&
      serial_static.standard_error == parallel_static.standard_error &&
      serial_static.epochs_with_cut == parallel_static.epochs_with_cut &&
      serial_prete.mean_flow_availability ==
          parallel_prete.mean_flow_availability &&
      serial_prete.standard_error == parallel_prete.standard_error &&
      serial_prete.epochs_with_cut == parallel_prete.epochs_with_cut &&
      serial_master == parallel_master &&
      serial_telemetry == parallel_telemetry &&
      serial_kernel == parallel_kernel &&
      serial_lu_anchor == parallel_lu_anchor && serial_bnb == parallel_bnb &&
      serial_carry == parallel_carry &&
      serial_cut_bank == parallel_cut_bank &&
      serial_campaign.decision_digest == parallel_campaign.decision_digest &&
      serial_campaign.faults_injected == parallel_campaign.faults_injected &&
      serial_campaign.rung_count == parallel_campaign.rung_count &&
      serial_epoch == parallel_epoch;
  std::cout << "bit-identical across thread counts: "
            << (identical ? "yes" : "NO — DETERMINISM BUG") << "\n";
  const bool carry_ok =
      serial_carry.carried_tail_pivots < serial_carry.cold_tail_pivots &&
      serial_carry.max_phi_delta < 1e-6;
  if (!carry_ok) {
    std::cout << "basis_carry gate FAILED (carried tail not cheaper or phi "
                 "drift)\n";
  }
  // The cut bank must actually shorten the steady-state decomposition —
  // fewer Benders iterations AND fewer total pivots — while replaying cuts
  // and agreeing with every cold objective to the bit.
  const bool cut_bank_ok =
      serial_cut_bank.all_converged &&
      serial_cut_bank.objectives_bitwise_equal &&
      serial_cut_bank.cuts_replayed > 0 &&
      serial_cut_bank.warm_tail_iterations <
          serial_cut_bank.cold_tail_iterations &&
      serial_cut_bank.warm_tail_pivots < serial_cut_bank.cold_tail_pivots;
  if (!cut_bank_ok) {
    std::cout << "cut_bank gate FAILED (no iteration/pivot reduction, nothing "
                 "replayed, or objective mismatch)\n";
  }
  const bool campaign_ok = serial_campaign.clean() &&
                           serial_campaign.every_rung_exercised() &&
                           serial_campaign.faults_injected > 0;
  if (!campaign_ok) {
    std::cout << "fault_campaign gate FAILED (exceptions, validator failures, "
                 "or a degradation rung never exercised)\n";
  }
  // The pipeline must replay the serial decision stream bit for bit at any
  // thread count. The throughput leg of the gate (pipelined >= 1.3x the
  // serial drive's epochs/sec) only binds where the overlap has hardware to
  // run on — at least 4 pool threads on at least 4 cores.
  const bool pipeline_gate_binds =
      parallel_threads >= 4 && std::thread::hardware_concurrency() >= 4;
  const bool epoch_pipeline_ok =
      serial_epoch.decisions_bitwise_equal &&
      parallel_epoch.decisions_bitwise_equal &&
      parallel_epoch.decided > 0 &&
      (!pipeline_gate_binds ||
       parallel_epoch.serial_seconds >=
           1.3 * parallel_epoch.pipelined_seconds);
  if (!epoch_pipeline_ok) {
    std::cout << "epoch_pipeline gate FAILED (decision mismatch or pipelined "
                 "drive under 1.3x the serial epochs/sec): serial "
              << util::Table::format(parallel_epoch.serial_seconds, 3)
              << " s vs pipelined "
              << util::Table::format(parallel_epoch.pipelined_seconds, 3)
              << " s\n";
  }
  // The sparse LU anchor must carry its weight at the scale it exists for: a
  // thousand-row master, reinversions actually routed through the LU, the
  // exact base optimum reproduced to the bit, the pressured optimum within
  // solver tolerance, and end-to-end wall-clock no worse than the explicit
  // inverse.
  const bool lu_anchor_ok =
      serial_lu_anchor.rows >= 1000 && serial_lu_anchor.all_optimal &&
      serial_lu_anchor.lu_reinversions >= 1 &&
      serial_lu_anchor.base_objectives_bitwise_equal &&
      serial_lu_anchor.pressured_objective_delta < 1e-9 &&
      serial_lu_anchor.lu_seconds <= serial_lu_anchor.explicit_seconds;
  if (!lu_anchor_ok) {
    std::cout << "lu_anchor gate FAILED (LU slower than explicit inverse or "
                 "objective mismatch): explicit "
              << util::Table::format(serial_lu_anchor.explicit_seconds, 3)
              << " s vs LU "
              << util::Table::format(serial_lu_anchor.lu_seconds, 3) << " s\n";
  }

  {
    std::ofstream json("BENCH_lp_kernel.json");
    json << "{\n";
    bench::json_stamp(json);
    json << "  \"lp_kernel\": {\"seconds\": " << serial_kernel.seconds
         << ", \"pivots\": " << serial_kernel.pivots
         << ", \"reinversions\": " << serial_kernel.reinversions
         << ", \"eta_peak\": " << serial_kernel.eta_peak << "},\n"
         << "  \"lu_anchor\": {\n"
         << "    \"rows\": " << serial_lu_anchor.rows
         << ", \"repeats\": " << lu_anchor_repeats << ",\n"
         << "    \"explicit\": {\"seconds\": "
         << serial_lu_anchor.explicit_seconds
         << ", \"pivots\": " << serial_lu_anchor.explicit_pivots
         << ", \"reinversions\": " << serial_lu_anchor.explicit_reinversions
         << "},\n"
         << "    \"lu\": {\"seconds\": " << serial_lu_anchor.lu_seconds
         << ", \"pivots\": " << serial_lu_anchor.lu_pivots
         << ", \"lu_reinversions\": " << serial_lu_anchor.lu_reinversions
         << "},\n"
         << "    \"base_objectives_bitwise_equal\": "
         << (serial_lu_anchor.base_objectives_bitwise_equal ? "true" : "false")
         << ",\n"
         << "    \"pressured_objective_delta\": "
         << serial_lu_anchor.pressured_objective_delta << "\n  },\n"
         << "  \"bnb_direct\": {\n"
         << "    \"serial\": {\"seconds\": " << t_serial_bnb
         << ", \"pivots\": " << serial_bnb.pivots
         << ", \"nodes\": " << serial_bnb.nodes << "},\n"
         << "    \"parallel\": {\"seconds\": " << t_parallel_bnb
         << ", \"pivots\": " << parallel_bnb.pivots
         << ", \"nodes\": " << parallel_bnb.nodes << "}\n  },\n"
         << "  \"cut_bank\": {\n"
         << "    \"steady_epochs\": " << cut_bank_epochs
         << ", \"seconds\": " << t_serial_cut_bank << ",\n"
         << "    \"cold\": {\"iterations\": "
         << serial_cut_bank.cold_tail_iterations
         << ", \"pivots\": " << serial_cut_bank.cold_tail_pivots << "},\n"
         << "    \"replayed\": {\"iterations\": "
         << serial_cut_bank.warm_tail_iterations
         << ", \"pivots\": " << serial_cut_bank.warm_tail_pivots
         << ", \"cuts_replayed\": " << serial_cut_bank.cuts_replayed
         << ", \"cuts_invalidated\": " << serial_cut_bank.cuts_invalidated
         << "},\n"
         << "    \"objectives_bitwise_equal\": "
         << (serial_cut_bank.objectives_bitwise_equal ? "true" : "false")
         << "\n  },\n"
         << "  \"gates\": {\"lu_anchor_ok\": " << (lu_anchor_ok ? "true" : "false")
         << ", \"cut_bank_ok\": " << (cut_bank_ok ? "true" : "false")
         << "}\n}\n";
  }
  {
    std::ofstream json("BENCH_epoch_pipeline.json");
    json << "{\n";
    bench::json_stamp(json);
    json << "  \"epochs\": " << parallel_epoch.epochs << ",\n"
         << "  \"serial\": {\"seconds\": " << parallel_epoch.serial_seconds
         << ", \"epochs_per_sec\": "
         << epochs_per_sec(parallel_epoch.epochs,
                           parallel_epoch.serial_seconds)
         << "},\n"
         << "  \"pipelined\": {\"seconds\": "
         << parallel_epoch.pipelined_seconds << ", \"epochs_per_sec\": "
         << epochs_per_sec(parallel_epoch.epochs,
                           parallel_epoch.pipelined_seconds)
         << "},\n"
         << "  \"single_thread_pipelined_seconds\": "
         << serial_epoch.pipelined_seconds << ",\n"
         << "  \"decisions_bitwise_equal\": "
         << (parallel_epoch.decisions_bitwise_equal ? "true" : "false")
         << ",\n"
         << "  \"gate_binds\": " << (pipeline_gate_binds ? "true" : "false")
         << ", \"epoch_pipeline_ok\": "
         << (epoch_pipeline_ok ? "true" : "false") << "\n}\n";
  }
  std::cout << "speedup run_static: "
            << util::Table::format(
                   t_serial_static / std::max(t_parallel_static, 1e-9), 2)
            << "x, run_prete: "
            << util::Table::format(
                   t_serial_prete / std::max(t_parallel_prete, 1e-9), 2)
            << "x, benders_master: "
            << util::Table::format(
                   t_serial_master / std::max(t_parallel_master, 1e-9), 2)
            << "x, telemetry: "
            << util::Table::format(
                   t_serial_telemetry / std::max(t_parallel_telemetry, 1e-9), 2)
            << "x, bnb_direct: "
            << util::Table::format(t_serial_bnb / std::max(t_parallel_bnb, 1e-9),
                                   2)
            << "x on " << parallel_threads << " threads\n";
  return identical && carry_ok && campaign_ok && lu_anchor_ok && cut_bank_ok &&
                 epoch_pipeline_ok
             ? 0
             : 1;
}
