// Continental-scale workload: generate a >=200-node / >=1000-fiber synthetic
// WAN with conduit/weather SRLGs, run the correlated scenario pipeline
// (generation + probability-mass reduction with an explicit dropped-mass
// report), then drive the generated diurnal matrices through
// core::Controller epochs and a direct Benders solve under the workload's
// default solve deadline. Everything runs twice — serial pool, then the
// configured pool — and the decision digests, scenario sets, and Monte
// Carlo results must match bit for bit.
//
// Gates (nonzero exit on failure):
//   * scale floor:    nodes >= 200, fibers >= 1000
//   * covered mass:   reduced scenario set covers >= 0.999 probability
//   * mass accounting: covered + residual == 1 (scenario.cpp asserts too)
//   * bit-identity:   serial == parallel for every phase
//
// Usage: bench_continental [--threads=N]; PRETE_BENCH_FAST=1 shrinks the
// epoch counts but never the topology — the scale floor is the point.
#include "bench_common.h"

#include <cstring>
#include <fstream>

#include "core/controller.h"
#include "sim/monte_carlo.h"
#include "te/minmax.h"
#include "te/schemes.h"
#include "util/deadline.h"
#include "util/hash.h"
#include "workload/continental.h"

using namespace prete;
using util::fnv1a;

namespace {

std::uint64_t fold_double(std::uint64_t hash, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return fnv1a(hash, &bits, sizeof(bits));
}

// Flat prior: continental epochs are periodic TE runs, no degradation
// telemetry is in play.
class StaticPredictor final : public ml::FailurePredictor {
 public:
  double predict(const optical::DegradationFeatures&) const override {
    return 0.3;
  }
};

// Digest of the workload itself: topology shape, fiber lengths, cut
// probabilities, SRLG groups, and every demand entry. Regenerating on
// another pool size must reproduce it bit for bit.
struct WorkloadSample {
  workload::ContinentalWorkload w;
  std::uint64_t digest = util::kFnvOffsetBasis;

  explicit WorkloadSample(const workload::ContinentalConfig& config)
      : w(workload::generate_continental_workload(config)) {
    const int nodes = w.topology.network.num_nodes();
    const int fibers = w.topology.network.num_fibers();
    digest = fnv1a(digest, &nodes, sizeof(nodes));
    digest = fnv1a(digest, &fibers, sizeof(fibers));
    for (int f = 0; f < fibers; ++f) {
      digest = fold_double(digest, w.topology.network.fiber(f).length_km);
    }
    for (double p : w.cut_probs) digest = fold_double(digest, p);
    for (int f = 0; f < fibers; ++f) {
      const int g = w.conduits.group_of[static_cast<std::size_t>(f)];
      digest = fnv1a(digest, &g, sizeof(g));
    }
    for (const auto& matrix : w.matrices) {
      for (double d : matrix) digest = fold_double(digest, d);
    }
  }
};

struct ScenarioSample {
  int before = 0;
  int after = 0;
  int dropped = 0;
  double covered_before = 0;
  double covered_after = 0;
  double dropped_mass = 0;
  std::uint64_t digest = util::kFnvOffsetBasis;
  te::ScenarioSet reduced;

  bool operator==(const ScenarioSample& o) const {
    return before == o.before && after == o.after && dropped == o.dropped &&
           covered_before == o.covered_before &&
           covered_after == o.covered_after &&
           dropped_mass == o.dropped_mass && digest == o.digest;
  }
};

ScenarioSample run_scenario_phase(const workload::ContinentalWorkload& w,
                                  const workload::ContinentalConfig& config) {
  ScenarioSample sample;
  const te::ScenarioSet full =
      te::generate_correlated_scenarios(w.failure_model, config.scenario_gen);
  te::ReductionReport report;
  sample.reduced = te::reduce_scenarios(full, config.reduction, &report);
  sample.before = report.before;
  sample.after = report.after;
  sample.dropped = report.dropped;
  sample.covered_before = report.covered_before;
  sample.covered_after = report.covered_after;
  sample.dropped_mass = report.dropped_mass;
  for (const te::FailureScenario& s : sample.reduced.scenarios) {
    sample.digest = fold_double(sample.digest, s.probability);
    for (const net::FiberId f : s.failed()) {
      sample.digest = fnv1a(sample.digest, &f, sizeof(f));
    }
  }
  return sample;
}

// Controller epochs over the diurnal hours: one on_te_period per matrix,
// with the correlated scenario source and the workload's pivot budget (the
// default solve deadline) installed. The digest folds each decision's rung,
// deadline flag, phi, and full allocation vector.
struct ControllerSample {
  std::uint64_t digest = util::kFnvOffsetBasis;
  std::array<int, 4> rung_count{};
  int deadline_exceeded = 0;
  double last_phi = 1.0;

  bool operator==(const ControllerSample& o) const {
    return digest == o.digest && rung_count == o.rung_count &&
           deadline_exceeded == o.deadline_exceeded && last_phi == o.last_phi;
  }
};

ControllerSample run_controller_phase(const net::Topology& topo,
                                      const workload::ContinentalWorkload& w,
                                      const workload::ContinentalConfig& config,
                                      int epochs) {
  core::ControllerConfig cc;
  cc.te.scenario_source = workload::make_scenario_source(
      w.failure_model, config.scenario_gen, config.reduction);
  cc.solver_pivot_budget = config.solver_pivot_budget;
  core::Controller controller(topo, w.cut_probs,
                              std::make_shared<StaticPredictor>(), cc);
  ControllerSample sample;
  for (int e = 0; e < epochs; ++e) {
    const auto& demands =
        w.matrices[static_cast<std::size_t>(e) % w.matrices.size()];
    const core::ControlDecision decision = controller.on_te_period(demands);
    const int level = static_cast<int>(decision.fallback_level);
    ++sample.rung_count[static_cast<std::size_t>(level)];
    if (decision.deadline_exceeded) ++sample.deadline_exceeded;
    sample.last_phi = decision.phi;
    sample.digest = fnv1a(sample.digest, &e, sizeof(e));
    sample.digest = fnv1a(sample.digest, &level, sizeof(level));
    const unsigned char exceeded = decision.deadline_exceeded ? 1 : 0;
    sample.digest = fnv1a(sample.digest, &exceeded, sizeof(exceeded));
    sample.digest = fold_double(sample.digest, decision.phi);
    for (double a : decision.policy.allocation) {
      sample.digest = fold_double(sample.digest, a);
    }
  }
  return sample;
}

// Direct Benders on the reduced set under the same deterministic pivot
// budget the controller uses.
struct BendersSample {
  double phi = 1.0;
  int iterations = 0;
  int pivots = 0;
  bool deadline_exceeded = false;

  bool operator==(const BendersSample& o) const {
    return phi == o.phi && iterations == o.iterations && pivots == o.pivots &&
           deadline_exceeded == o.deadline_exceeded;
  }
};

BendersSample run_benders_phase(const net::Topology& topo,
                                const net::TunnelSet& tunnels,
                                const net::TrafficMatrix& demands,
                                const te::ScenarioSet& scenarios,
                                std::int64_t pivot_budget) {
  te::TeProblem problem;
  problem.network = &topo.network;
  problem.flows = &topo.flows;
  problem.tunnels = &tunnels;
  problem.demands = demands;
  te::MinMaxOptions options;
  options.beta = std::min(0.99, scenarios.covered_probability);
  util::Deadline deadline = util::Deadline::pivot_budget(pivot_budget);
  options.deadline = &deadline;
  const te::MinMaxResult result =
      te::solve_min_max_benders(problem, scenarios, options);
  BendersSample sample;
  sample.phi = result.phi;
  sample.iterations = result.iterations;
  sample.pivots = result.simplex_pivots;
  sample.deadline_exceeded = result.deadline_exceeded;
  return sample;
}

sim::MonteCarloResult run_mc_phase(const net::Topology& topo,
                                   const workload::ContinentalWorkload& w,
                                   const workload::ContinentalConfig& config,
                                   int epochs) {
  sim::MonteCarloConfig mc;
  mc.epochs = epochs;
  mc.planning_source = workload::make_scenario_source(
      w.failure_model, config.scenario_gen, config.reduction);
  mc.correlated_nature = &w.failure_model;
  const sim::MonteCarloStudy study(topo, workload::plant_statistics(w), mc);
  te::EcmpScheme ecmp;
  util::Rng rng(9);
  return study.run_static(ecmp, w.matrices[0], rng);
}

bool mc_equal(const sim::MonteCarloResult& a, const sim::MonteCarloResult& b) {
  return a.mean_flow_availability == b.mean_flow_availability &&
         a.standard_error == b.standard_error &&
         a.epochs_with_degradation == b.epochs_with_degradation &&
         a.epochs_with_cut == b.epochs_with_cut;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  const unsigned parallel_threads = runtime::ThreadPool::global().size();
  bench::print_header("Continental workload: correlated scenarios + epochs");

  workload::ContinentalConfig config;
  // Fast mode trims repetition, never scale: the >=200-node / >=1000-fiber
  // floor is what this bench certifies.
  const int controller_epochs = bench::fast_mode() ? 2 : 6;
  const int mc_epochs = bench::fast_mode() ? 200 : 1000;

  double t_generate = 0, t_scenarios = 0, t_tunnels = 0;
  double t_controller = 0, t_benders = 0, t_mc = 0;

  runtime::ThreadPool::set_global_threads(1);
  WorkloadSample serial_workload(config);
  {
    bench::Phase phase("generate serial");
    serial_workload = WorkloadSample(config);
    t_generate = phase.seconds();
  }
  const auto& w = serial_workload.w;
  std::cout << "nodes=" << w.topology.network.num_nodes()
            << " fibers=" << w.topology.network.num_fibers()
            << " links=" << w.topology.network.num_links()
            << " corridors=" << w.corridors
            << " conduit_events=" << w.conduit_events
            << " weather_events=" << w.weather_events
            << " flows=" << w.topology.flows.size()
            << " matrices=" << w.matrices.size() << "\n";

  ScenarioSample serial_scenarios;
  {
    bench::Phase phase("scenarios serial");
    serial_scenarios = run_scenario_phase(w, config);
    t_scenarios = phase.seconds();
  }
  std::cout << "scenarios: " << serial_scenarios.before << " -> "
            << serial_scenarios.after << " (dropped "
            << serial_scenarios.dropped << ", dropped mass "
            << util::Table::format(serial_scenarios.dropped_mass, 7)
            << "), covered "
            << util::Table::format(serial_scenarios.covered_before, 7)
            << " -> " << util::Table::format(serial_scenarios.covered_after, 7)
            << ", residual "
            << util::Table::format(serial_scenarios.reduced.residual_probability,
                                   7)
            << "\n";

  net::TunnelSet tunnels{0};
  {
    bench::Phase phase("tunnels serial");
    tunnels = net::build_tunnels(w.topology.network, w.topology.flows);
    t_tunnels = phase.seconds();
  }

  ControllerSample serial_controller;
  {
    bench::Phase phase("controller serial");
    serial_controller =
        run_controller_phase(w.topology, w, config, controller_epochs);
    t_controller = phase.seconds();
  }
  BendersSample serial_benders;
  {
    bench::Phase phase("benders serial");
    serial_benders =
        run_benders_phase(w.topology, tunnels, w.matrices[0],
                          serial_scenarios.reduced, config.solver_pivot_budget);
    t_benders = phase.seconds();
  }
  sim::MonteCarloResult serial_mc;
  {
    bench::Phase phase("monte_carlo serial");
    serial_mc = run_mc_phase(w.topology, w, config, mc_epochs);
    t_mc = phase.seconds();
  }

  runtime::ThreadPool::set_global_threads(parallel_threads);
  double t_generate_p = 0, t_controller_p = 0, t_benders_p = 0, t_mc_p = 0;
  WorkloadSample parallel_workload(config);
  {
    bench::Phase phase("generate parallel");
    parallel_workload = WorkloadSample(config);
    t_generate_p = phase.seconds();
  }
  ScenarioSample parallel_scenarios;
  {
    bench::Phase phase("scenarios parallel");
    parallel_scenarios = run_scenario_phase(parallel_workload.w, config);
  }
  ControllerSample parallel_controller;
  {
    bench::Phase phase("controller parallel");
    parallel_controller = run_controller_phase(parallel_workload.w.topology,
                                               parallel_workload.w, config,
                                               controller_epochs);
    t_controller_p = phase.seconds();
  }
  BendersSample parallel_benders;
  {
    bench::Phase phase("benders parallel");
    parallel_benders = run_benders_phase(
        parallel_workload.w.topology, tunnels, parallel_workload.w.matrices[0],
        parallel_scenarios.reduced, config.solver_pivot_budget);
    t_benders_p = phase.seconds();
  }
  sim::MonteCarloResult parallel_mc;
  {
    bench::Phase phase("monte_carlo parallel");
    parallel_mc = run_mc_phase(parallel_workload.w.topology,
                               parallel_workload.w, config, mc_epochs);
    t_mc_p = phase.seconds();
  }

  util::Table table({"phase", "serial s", "parallel s", "result"});
  table.add_row({"generate", util::Table::format(t_generate, 2),
                 util::Table::format(t_generate_p, 2),
                 std::to_string(w.topology.network.num_fibers()) + " fibers"});
  table.add_row({"scenarios", util::Table::format(t_scenarios, 2), "",
                 std::to_string(serial_scenarios.after) + " kept"});
  table.add_row({"tunnels", util::Table::format(t_tunnels, 2), "",
                 std::to_string(tunnels.num_tunnels()) + " tunnels"});
  table.add_row({"controller", util::Table::format(t_controller, 2),
                 util::Table::format(t_controller_p, 2),
                 "phi " + util::Table::format(serial_controller.last_phi, 6)});
  table.add_row({"benders", util::Table::format(t_benders, 2),
                 util::Table::format(t_benders_p, 2),
                 "phi " + util::Table::format(serial_benders.phi, 6)});
  table.add_row({"monte_carlo", util::Table::format(t_mc, 2),
                 util::Table::format(t_mc_p, 2),
                 util::Table::format(serial_mc.mean_flow_availability, 6)});
  table.print(std::cout);
  std::cout << "controller rungs=[" << serial_controller.rung_count[0] << ','
            << serial_controller.rung_count[1] << ','
            << serial_controller.rung_count[2] << ','
            << serial_controller.rung_count[3]
            << "] deadline_exceeded=" << serial_controller.deadline_exceeded
            << " digest=" << serial_controller.digest << "\n";

  const bool scale_ok = w.topology.network.num_nodes() >= 200 &&
                        w.topology.network.num_fibers() >= 1000;
  const bool mass_ok = serial_scenarios.covered_after >= 0.999;
  const double mass_closure = serial_scenarios.reduced.covered_probability +
                              serial_scenarios.reduced.residual_probability;
  const bool accounting_ok = std::abs(mass_closure - 1.0) <= 1e-6;
  const bool identical = serial_workload.digest == parallel_workload.digest &&
                         serial_scenarios == parallel_scenarios &&
                         serial_controller == parallel_controller &&
                         serial_benders == parallel_benders &&
                         mc_equal(serial_mc, parallel_mc);
  if (!scale_ok) {
    std::cout << "scale gate FAILED (need >= 200 nodes and >= 1000 fibers)\n";
  }
  if (!mass_ok) {
    std::cout << "covered-mass gate FAILED: "
              << util::Table::format(serial_scenarios.covered_after, 7)
              << " < 0.999\n";
  }
  if (!accounting_ok) {
    std::cout << "mass-accounting gate FAILED: covered + residual = "
              << util::Table::format(mass_closure, 9) << "\n";
  }
  std::cout << "bit-identical across thread counts: "
            << (identical ? "yes" : "NO — DETERMINISM BUG") << "\n";

  {
    std::ofstream json("BENCH_continental.json");
    json << "{\n";
    bench::json_stamp(json);
    json << "  \"topology\": {\"nodes\": " << w.topology.network.num_nodes()
         << ", \"fibers\": " << w.topology.network.num_fibers()
         << ", \"links\": " << w.topology.network.num_links()
         << ", \"corridors\": " << w.corridors
         << ", \"conduit_events\": " << w.conduit_events
         << ", \"weather_events\": " << w.weather_events << "},\n"
         << "  \"scenarios\": {\"before\": " << serial_scenarios.before
         << ", \"after\": " << serial_scenarios.after
         << ", \"dropped\": " << serial_scenarios.dropped
         << ", \"covered_before\": " << serial_scenarios.covered_before
         << ", \"covered_after\": " << serial_scenarios.covered_after
         << ", \"dropped_mass\": " << serial_scenarios.dropped_mass
         << ", \"residual\": "
         << serial_scenarios.reduced.residual_probability << "},\n"
         << "  \"controller\": {\"epochs\": " << controller_epochs
         << ", \"phi\": " << serial_controller.last_phi
         << ", \"deadline_exceeded\": " << serial_controller.deadline_exceeded
         << ", \"rungs\": [" << serial_controller.rung_count[0] << ", "
         << serial_controller.rung_count[1] << ", "
         << serial_controller.rung_count[2] << ", "
         << serial_controller.rung_count[3] << "]},\n"
         << "  \"benders\": {\"phi\": " << serial_benders.phi
         << ", \"iterations\": " << serial_benders.iterations
         << ", \"pivots\": " << serial_benders.pivots << "},\n"
         << "  \"monte_carlo\": {\"epochs\": " << mc_epochs
         << ", \"availability\": " << serial_mc.mean_flow_availability
         << "},\n"
         << "  \"seconds\": {\"generate\": " << t_generate
         << ", \"scenarios\": " << t_scenarios
         << ", \"controller\": " << t_controller
         << ", \"benders\": " << t_benders << ", \"monte_carlo\": " << t_mc
         << "},\n"
         << "  \"gates\": {\"scale_ok\": " << (scale_ok ? "true" : "false")
         << ", \"mass_ok\": " << (mass_ok ? "true" : "false")
         << ", \"accounting_ok\": " << (accounting_ok ? "true" : "false")
         << ", \"bit_identical\": " << (identical ? "true" : "false")
         << "}\n}\n";
  }
  return scale_ok && mass_ok && accounting_ok && identical ? 0 : 1;
}
