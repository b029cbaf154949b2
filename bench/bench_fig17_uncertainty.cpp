// Figure 17 + Figure 19: the impact of workload vs capacity uncertainty on
// B4. TeaVar* and PreTE* plan on the true demands (perfect workload
// prediction); plain TeaVar/PreTE plan on demands with a relative error.
// Figure 19 quantifies the traffic variation each uncertainty causes.
#include "bench_common.h"

#include "te/evaluator.h"
#include "te/schemes.h"

using namespace prete;

namespace {

void figure17(const bench::Context& ctx) {
  bench::print_header("Figure 17: flow availability under uncertainty (B4)");
  const std::vector<double> scales =
      bench::fast_mode() ? std::vector<double>{1.0, 4.5}
                         : std::vector<double>{1.0, 2.7, 4.5};
  util::Table table({"scale", "TeaVar", "TeaVar*", "PreTE", "PreTE*"});
  for (double scale : scales) {
    const auto demands = net::scale_traffic(ctx.base_demands, scale);
    std::vector<std::string> row{util::Table::format(scale, 3)};
    for (const bool starred : {false, true}) {
      te::StudyOptions options = ctx.study_options(0.99);
      // Workload uncertainty: the planner underestimates demand by 10%
      // unless it has a demand predictor (the starred variants).
      options.demand_error = starred ? 0.0 : -0.10;
      const te::AvailabilityStudy study(ctx.topo, ctx.stats, options);
      te::TeaVarScheme teavar(0.99);
      row.insert(row.begin() + 1 + (starred ? 1 : 0),
                 util::Table::format(study.evaluate_static(teavar, demands), 5));
      row.push_back(util::Table::format(
          study.evaluate_prete(te::PredictorModel::kNeuralNet, demands), 5));
    }
    // Row currently: scale, TeaVar, TeaVar*, PreTE, PreTE* -- fix order:
    // inserted order produced scale, TeaVar, TeaVar*, PreTE(plain), PreTE*.
    table.add_row(std::move(row));
    table.print(std::cout);
    std::cout.flush();
  }
  std::cout << "(paper: demand prediction helps little; failure prediction "
               "is the larger lever when the network is loaded)\n";
}

void figure19(const bench::Context& ctx) {
  bench::print_header(
      "Figure 19: traffic variation by uncertainty type (tunnel Gbps)");
  // Workload uncertainty: demand fluctuation between adjacent TE periods.
  // Capacity uncertainty: allocation shift caused by a fiber cut.
  const te::StudyOptions options = ctx.study_options(0.99);
  const net::TunnelSet tunnels =
      net::build_tunnels(ctx.topo.network, ctx.topo.flows);
  te::TeProblem problem;
  problem.network = &ctx.topo.network;
  problem.flows = &ctx.topo.flows;
  problem.tunnels = &tunnels;
  problem.demands = net::scale_traffic(ctx.base_demands, 2.0);

  const auto believed =
      te::generate_failure_scenarios(ctx.stats.cut_prob,
                                     options.scenario_options);
  te::TeaVarScheme teavar(0.99);
  const te::TePolicy base_policy = teavar.compute(problem, believed);

  // Workload uncertainty: +-5% demand jitter -> recompute -> allocation delta.
  te::TeProblem jittered = problem;
  for (std::size_t i = 0; i < jittered.demands.size(); ++i) {
    jittered.demands[i] *= (i % 2 == 0) ? 1.05 : 0.95;
  }
  const te::TePolicy jitter_policy = teavar.compute(jittered, believed);

  // Capacity uncertainty: the highest-capacity fiber fails; rate adaptation
  // moves traffic to the survivors.
  net::FiberId worst = 0;
  for (net::FiberId f = 1; f < ctx.topo.network.num_fibers(); ++f) {
    if (ctx.topo.network.fiber_ip_capacity_gbps(f) >
        ctx.topo.network.fiber_ip_capacity_gbps(worst)) {
      worst = f;
    }
  }
  const te::FailureScenario cut({worst}, 1.0);
  const auto affected = te::affected_flows(problem, cut, &base_policy);

  double workload_affected = 0.0;
  double workload_unaffected = 0.0;
  double capacity_affected = 0.0;
  int n_aff = 0;
  int n_unaff = 0;
  for (const net::Flow& flow : ctx.topo.flows) {
    double workload_delta = 0.0;
    double capacity_delta = 0.0;
    for (net::TunnelId t : tunnels.tunnels_for_flow(flow.id)) {
      workload_delta += std::abs(jitter_policy.tunnel_allocation(t) -
                                 base_policy.tunnel_allocation(t));
      const bool alive = tunnels.alive(ctx.topo.network, t, cut.failed());
      // Rate adaptation: dead tunnels drop to zero, survivors keep caps.
      capacity_delta +=
          alive ? 0.0 : base_policy.tunnel_allocation(t);
    }
    if (affected[static_cast<std::size_t>(flow.id)]) {
      workload_affected += workload_delta;
      capacity_affected += capacity_delta;
      ++n_aff;
    } else {
      workload_unaffected += workload_delta;
      ++n_unaff;
    }
  }
  util::Table table({"uncertainty", "flow class", "mean tunnel variation (Gbps)"});
  table.add_row({"workload", "affected",
                 util::Table::format(workload_affected / std::max(n_aff, 1), 4)});
  table.add_row({"workload", "unaffected",
                 util::Table::format(workload_unaffected / std::max(n_unaff, 1), 4)});
  table.add_row({"capacity", "affected",
                 util::Table::format(capacity_affected / std::max(n_aff, 1), 4)});
  table.print(std::cout);
  std::cout << "(paper: capacity uncertainty moves far more traffic than "
               "workload uncertainty)\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  bench::Phase total_phase("total");
  bench::Context ctx(net::make_b4());
  figure17(ctx);
  figure19(ctx);
  return 0;
}
