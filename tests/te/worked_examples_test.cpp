// Reproduces the paper's worked micro-examples (Figures 2, 3 and 7) on the
// 3-node network of Figure 2(a): links s1s2, s1s3, s2s3 with 10 capacity
// units and failure probabilities 0.005, 0.009, 0.001.
#include <gtest/gtest.h>

#include "net/topology.h"
#include "te/evaluator.h"
#include "te/minmax.h"
#include "te/prete.h"
#include "te/schemes.h"

namespace prete::te {
namespace {

struct Example {
  net::Topology topo = net::make_triangle();
  net::TunnelSet tunnels{2};
  TeProblem problem;

  Example() {
    tunnels.add_tunnel(0, {0});      // flow s1s2, tunnel s1-s2
    tunnels.add_tunnel(1, {2});      // flow s1s3, tunnel s1-s3
    tunnels.add_tunnel(1, {0, 4});   // flow s1s3, tunnel s1-s2-s3
    problem.network = &topo.network;
    problem.flows = &topo.flows;
    problem.tunnels = &tunnels;
  }
};

constexpr double kP12 = 0.005;
constexpr double kP13 = 0.009;
constexpr double kP23 = 0.001;

TEST(WorkedExample, Figure2TeaVarSupportsTenUnits) {
  // At total demand 10 (5 per flow), the probabilistic TE meets beta = 99%
  // with no loss.
  Example ex;
  ex.problem.demands = {5.0, 5.0};
  const auto set = generate_failure_scenarios({kP12, kP13, kP23});
  MinMaxOptions options;
  options.beta = 0.99;
  const auto result = solve_min_max_direct(ex.problem, set, options);
  EXPECT_NEAR(result.phi, 0.0, 1e-6);
}

TEST(WorkedExample, Figure2TeaVarJointAvailabilityBound) {
  // TeaVar's bound in the worked example is JOINT: "no flow sees the loss
  // 99% of the time". At 5+5 units the optimal allocation reaches ~99.49%
  // (footnote 2); at 10+10 units any allocation breaks 99% because flow
  // s1s2 dies with fiber s1s2 and flow s1s3 cannot be protected against
  // fiber s1s3 without starving flow s1s2.
  Example ex;
  const auto set = generate_failure_scenarios({kP12, kP13, kP23});

  ex.problem.demands = {5.0, 5.0};
  const TePolicy ten_units = TeaVarScheme(0.99).compute(ex.problem, set);
  const auto r10 = evaluate_availability(ex.problem, ten_units, set);
  EXPECT_GE(r10.system_availability, 0.99);
  EXPECT_NEAR(r10.system_availability, 0.9949, 0.003);  // footnote 2

  ex.problem.demands = {10.0, 10.0};
  const TePolicy twenty_units = TeaVarScheme(0.99).compute(ex.problem, set);
  const auto r20 = evaluate_availability(ex.problem, twenty_units, set);
  EXPECT_LT(r20.system_availability, 0.99);
}

TEST(WorkedExample, Figure3OracleSupportsTwentyUnits) {
  // The oracular system knows link s1s2 will NOT fail (probability 0), so
  // it can use its full capacity: both flows get 10 units, Phi = 0.
  Example ex;
  ex.problem.demands = {10.0, 10.0};
  const auto set = generate_failure_scenarios({0.0, kP13, kP23});
  MinMaxOptions options;
  options.beta = 0.99;
  const auto result = solve_min_max_direct(ex.problem, set, options);
  EXPECT_NEAR(result.phi, 0.0, 1e-6);

  // And the allocation actually delivers 20 units in the no-failure case.
  const FailureScenario none({}, 1.0);
  const auto losses = flow_losses(ex.problem, result.policy, none);
  EXPECT_LT(losses[0], 1e-6);
  EXPECT_LT(losses[1], 1e-6);
}

TEST(WorkedExample, Figure3OracleKeepsTenUnitsWhenS1S2Fails) {
  // If the oracle knows s1s2 WILL fail, it still delivers the full demand
  // of flow s1s3 and must drop flow s1s2 (no surviving path fits both at
  // 10 units each through s1s3).
  Example ex;
  ex.problem.demands = {10.0, 10.0};
  const auto set = generate_failure_scenarios({1.0, kP13, kP23});
  MinMaxOptions options;
  options.beta = 0.98;
  const auto result = solve_min_max_direct(ex.problem, set, options);
  const FailureScenario cut({0}, 1.0);
  const auto losses = flow_losses(ex.problem, result.policy, cut);
  // Flow s1s3 keeps its 10 units via the direct link (Figure 3c).
  EXPECT_LT(losses[1], 1e-6);
}

TEST(WorkedExample, Figure7DegradationPreparationKeepsThroughput) {
  // §3.3: with a degradation on s1s2, creating tunnel s1s3s2 for flow s1s2
  // keeps the full 10 units of total throughput (5 + 5) when the cut lands,
  // where plain TeaVar only supports 5 by rate adaptation (Figure 2c).
  Example ex;
  ex.problem.demands = {5.0, 5.0};

  PreTeConfig config;
  config.beta = 0.9;
  PreTeScheme prete({kP12, kP13, kP23}, config);
  DegradationScenario s = DegradationScenario::none(3);
  s.degraded[0] = true;
  s.predicted_prob[0] = 0.45;
  net::TunnelSet& tunnels = ex.tunnels;
  const auto outcome = prete.compute_for_degradation(
      ex.topo.network, ex.topo.flows, tunnels, ex.problem.demands, s);

  const FailureScenario cut({0}, 1.0);
  const auto losses =
      flow_losses(ex.problem, outcome.solver_result.policy, cut);
  EXPECT_LT(losses[0], 1e-5);  // flow s1s2 rerouted onto s1s3s2
  EXPECT_LT(losses[1], 1e-5);

  // Counterfactual: without the new tunnels, flow s1s2 dies with the link.
  net::TunnelSet original(2);
  original.add_tunnel(0, {0});
  original.add_tunnel(1, {2});
  original.add_tunnel(1, {0, 4});
  TeProblem baseline = ex.problem;
  baseline.tunnels = &original;
  const auto set = generate_failure_scenarios({kP12, kP13, kP23});
  MinMaxOptions options;
  options.beta = 0.99;
  const auto teavar_like = solve_min_max_direct(baseline, set, options);
  const auto baseline_losses = flow_losses(baseline, teavar_like.policy, cut);
  // Figure 2(c): flow s1s2's only tunnel rides the cut fiber, so half of
  // the 10-unit total throughput is gone.
  EXPECT_GT(baseline_losses[0], 0.99);
}

}  // namespace
}  // namespace prete::te
