#include "te/evaluator.h"

#include <gtest/gtest.h>

#include "net/topology.h"

namespace prete::te {
namespace {

struct TriangleFixture {
  net::Topology topo = net::make_triangle();
  net::TunnelSet tunnels{2};
  TeProblem problem;

  TriangleFixture() {
    // Flow 0 (s1->s2): direct tunnel 0 (link 0) and detour s1-s3-s2
    // (links 2 then 5: s1->s3 is link 2, s3->s2 is link 5).
    tunnels.add_tunnel(0, {0});
    tunnels.add_tunnel(0, {2, 5});
    // Flow 1 (s1->s3): direct (link 2) and detour s1-s2-s3 (links 0, 4).
    tunnels.add_tunnel(1, {2});
    tunnels.add_tunnel(1, {0, 4});
    problem.network = &topo.network;
    problem.flows = &topo.flows;
    problem.tunnels = &tunnels;
    problem.demands = {10.0, 10.0};
  }
};

FailureScenario no_failure() { return FailureScenario({}, 0.9); }

FailureScenario fail_fiber(int f, double p = 0.05) {
  return FailureScenario({f}, p);
}

TEST(EvaluatorTest, NoLossWhenAllocationsCoverDemand) {
  TriangleFixture fx;
  TePolicy policy;
  policy.allocation = {10.0, 0.0, 10.0, 0.0};
  const auto losses = flow_losses(fx.problem, policy, no_failure());
  EXPECT_DOUBLE_EQ(losses[0], 0.0);
  EXPECT_DOUBLE_EQ(losses[1], 0.0);
}

TEST(EvaluatorTest, TunnelDeathCausesLoss) {
  TriangleFixture fx;
  TePolicy policy;
  policy.allocation = {10.0, 0.0, 10.0, 0.0};
  // Fiber 0 = s1s2: kills tunnel 0 (flow 0 direct) and tunnel 3.
  const auto losses = flow_losses(fx.problem, policy, fail_fiber(0));
  EXPECT_DOUBLE_EQ(losses[0], 1.0);  // flow 0 has nothing left
  EXPECT_DOUBLE_EQ(losses[1], 0.0);  // flow 1's direct tunnel survives
}

TEST(EvaluatorTest, SurvivingAllocationLimitsLoss) {
  TriangleFixture fx;
  TePolicy policy;
  // Capacity-feasible caps: link s1s3 carries 5 (tunnel 1) + 5 (tunnel 2).
  policy.allocation = {5.0, 5.0, 5.0, 0.0};
  // Fiber 0 fails: flow 0 keeps its detour allocation of 5 -> loss 0.5.
  const auto losses = flow_losses(fx.problem, policy, fail_fiber(0));
  EXPECT_DOUBLE_EQ(losses[0], 0.5);
  EXPECT_DOUBLE_EQ(losses[1], 0.5);  // flow 1 keeps only its direct 5
}

TEST(EvaluatorTest, InfeasibleCapsAreScaledInScenario) {
  TriangleFixture fx;
  TePolicy policy;
  // Caps over-subscribe link s1s3 once fiber 0 dies: 5 + 10 on capacity 10.
  policy.allocation = {5.0, 5.0, 10.0, 0.0};
  const auto losses = flow_losses(fx.problem, policy, fail_fiber(0));
  // Tunnel factor 10/15: flow 0 delivers 5 * 2/3.
  EXPECT_NEAR(losses[0], 1.0 - 5.0 * (2.0 / 3.0) / 10.0, 1e-9);
}

TEST(EvaluatorTest, OverloadedLinkScalesDelivery) {
  TriangleFixture fx;
  TePolicy policy;
  // Both flows route 10 over link 2 (s1->s3, capacity 10): 20 on a 10 link.
  policy.allocation = {0.0, 10.0, 10.0, 0.0};
  const auto losses = flow_losses(fx.problem, policy, no_failure());
  // Each tunnel delivers at factor 0.5.
  EXPECT_DOUBLE_EQ(losses[0], 0.5);
  EXPECT_DOUBLE_EQ(losses[1], 0.5);
}

TEST(EvaluatorTest, OverAllocationClampedToZeroLoss) {
  TriangleFixture fx;
  TePolicy policy;
  policy.allocation = {10.0, 5.0, 10.0, 0.0};  // flow 0 has 15 total
  const auto losses = flow_losses(fx.problem, policy, no_failure());
  EXPECT_DOUBLE_EQ(losses[0], 0.0);
}

TEST(EvaluatorTest, AffectedFlows) {
  TriangleFixture fx;
  const auto affected = affected_flows(fx.problem, fail_fiber(1));
  // Fiber 1 = s1s3 (link 2/3): tunnel 1 (flow 0 detour) and tunnel 2 die.
  EXPECT_TRUE(affected[0]);
  EXPECT_TRUE(affected[1]);
  const auto affected0 = affected_flows(fx.problem, no_failure());
  EXPECT_FALSE(affected0[0]);
  EXPECT_FALSE(affected0[1]);
}

TEST(EvaluatorTest, AvailabilityWeightsScenarios) {
  TriangleFixture fx;
  TePolicy policy;
  policy.allocation = {10.0, 0.0, 10.0, 0.0};
  ScenarioSet set;
  set.scenarios = {no_failure(), fail_fiber(0, 0.1)};
  set.covered_probability = 1.0;
  const auto result = evaluate_availability(fx.problem, policy, set);
  // No-failure (0.9): both flows fine. Fiber-0 (0.1): flow 0 dead.
  EXPECT_NEAR(result.mean_flow_availability, 0.9 + 0.1 * 0.5, 1e-12);
  EXPECT_NEAR(result.system_availability, 0.9, 1e-12);
  EXPECT_NEAR(result.expected_max_loss, 0.1 * 1.0, 1e-12);
}

TEST(EvaluatorTest, ResidualMassCountsAsLoss) {
  TriangleFixture fx;
  TePolicy policy;
  policy.allocation = {10.0, 0.0, 10.0, 0.0};
  ScenarioSet set;
  set.scenarios = {no_failure()};
  set.covered_probability = 0.9;
  const auto result = evaluate_availability(fx.problem, policy, set);
  EXPECT_NEAR(result.mean_flow_availability, 0.9, 1e-12);
  EXPECT_NEAR(result.expected_max_loss, 0.1, 1e-12);

  EvaluationOptions optimistic;
  optimistic.residual_counts_as_loss = false;
  const auto r2 = evaluate_availability(fx.problem, policy, set, optimistic);
  EXPECT_NEAR(r2.mean_flow_availability, 1.0, 1e-12);
}

TEST(EvaluatorTest, ResidualMassUsesGeneratorAccounting) {
  TriangleFixture fx;
  TePolicy policy;
  policy.allocation = {10.0, 0.0, 10.0, 0.0};
  // A generator-produced set carries explicit residual accounting
  // (covered + residual closes to 1): the evaluator must surface that exact
  // residual instead of re-deriving it from the covered mass.
  ScenarioSet set;
  set.scenarios = {no_failure()};
  set.covered_probability = 0.9;
  set.residual_probability = 0.1;
  const auto pessimistic = evaluate_availability(fx.problem, policy, set);
  EXPECT_DOUBLE_EQ(pessimistic.residual_mass, 0.1);
  EXPECT_FALSE(pessimistic.renormalized);
  EXPECT_NEAR(pessimistic.expected_max_loss, 0.1, 1e-12);

  EvaluationOptions optimistic;
  optimistic.residual_counts_as_loss = false;
  const auto renorm = evaluate_availability(fx.problem, policy, set, optimistic);
  EXPECT_DOUBLE_EQ(renorm.residual_mass, 0.1);
  EXPECT_TRUE(renorm.renormalized);

  // Hand-built set without accounting (residual left 0, covered < 1): the
  // evaluator falls back to 1 - covered rather than trusting the
  // inconsistent zero.
  ScenarioSet bare;
  bare.scenarios = {no_failure()};
  bare.covered_probability = 0.9;
  const auto fallback = evaluate_availability(fx.problem, policy, bare);
  EXPECT_NEAR(fallback.residual_mass, 0.1, 1e-12);
  EXPECT_NEAR(fallback.expected_max_loss, 0.1, 1e-12);
}

TEST(EvaluatorTest, RecomputeChargesAffectedFlows) {
  TriangleFixture fx;
  fx.problem.demands = {5.0, 5.0};
  TePolicy policy;
  // Flow 0: 5 direct + 5 detour (survives fiber 0 losslessly). Flow 1: 5
  // direct only (its fiber-0 detour carries nothing -> unaffected).
  policy.allocation = {5.0, 5.0, 5.0, 0.0};
  ScenarioSet set;
  set.scenarios = {no_failure(), fail_fiber(0, 0.1)};
  set.covered_probability = 1.0;

  EvaluationOptions proactive;
  const auto r_pro = evaluate_availability(fx.problem, policy, set, proactive);
  EXPECT_NEAR(r_pro.mean_flow_availability, 1.0, 1e-12);

  EvaluationOptions reactive;
  reactive.reaction = FailureReaction::kRecompute;
  const auto r_re = evaluate_availability(fx.problem, policy, set, reactive);
  // The convergence outage makes flow 0 unavailable in the failure scenario
  // even though its surviving allocation would have been enough.
  EXPECT_NEAR(r_re.mean_flow_availability, 0.9 + 0.1 * 0.5, 1e-12);
}

TEST(EvaluatorTest, AffectedFlowsIgnoresEmptyTunnels) {
  TriangleFixture fx;
  TePolicy policy;
  policy.allocation = {5.0, 0.0, 5.0, 0.0};
  const auto with_policy = affected_flows(fx.problem, fail_fiber(0), &policy);
  EXPECT_TRUE(with_policy[0]);    // its loaded direct tunnel died
  EXPECT_FALSE(with_policy[1]);   // only its empty detour died
  const auto without_policy = affected_flows(fx.problem, fail_fiber(0));
  EXPECT_TRUE(without_policy[1]);  // structurally affected
}

TEST(EvaluatorTest, FractionalOutageAccounting) {
  // Availability-as-time: an 8-second restoration outage in a 300-second
  // epoch charges affected flows 8/300 instead of the whole epoch.
  TriangleFixture fx;
  fx.problem.demands = {5.0, 5.0};
  TePolicy policy;
  policy.allocation = {5.0, 5.0, 5.0, 0.0};  // flow 0 survives fiber 0
  ScenarioSet set;
  set.scenarios = {no_failure(), fail_fiber(0, 0.1)};
  set.covered_probability = 1.0;

  EvaluationOptions fractional;
  fractional.reaction = FailureReaction::kOpticalRestoration;
  fractional.outage_epoch_fraction = 8.0 / 300.0;
  const auto frac = evaluate_availability(fx.problem, policy, set, fractional);
  // Failure scenario: flow 0 affected but post-restoration fine -> charged
  // only 8/300; flow 1 unaffected -> fully available.
  const double expected =
      0.9 * 1.0 + 0.1 * ((1.0 - 8.0 / 300.0) + 1.0) / 2.0;
  EXPECT_NEAR(frac.mean_flow_availability, expected, 1e-12);

  EvaluationOptions binary;
  binary.reaction = FailureReaction::kOpticalRestoration;
  const auto bin = evaluate_availability(fx.problem, policy, set, binary);
  EXPECT_NEAR(bin.mean_flow_availability, 0.9 + 0.1 * 0.5, 1e-12);
  EXPECT_GT(frac.mean_flow_availability, bin.mean_flow_availability);
}

TEST(EvaluatorTest, FractionalOutageStillChargesUnservedFlows) {
  // A flow whose post-reaction allocation cannot serve it gets nothing back
  // from the fractional accounting.
  TriangleFixture fx;
  fx.problem.demands = {10.0, 10.0};
  TePolicy policy;
  policy.allocation = {10.0, 0.0, 10.0, 0.0};  // flow 0 dies with fiber 0
  ScenarioSet set;
  set.scenarios = {fail_fiber(0, 1.0)};
  set.covered_probability = 1.0;
  EvaluationOptions fractional;
  fractional.reaction = FailureReaction::kRecompute;
  fractional.outage_epoch_fraction = 0.1;
  const auto result = evaluate_availability(fx.problem, policy, set, fractional);
  // Flow 0: outage AND lossy afterwards -> 0. Flow 1: unaffected -> 1.
  EXPECT_NEAR(result.mean_flow_availability, 0.5, 1e-12);
}

TEST(EvaluatorTest, NinesConversion) {
  EXPECT_NEAR(to_nines(0.99), 2.0, 1e-9);
  EXPECT_NEAR(to_nines(0.999), 3.0, 1e-9);
  EXPECT_NEAR(to_nines(0.9995), 3.30, 0.01);
  EXPECT_GT(to_nines(1.0), 11.0);  // clamped, not infinite
}

// Policy {6, 4, 6, 4} fills links s1->s2 (tunnels 0 + 3) and s1->s3
// (tunnels 1 + 2) exactly. Losses (flow 0, flow 1) per scenario:
//   no failure (p 0.90): 0,   0
//   fiber 0 s1s2 (0.05): 0.6, 0.4   (tunnels 0 and 3 die)
//   fiber 1 s1s3 (0.03): 0.4, 0.6   (tunnels 1 and 2 die)
//   fiber 2 s2s3 (0.02): 0.4, 0.4   (tunnels 1 and 3 die)
ScenarioSet quantile_scenarios(double covered) {
  ScenarioSet set;
  set.scenarios = {no_failure(), fail_fiber(0, 0.05), fail_fiber(1, 0.03),
                   fail_fiber(2, 0.02)};
  set.scenarios[0].probability = covered - 0.10;
  set.covered_probability = covered;
  return set;
}

TEST(EvaluatorTest, EvaluatePhiIsTheWorstFlowQuantileLoss) {
  TriangleFixture fx;
  TePolicy policy;
  policy.allocation = {6.0, 4.0, 6.0, 4.0};
  const ScenarioSet set = quantile_scenarios(1.0);
  // Budget 0.05: flow 0 drops fiber 0 (0.6) and keeps 0.4; flow 1 drops
  // fiber 1 (0.6) and keeps 0.4.
  EXPECT_NEAR(evaluate_phi(fx.problem, set, 0.95, policy), 0.4, 1e-12);
  // Budget 0.03: fiber 0 (mass 0.05) no longer fits, so flow 0 keeps 0.6.
  EXPECT_NEAR(evaluate_phi(fx.problem, set, 0.97, policy), 0.6, 1e-12);
  // Budget 0.10: every failure fits, leaving only the lossless scenario.
  EXPECT_NEAR(evaluate_phi(fx.problem, set, 0.90, policy), 0.0, 1e-12);
  // No budget at all: the worst loss of any scenario.
  EXPECT_NEAR(evaluate_phi(fx.problem, set, 1.0, policy), 0.6, 1e-12);
  // The budget is covered mass - beta: covered 0.98 at beta 0.95 leaves
  // 0.03, so flow 0 can no longer drop fiber 0.
  EXPECT_NEAR(evaluate_phi(fx.problem, quantile_scenarios(0.98), 0.95, policy),
              0.6, 1e-12);
}

}  // namespace
}  // namespace prete::te
