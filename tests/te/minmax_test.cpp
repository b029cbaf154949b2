#include "te/minmax.h"

#include <gtest/gtest.h>

#include "net/topology.h"
#include "te/evaluator.h"
#include "te/lp_common.h"

namespace prete::te {
namespace {

struct TriangleCase {
  net::Topology topo = net::make_triangle();
  net::TunnelSet tunnels{2};
  TeProblem problem;

  TriangleCase() {
    tunnels.add_tunnel(0, {0});      // flow s1->s2 direct
    tunnels.add_tunnel(0, {2, 5});   // s1->s3->s2
    tunnels.add_tunnel(1, {2});      // flow s1->s3 direct
    tunnels.add_tunnel(1, {0, 4});   // s1->s2->s3
    problem.network = &topo.network;
    problem.flows = &topo.flows;
    problem.tunnels = &tunnels;
    problem.demands = {10.0, 10.0};
  }
};

ScenarioSet triangle_scenarios(double p0, double p1, double p2) {
  return generate_failure_scenarios({p0, p1, p2});
}

TEST(MinMaxDirectTest, ZeroLossWhenNoFailuresConsidered) {
  TriangleCase fx;
  // All fibers perfectly reliable: only the no-failure scenario matters.
  const auto set = triangle_scenarios(0.0, 0.0, 0.0);
  MinMaxOptions options;
  options.beta = 0.99;
  const auto result = solve_min_max_direct(fx.problem, set, options);
  EXPECT_NEAR(result.phi, 0.0, 1e-6);
}

TEST(MinMaxDirectTest, Beta99IgnoresRareScenarios) {
  TriangleCase fx;
  // Failure probabilities as in Figure 2: 0.005, 0.009, 0.001.
  const auto set = triangle_scenarios(0.005, 0.009, 0.001);
  MinMaxOptions options;
  options.beta = 0.99;
  const auto result = solve_min_max_direct(fx.problem, set, options);
  // The no-failure scenario has probability ~0.986 < beta, so each flow must
  // also survive some failure scenarios -- but capacity 10 everywhere allows
  // rerouting, so Phi can still be 0... unless capacity prevents both flows
  // surviving the same cut. Accept Phi in [0, 0.5]; certify feasibility by
  // evaluating the returned policy.
  EXPECT_LE(result.phi, 0.5 + 1e-6);
  EXPECT_TRUE(result.converged);
}

TEST(MinMaxDirectTest, InfeasibleBetaThrows) {
  TriangleCase fx;
  ScenarioSet set;
  set.scenarios.emplace_back(std::vector<net::FiberId>{}, 0.9);
  set.covered_probability = 0.9;
  MinMaxOptions options;
  options.beta = 0.99;
  EXPECT_THROW(solve_min_max_direct(fx.problem, set, options),
               std::invalid_argument);
  EXPECT_THROW(solve_min_max_benders(fx.problem, set, options),
               std::invalid_argument);
}

TEST(MinMaxBendersTest, MatchesDirectOnTriangle) {
  TriangleCase fx;
  const auto set = triangle_scenarios(0.02, 0.03, 0.01);
  MinMaxOptions options;
  options.beta = 0.95;
  const auto direct = solve_min_max_direct(fx.problem, set, options);
  const auto benders = solve_min_max_benders(fx.problem, set, options);
  // Benders' upper bound is always achievable; it must not beat the exact
  // optimum and should land within a small gap of it.
  EXPECT_GE(benders.phi, direct.phi - 1e-6);
  EXPECT_NEAR(benders.phi, direct.phi, 0.02);
}

TEST(MinMaxBendersTest, MatchesDirectOnOverloadedTriangle) {
  TriangleCase fx;
  fx.problem.demands = {15.0, 15.0};  // above single-link capacity
  const auto set = triangle_scenarios(0.02, 0.02, 0.02);
  MinMaxOptions options;
  options.beta = 0.9;
  const auto direct = solve_min_max_direct(fx.problem, set, options);
  const auto benders = solve_min_max_benders(fx.problem, set, options);
  EXPECT_GE(benders.phi, direct.phi - 1e-6);
  EXPECT_NEAR(benders.phi, direct.phi, 0.03);
  EXPECT_GT(direct.phi, 0.0);  // demand exceeds what the network can protect
}

TEST(MinMaxBendersTest, BoundsAreOrdered) {
  TriangleCase fx;
  const auto set = triangle_scenarios(0.02, 0.03, 0.01);
  MinMaxOptions options;
  options.beta = 0.95;
  const auto result = solve_min_max_benders(fx.problem, set, options);
  EXPECT_LE(result.lower_bound, result.upper_bound + 1e-9);
  EXPECT_GE(result.iterations, 1);
}

TEST(MinMaxBendersTest, PolicyIsCapacityFeasible) {
  const net::Topology topo = net::make_b4();
  const net::TunnelSet tunnels = net::build_tunnels(topo.network, topo.flows);
  TeProblem problem;
  problem.network = &topo.network;
  problem.flows = &topo.flows;
  problem.tunnels = &tunnels;
  util::Rng rng(3);
  net::TrafficConfig tc;
  tc.diurnal_swing = 0.0;
  tc.noise = 0.0;
  problem.demands =
      net::generate_traffic(topo.network, topo.flows, rng, tc)[0];

  std::vector<double> probs(static_cast<std::size_t>(topo.network.num_fibers()),
                            0.01);
  ScenarioOptions so;
  so.max_simultaneous_failures = 2;  // singles alone cover < 99% mass
  const auto set = generate_failure_scenarios(probs, so);
  MinMaxOptions options;
  options.beta = 0.99;
  const auto result = solve_min_max_benders(problem, set, options);

  std::vector<double> load(static_cast<std::size_t>(topo.network.num_links()), 0.0);
  for (const net::Tunnel& t : tunnels.tunnels()) {
    for (net::LinkId e : t.path) {
      load[static_cast<std::size_t>(e)] +=
          result.policy.allocation[static_cast<std::size_t>(t.id)];
    }
  }
  for (net::LinkId e = 0; e < topo.network.num_links(); ++e) {
    EXPECT_LE(load[static_cast<std::size_t>(e)],
              topo.network.link(e).capacity_gbps + 1e-6);
  }
  // And Phi should be essentially zero at this moderate demand.
  EXPECT_LT(result.phi, 0.05);
}

TEST(MinMaxBendersTest, PhiMatchesEvaluatedQuantileLoss) {
  // The reported Phi must be an upper bound on the realized beta-quantile
  // loss of the returned policy.
  TriangleCase fx;
  fx.problem.demands = {12.0, 12.0};
  const auto set = triangle_scenarios(0.03, 0.03, 0.03);
  MinMaxOptions options;
  options.beta = 0.9;
  const auto result = solve_min_max_benders(fx.problem, set, options);
  // For each flow, collect (probability, loss) across scenarios and check
  // there's a scenario subset of mass >= beta with loss <= phi + tol.
  for (const net::Flow& flow : *fx.problem.flows) {
    double ok_mass = 0.0;
    for (const auto& scenario : set.scenarios) {
      const auto losses = flow_losses(fx.problem, result.policy, scenario);
      if (losses[static_cast<std::size_t>(flow.id)] <= result.phi + 1e-6) {
        ok_mass += scenario.probability;
      }
    }
    EXPECT_GE(ok_mass, options.beta - 1e-9) << "flow " << flow.id;
  }
}

TEST(MinMaxBendersTest, EvaluatedPhiIsCertifiedByConvergedSolve) {
  // A guaranteed solve (phi <= kGuaranteeThreshold) ships a refined policy
  // that honours the phi it reports, per the independent quantile
  // evaluation: at phi = 0 and at a phi just under the threshold.
  for (const double demand : {8.0, 10.5}) {
    TriangleCase fx;
    fx.problem.demands = {demand, demand};
    const auto set = triangle_scenarios(0.03, 0.03, 0.03);
    MinMaxOptions options;
    options.beta = 0.9;
    const auto result = solve_min_max_benders(fx.problem, set, options);
    ASSERT_TRUE(result.converged) << "demand " << demand;
    ASSERT_LE(result.phi, kGuaranteeThreshold) << "demand " << demand;
    EXPECT_LE(evaluate_phi(fx.problem, set, options.beta, result.policy),
              result.phi + 1e-6)
        << "demand " << demand;
    // delta is the selection behind that phi: each flow drops at most its
    // probability budget outside the fatal pins, and every kept pair's loss
    // is within phi.
    const auto& Q = set.scenarios;
    const SurvivalIndex survival(fx.problem, Q);
    ASSERT_EQ(result.delta.size(), fx.problem.flows->size());
    for (const net::Flow& flow : *fx.problem.flows) {
      const std::vector<char>& kept =
          result.delta[static_cast<std::size_t>(flow.id)];
      ASSERT_EQ(kept.size(), Q.size());
      double dropped = 0.0;
      for (std::size_t q = 0; q < Q.size(); ++q) {
        if (kept[q] == 0) {
          if (!survival.fatal(flow.id, q)) dropped += Q[q].probability;
          continue;
        }
        const auto losses = flow_losses(fx.problem, result.policy, Q[q]);
        EXPECT_LE(losses[static_cast<std::size_t>(flow.id)],
                  result.phi + 1e-6)
            << "demand " << demand << " flow " << flow.id << " q " << q;
      }
      EXPECT_LE(dropped, set.covered_probability - options.beta + 1e-12)
          << "demand " << demand << " flow " << flow.id;
    }
  }
}

TEST(BendersBoundsTest, CrossedBoundIsNotConvergence) {
  // Regression: the old implementation clamped the master lower bound with
  // min(lb, upper_bound) before the gap test, so a bound crossing
  // (lb > ub, a symptom of bad cuts) collapsed to a zero gap and reported
  // converged = true. The raw-tracking version must flag it instead.
  BendersBounds bounds;
  bounds.observe_upper(0.30);
  EXPECT_FALSE(bounds.update(0.45, 1e-4));  // old clamp: gap 0 -> "converged"
  EXPECT_TRUE(bounds.crossed);
  EXPECT_DOUBLE_EQ(bounds.clamped_lower(), 0.30);  // reporting stays ordered
  // Once crossed, later consistent candidates cannot certify convergence
  // either — the cut set is suspect.
  EXPECT_FALSE(bounds.update(0.2999, 1e-4));
}

TEST(BendersBoundsTest, GenuineGapCloseStillConverges) {
  BendersBounds bounds;
  bounds.observe_upper(0.30);
  EXPECT_FALSE(bounds.update(0.10, 1e-4));
  EXPECT_TRUE(bounds.update(0.29995, 1e-3));
  EXPECT_FALSE(bounds.crossed);
  EXPECT_DOUBLE_EQ(bounds.clamped_lower(), 0.29995);
}

TEST(BendersBoundsTest, RoundoffCrossingIsTolerated) {
  BendersBounds bounds;
  bounds.observe_upper(0.25);
  // Within kCrossingTol of the upper bound: numerically equal, converged.
  EXPECT_TRUE(bounds.update(0.25 + 1e-10, 1e-4));
  EXPECT_FALSE(bounds.crossed);
}

TEST(MinMaxBendersTest, BoundNotCrossedOnHealthyInstances) {
  TriangleCase fx;
  const auto set = triangle_scenarios(0.02, 0.03, 0.01);
  MinMaxOptions options;
  options.beta = 0.95;
  const auto result = solve_min_max_benders(fx.problem, set, options);
  EXPECT_FALSE(result.bound_crossed);
  EXPECT_LE(result.lower_bound, result.upper_bound + 1e-9);
}

// Flow 0 restricted to the single direct tunnel over fiber 0, so the
// fiber-0 scenario is fatal for it (no surviving tunnel at any allocation).
struct FatalTunnelCase {
  net::Topology topo = net::make_triangle();
  net::TunnelSet tunnels{2};
  TeProblem problem;

  FatalTunnelCase() {
    tunnels.add_tunnel(0, {0});      // only tunnel: dies with fiber 0
    tunnels.add_tunnel(1, {2});      // s1->s3 direct
    tunnels.add_tunnel(1, {0, 4});   // s1->s2->s3
    problem.network = &topo.network;
    problem.flows = &topo.flows;
    problem.tunnels = &tunnels;
    problem.demands = {10.0, 10.0};
  }
};

TEST(MinMaxBendersTest, FatalPairIsPinnedWithinBudget) {
  FatalTunnelCase fx;
  const auto set = triangle_scenarios(0.004, 0.003, 0.002);
  MinMaxOptions options;
  options.beta = 0.99;  // budget ~0.01 comfortably covers the fatal mass
  const auto result = solve_min_max_benders(fx.problem, set, options);

  ASSERT_EQ(result.pinned_fatal_mass.size(), 2u);
  // Flow 0's fatal single-failure fiber-0 scenario (~0.004 mass) is
  // pre-dropped; its mass is charged against (and must fit inside) the
  // covered - beta budget.
  EXPECT_GT(result.pinned_fatal_mass[0], 0.003);
  EXPECT_LE(result.pinned_fatal_mass[0],
            set.covered_probability - options.beta + 1e-12);
  // Flow 1 keeps a surviving tunnel under every single failure; only the
  // tiny double-failure scenarios that kill both its tunnels get pinned.
  EXPECT_LT(result.pinned_fatal_mass[1], 1e-4);
  // With the fatal pairs out of the quantile, the rest is protectable.
  EXPECT_LT(result.phi, 0.05);
}

TEST(MinMaxBendersTest, FatalPairBeyondBudgetIsNotPinned) {
  FatalTunnelCase fx;
  const auto set = triangle_scenarios(0.004, 0.003, 0.002);
  MinMaxOptions options;
  // Budget covered - 0.9999 < the single-failure fatal scenario's
  // probability (~0.004): that pin cannot fit. Only sub-budget multi-failure
  // fatal scenarios may still be pinned, and with the dominant fatal pair
  // left in the quantile Phi saturates.
  options.beta = 0.9999;
  ASSERT_LT(set.covered_probability - options.beta, 0.003);
  const auto result = solve_min_max_benders(fx.problem, set, options);
  EXPECT_LT(result.pinned_fatal_mass[0], 1e-4);
  EXPECT_LE(result.pinned_fatal_mass[0],
            set.covered_probability - options.beta + 1e-12);
  EXPECT_GT(result.phi, 0.9);
}

TEST(MinMaxBendersTest, PinnedMassIsChargedAgainstDropBudget) {
  // If the master forgot to subtract the pinned mass from its drop budget,
  // flow 0 could drop more scenario mass than 1 - beta allows and the
  // returned policy would violate the quantile guarantee. Verify the
  // guarantee directly on the evaluated losses.
  FatalTunnelCase fx;
  fx.problem.demands = {12.0, 12.0};
  const auto set = triangle_scenarios(0.004, 0.03, 0.03);
  MinMaxOptions options;
  options.beta = 0.99;
  const auto result = solve_min_max_benders(fx.problem, set, options);
  for (const net::Flow& flow : *fx.problem.flows) {
    double ok_mass = 0.0;
    for (const auto& scenario : set.scenarios) {
      const auto losses = flow_losses(fx.problem, result.policy, scenario);
      if (losses[static_cast<std::size_t>(flow.id)] <= result.phi + 1e-6) {
        ok_mass += scenario.probability;
      }
    }
    EXPECT_GE(ok_mass, options.beta - 1e-9) << "flow " << flow.id;
  }
}

class BendersVsDirectProperty : public ::testing::TestWithParam<int> {};

TEST_P(BendersVsDirectProperty, SmallRandomInstances) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam() * 97 + 11));
  TriangleCase fx;
  fx.problem.demands = {rng.uniform(5.0, 16.0), rng.uniform(5.0, 16.0)};
  const auto set = triangle_scenarios(rng.uniform(0.0, 0.05),
                                      rng.uniform(0.0, 0.05),
                                      rng.uniform(0.0, 0.05));
  MinMaxOptions options;
  options.beta = 0.9 + 0.08 * rng.next_double();
  const auto direct = solve_min_max_direct(fx.problem, set, options);
  const auto benders = solve_min_max_benders(fx.problem, set, options);
  EXPECT_GE(benders.phi, direct.phi - 1e-6) << "seed " << GetParam();
  EXPECT_LE(benders.phi, direct.phi + 0.05) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BendersVsDirectProperty,
                         ::testing::Range(1, 13));

}  // namespace
}  // namespace prete::te
