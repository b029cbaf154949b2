#include "te/schemes.h"

#include <gtest/gtest.h>

#include "net/topology.h"
#include "te/evaluator.h"

namespace prete::te {
namespace {

struct Fixture {
  net::Topology topo;
  net::TunnelSet tunnels;
  TeProblem problem;

  explicit Fixture(net::Topology t, double demand_scale = 1.0)
      : topo(std::move(t)), tunnels(net::build_tunnels(
            topo.network, topo.flows,
            {.tunnels_per_flow = 4, .disjoint_tunnels = 2})) {
    problem.network = &topo.network;
    problem.flows = &topo.flows;
    problem.tunnels = &tunnels;
    util::Rng rng(7);
    net::TrafficConfig config;
    config.diurnal_swing = 0.0;
    config.noise = 0.0;
    const auto tms =
        net::generate_traffic(topo.network, topo.flows, rng, config);
    problem.demands = net::scale_traffic(tms[0], demand_scale);
  }
};

ScenarioSet b4_scenarios(const net::Network& net, double p = 0.01,
                         int max_failures = 1) {
  std::vector<double> probs(static_cast<std::size_t>(net.num_fibers()), p);
  ScenarioOptions options;
  options.max_simultaneous_failures = max_failures;
  return generate_failure_scenarios(probs, options);
}

TEST(EcmpTest, SplitsEvenly) {
  Fixture fx(net::make_triangle());
  const TePolicy policy = EcmpScheme().compute(fx.problem, {});
  // Each triangle flow has 2 tunnels; demand 10 -> 5 each... demands come
  // from the traffic generator here, so check proportionality instead.
  for (const net::Flow& flow : *fx.problem.flows) {
    const auto& ts = fx.tunnels.tunnels_for_flow(flow.id);
    const double expected =
        fx.problem.demand(flow.id) / static_cast<double>(ts.size());
    for (net::TunnelId t : ts) {
      EXPECT_NEAR(policy.allocation[static_cast<std::size_t>(t)], expected, 1e-9);
    }
  }
}

TEST(EcmpTest, NoLossAtLowUtilization) {
  Fixture fx(net::make_b4(), 0.5);
  const TePolicy policy = EcmpScheme().compute(fx.problem, {});
  const auto set = b4_scenarios(fx.topo.network);
  const auto losses = flow_losses(fx.problem, policy, set.scenarios[0]);
  for (double l : losses) EXPECT_LT(l, 0.05);
}

TEST(FfcTest, NoLossUnderAnySingleFailure) {
  Fixture fx(net::make_b4(), 1.0);
  FfcScheme ffc(1);
  const TePolicy policy = ffc.compute(fx.problem, {});
  const auto set = b4_scenarios(fx.topo.network);
  // FFC-1 guarantee: granted traffic survives every single fiber cut. At
  // this (moderate) demand, FFC-1 should grant everything.
  for (const auto& scenario : set.scenarios) {
    const auto losses = flow_losses(fx.problem, policy, scenario);
    for (std::size_t f = 0; f < losses.size(); ++f) {
      EXPECT_LT(losses[f], 1e-5)
          << "flow " << f << " scenario failures " << scenario.failed().size();
    }
  }
}

TEST(FfcTest, CapacityRespected) {
  Fixture fx(net::make_b4(), 2.0);
  const TePolicy policy = FfcScheme(1).compute(fx.problem, {});
  std::vector<double> load(static_cast<std::size_t>(fx.topo.network.num_links()), 0.0);
  for (const net::Tunnel& t : fx.tunnels.tunnels()) {
    for (net::LinkId e : t.path) {
      load[static_cast<std::size_t>(e)] +=
          policy.allocation[static_cast<std::size_t>(t.id)];
    }
  }
  for (net::LinkId e = 0; e < fx.topo.network.num_links(); ++e) {
    EXPECT_LE(load[static_cast<std::size_t>(e)],
              fx.topo.network.link(e).capacity_gbps + 1e-6);
  }
}

TEST(FfcTest, Ffc2MoreConservativeThanFfc1) {
  Fixture fx(net::make_b4(), 3.0);
  const TePolicy p1 = FfcScheme(1).compute(fx.problem, {});
  const TePolicy p2 = FfcScheme(2).compute(fx.problem, {});
  // Granted (deliverable under no failure) bandwidth of FFC-2 <= FFC-1.
  ScenarioSet none = b4_scenarios(fx.topo.network);
  const auto l1 = flow_losses(fx.problem, p1, none.scenarios[0]);
  const auto l2 = flow_losses(fx.problem, p2, none.scenarios[0]);
  double total1 = 0.0;
  double total2 = 0.0;
  for (std::size_t f = 0; f < l1.size(); ++f) {
    total1 += (1.0 - l1[f]) * fx.problem.demands[f];
    total2 += (1.0 - l2[f]) * fx.problem.demands[f];
  }
  EXPECT_LE(total2, total1 + 1e-6);
}

TEST(TeaVarTest, NoFailureLossIsZeroAtModerateLoad) {
  Fixture fx(net::make_b4(), 1.0);
  const auto set = b4_scenarios(fx.topo.network);
  const TePolicy policy = TeaVarScheme(0.99).compute(fx.problem, set);
  const auto losses = flow_losses(fx.problem, policy, set.scenarios[0]);
  for (double l : losses) EXPECT_LT(l, 1e-5);
}

TEST(TeaVarTest, ProtectsAgainstLikelyFailures) {
  Fixture fx(net::make_b4(), 1.0);
  // Include double failures so the enumerated mass itself exceeds 99%.
  const auto set = b4_scenarios(fx.topo.network, 0.01, /*max_failures=*/2);
  const TePolicy policy = TeaVarScheme(0.999).compute(fx.problem, set);
  const auto result = evaluate_availability(fx.problem, policy, set);
  // With beta = 0.999 and moderate demand, TeaVar should reach ~2+ nines.
  EXPECT_GT(result.mean_flow_availability, 0.99);
}

TEST(TeaVarTest, BetaSweepProducesFeasiblePolicies) {
  // Availability is not monotone in CVaR's beta (a very tight beta trades
  // bulk availability for tail loss), but every beta must yield a
  // capacity-feasible, deterministic policy.
  Fixture fx(net::make_b4(), 2.5);
  const auto set = b4_scenarios(fx.topo.network, 0.02);
  for (double beta : {0.9, 0.99, 0.9999}) {
    const TePolicy policy = TeaVarScheme(beta).compute(fx.problem, set);
    std::vector<double> load(
        static_cast<std::size_t>(fx.topo.network.num_links()), 0.0);
    for (const net::Tunnel& t : fx.tunnels.tunnels()) {
      for (net::LinkId e : t.path) {
        load[static_cast<std::size_t>(e)] +=
            policy.allocation[static_cast<std::size_t>(t.id)];
      }
    }
    for (net::LinkId e = 0; e < fx.topo.network.num_links(); ++e) {
      EXPECT_LE(load[static_cast<std::size_t>(e)],
                fx.topo.network.link(e).capacity_gbps + 1e-6)
          << "beta " << beta;
    }
    const TePolicy again = TeaVarScheme(beta).compute(fx.problem, set);
    for (std::size_t t = 0; t < policy.allocation.size(); ++t) {
      EXPECT_DOUBLE_EQ(policy.allocation[t], again.allocation[t]);
    }
  }
}

TEST(ArrowTest, AggressiveAllocationNoFailure) {
  Fixture fx(net::make_b4(), 1.5);
  const auto set = b4_scenarios(fx.topo.network);
  const TePolicy policy = ArrowScheme(0.99).compute(fx.problem, set);
  const auto losses = flow_losses(fx.problem, policy, set.scenarios[0]);
  for (double l : losses) EXPECT_LT(l, 1e-5);
  EXPECT_EQ(ArrowScheme().reaction(), FailureReaction::kOpticalRestoration);
}

TEST(FlexileTest, ReactionIsRecompute) {
  EXPECT_EQ(FlexileScheme().reaction(), FailureReaction::kRecompute);
}

TEST(FlexileTest, ComputesLowLossPolicyOnTriangle) {
  Fixture fx(net::make_triangle());
  fx.problem.demands = {10.0, 10.0};
  std::vector<double> probs(3, 0.01);
  const auto set = generate_failure_scenarios(probs);
  const TePolicy policy = FlexileScheme(0.9).compute(fx.problem, set);
  const auto losses = flow_losses(fx.problem, policy, set.scenarios[0]);
  for (double l : losses) EXPECT_LT(l, 1e-5);
}

TEST(SchemeNamesTest, AsInPaper) {
  EXPECT_EQ(EcmpScheme().name(), "ECMP");
  EXPECT_EQ(FfcScheme(1).name(), "FFC-1");
  EXPECT_EQ(FfcScheme(2).name(), "FFC-2");
  EXPECT_EQ(TeaVarScheme().name(), "TeaVar");
  EXPECT_EQ(ArrowScheme().name(), "ARROW");
  EXPECT_EQ(FlexileScheme().name(), "Flexile");
}

}  // namespace
}  // namespace prete::te
