#include "te/smore.h"

#include <gtest/gtest.h>

#include "net/topology.h"
#include "te/evaluator.h"

namespace prete::te {
namespace {

struct Fixture {
  net::Topology topo;
  net::TunnelSet tunnels;
  TeProblem problem;

  explicit Fixture(net::Topology t, double scale = 1.0)
      : topo(std::move(t)),
        tunnels(net::build_tunnels(topo.network, topo.flows)) {
    problem.network = &topo.network;
    problem.flows = &topo.flows;
    problem.tunnels = &tunnels;
    util::Rng rng(7);
    net::TrafficConfig tc;
    tc.diurnal_swing = 0.0;
    tc.noise = 0.0;
    problem.demands = net::scale_traffic(
        net::generate_traffic(topo.network, topo.flows, rng, tc)[0], scale);
  }
};

TEST(SmoreTest, RoutesFullDemand) {
  Fixture fx(net::make_b4());
  const TePolicy policy = SmoreScheme().compute(fx.problem, {});
  for (const net::Flow& flow : *fx.problem.flows) {
    double total = 0.0;
    for (net::TunnelId t : fx.tunnels.tunnels_for_flow(flow.id)) {
      total += policy.allocation[static_cast<std::size_t>(t)];
    }
    EXPECT_NEAR(total, fx.problem.demand(flow.id), 1e-6);
  }
}

TEST(SmoreTest, BeatsEcmpOnMaxUtilization) {
  Fixture fx(net::make_b4());
  const TePolicy smore = SmoreScheme().compute(fx.problem, {});
  const TePolicy ecmp = EcmpScheme().compute(fx.problem, {});
  auto max_util = [&](const TePolicy& policy) {
    std::vector<double> load(
        static_cast<std::size_t>(fx.topo.network.num_links()), 0.0);
    for (const net::Tunnel& t : fx.tunnels.tunnels()) {
      for (net::LinkId e : t.path) {
        load[static_cast<std::size_t>(e)] +=
            policy.allocation[static_cast<std::size_t>(t.id)];
      }
    }
    double worst = 0.0;
    for (net::LinkId e = 0; e < fx.topo.network.num_links(); ++e) {
      worst = std::max(worst, load[static_cast<std::size_t>(e)] /
                                  fx.topo.network.link(e).capacity_gbps);
    }
    return worst;
  };
  EXPECT_LE(max_util(smore), max_util(ecmp) + 1e-9);
}

TEST(SmoreTest, NoLossWithoutFailures) {
  Fixture fx(net::make_ibm());
  const TePolicy policy = SmoreScheme().compute(fx.problem, {});
  const FailureScenario none({}, 1.0);
  for (double loss : flow_losses(fx.problem, policy, none)) {
    EXPECT_LT(loss, 1e-6);
  }
}

TEST(SmoreTest, PathDiversityLimitsAggregateSingleCutLoss) {
  // SMORE spreads load only where it helps utilization, so individual flows
  // may ride one tunnel — but in aggregate, path diversity keeps a single
  // cut from destroying more than a fraction of the traffic.
  Fixture fx(net::make_b4());
  const TePolicy policy = SmoreScheme().compute(fx.problem, {});
  for (net::FiberId f = 0; f < fx.topo.network.num_fibers(); ++f) {
    const FailureScenario cut({f}, 1.0);
    const auto losses = flow_losses(fx.problem, policy, cut);
    double mean = 0.0;
    for (double loss : losses) mean += loss;
    mean /= static_cast<double>(losses.size());
    EXPECT_LT(mean, 0.5) << "fiber " << f;
  }
}

TEST(SmoreTest, Name) { EXPECT_EQ(SmoreScheme().name(), "SMORE"); }

}  // namespace
}  // namespace prete::te
