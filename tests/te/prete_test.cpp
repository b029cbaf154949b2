#include "te/prete.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "net/topology.h"
#include "te/evaluator.h"

namespace prete::te {
namespace {

TEST(DegradationScenarioTest, NoneHasNoDegradation) {
  const auto s = DegradationScenario::none(5);
  EXPECT_FALSE(s.any());
  EXPECT_EQ(s.degraded.size(), 5u);
}

TEST(PreTeTest, NoDegradationUsesDiscountedProbabilities) {
  net::Topology topo = net::make_triangle();
  net::TunnelSet tunnels(2);
  tunnels.add_tunnel(0, {0});
  tunnels.add_tunnel(0, {2, 5});
  tunnels.add_tunnel(1, {2});
  tunnels.add_tunnel(1, {0, 4});

  PreTeConfig config;
  config.beta = 0.95;
  config.alpha = 0.25;
  PreTeScheme prete({0.02, 0.02, 0.02}, config);
  const auto outcome = prete.compute_for_degradation(
      topo.network, topo.flows, tunnels, {10.0, 10.0},
      DegradationScenario::none(3));
  // Scenario set built from (1 - alpha) * p_i = 0.015 per fiber.
  ASSERT_FALSE(outcome.scenarios.scenarios.empty());
  EXPECT_NEAR(outcome.scenarios.scenarios[0].probability,
              0.985 * 0.985 * 0.985, 1e-12);
  EXPECT_TRUE(outcome.tunnel_update.created.empty());
  EXPECT_EQ(tunnels.num_tunnels(), 4);
}

TEST(PreTeTest, DegradationTriggersTunnelsAndHighProbability) {
  net::Topology topo = net::make_triangle();
  net::TunnelSet tunnels(2);
  tunnels.add_tunnel(0, {0});
  tunnels.add_tunnel(1, {2});
  tunnels.add_tunnel(1, {0, 4});

  PreTeConfig config;
  config.beta = 0.9;
  PreTeScheme prete({0.01, 0.01, 0.01}, config);
  DegradationScenario s = DegradationScenario::none(3);
  s.degraded[0] = true;
  s.predicted_prob[0] = 0.45;  // NN says 45% cut probability
  const auto outcome = prete.compute_for_degradation(
      topo.network, topo.flows, tunnels, {10.0, 10.0}, s);

  // Algorithm 1 created tunnels avoiding fiber 0.
  EXPECT_GT(outcome.tunnel_update.created.size(), 0u);
  // Flow 1 also rides fiber 0 but has no detour (Figure 7).
  EXPECT_EQ(outcome.tunnel_update.shortfall, 1);
  // The believed scenario set gives fiber 0 its NN probability: the
  // fiber-0-fails scenario must be prominent.
  bool found = false;
  for (const auto& scenario : outcome.scenarios.scenarios) {
    if (scenario.failed() == std::vector<net::FiberId>{0}) {
      found = true;
      EXPECT_GT(scenario.probability, 0.4);
    }
  }
  EXPECT_TRUE(found);
}

TEST(PreTeTest, PolicySurvivesThePredictedCut) {
  // The core promise (Figure 7): with a degradation on s1s2 and the NN
  // predicting a likely cut, PreTE's policy keeps both flows whole when the
  // cut actually happens.
  net::Topology topo = net::make_triangle();
  net::TunnelSet tunnels(2);
  tunnels.add_tunnel(0, {0});
  tunnels.add_tunnel(1, {2});
  tunnels.add_tunnel(1, {0, 4});

  PreTeConfig config;
  config.beta = 0.9;
  PreTeScheme prete({0.005, 0.009, 0.001}, config);
  DegradationScenario s = DegradationScenario::none(3);
  s.degraded[0] = true;
  s.predicted_prob[0] = 0.5;
  // 5 + 5 units as in the worked example (link capacity is 10, so both
  // flows can share the s1-s3 link once s1s2 is gone).
  const auto outcome = prete.compute_for_degradation(
      topo.network, topo.flows, tunnels, {5.0, 5.0}, s);

  TeProblem problem;
  problem.network = &topo.network;
  problem.flows = &topo.flows;
  problem.tunnels = &tunnels;
  problem.demands = {5.0, 5.0};
  const FailureScenario cut({0}, 1.0);
  const auto losses =
      flow_losses(problem, outcome.solver_result.policy, cut);
  // Figure 7(b): "our approach still supports 10 units" for both flows.
  EXPECT_LT(losses[0], 1e-5);
  EXPECT_LT(losses[1], 1e-5);
}

TEST(PreTeTest, SizeMismatchThrows) {
  net::Topology topo = net::make_triangle();
  net::TunnelSet tunnels(2);
  tunnels.add_tunnel(0, {0});
  tunnels.add_tunnel(1, {2});
  PreTeScheme prete({0.01, 0.01});  // wrong size: triangle has 3 fibers
  EXPECT_THROW(prete.compute_for_degradation(topo.network, topo.flows, tunnels,
                                             {10.0, 10.0},
                                             DegradationScenario::none(3)),
               std::invalid_argument);
}

TEST(PreTeTest, ComputeWithPreparedRejectsMismatchedSizes) {
  // Demands must hold one entry per flow and the believed degradation mask
  // one per fiber. A mismatch throws before the tunnel updates, so the
  // tunnel table and the shape cache stay as they were.
  net::Topology topo = net::make_triangle();
  net::TunnelSet tunnels(2);
  tunnels.add_tunnel(0, {0});
  tunnels.add_tunnel(1, {2});
  PreTeConfig config;
  config.beta = 0.9;
  PreTeScheme prete({0.01, 0.01, 0.01}, config);
  DegradationScenario s = DegradationScenario::none(3);
  s.degraded[0] = true;
  s.predicted_prob[0] = 0.45;
  const PreTeScheme::Prepared prepared =
      prete.prepare_scenarios(topo.network, s);

  for (const net::TrafficMatrix& demands :
       {net::TrafficMatrix{10.0}, net::TrafficMatrix{10.0, 10.0, 10.0}}) {
    EXPECT_THROW(prete.compute_with_prepared(topo.network, topo.flows, tunnels,
                                             demands, prepared),
                 std::invalid_argument);
  }
  for (const std::size_t fibers : {2u, 4u}) {
    PreTeScheme::Prepared resized = prepared;
    resized.believed.degraded.resize(fibers, false);
    EXPECT_THROW(prete.compute_with_prepared(topo.network, topo.flows, tunnels,
                                             {10.0, 10.0}, resized),
                 std::invalid_argument);
  }
  EXPECT_EQ(tunnels.num_tunnels(), 2);
  EXPECT_EQ(prete.cache_stats().shapes, 0);

  // The well-sized call still runs the reactive update.
  const auto outcome = prete.compute_with_prepared(
      topo.network, topo.flows, tunnels, {10.0, 10.0}, prepared);
  EXPECT_FALSE(outcome.tunnel_update.created.empty());
}

TEST(PreTeTest, AlphaZeroMatchesStaticScenarios) {
  // "If alpha equals 0 ... PreTE degrades to the existing work."
  net::Topology topo = net::make_triangle();
  net::TunnelSet tunnels(2);
  tunnels.add_tunnel(0, {0});
  tunnels.add_tunnel(0, {2, 5});
  tunnels.add_tunnel(1, {2});
  tunnels.add_tunnel(1, {0, 4});
  PreTeConfig config;
  config.alpha = 0.0;
  config.beta = 0.95;
  PreTeScheme prete({0.02, 0.03, 0.01}, config);
  const auto outcome = prete.compute_for_degradation(
      topo.network, topo.flows, tunnels, {10.0, 10.0},
      DegradationScenario::none(3));
  EXPECT_NEAR(outcome.scenarios.scenarios[0].probability,
              0.98 * 0.97 * 0.99, 1e-12);
}

// Regression for the basis-cache shape bound: overflowing the 16-shape cap
// used to clear every cached entry at once; it must instead evict exactly
// the least-recently-used shape, deterministically, and report it.
TEST(PreTeTest, ShapeCacheEvictsLeastRecentlyUsedOnOverflow) {
  net::Topology topo = net::make_triangle();
  PreTeConfig config;
  config.beta = 0.95;
  PreTeScheme prete({0.02, 0.02, 0.02}, config);

  // Each extra tunnel changes the problem-shape signature, so `extra`
  // indexes a distinct cache entry.
  auto solve_shape = [&](int extra) {
    net::TunnelSet tunnels(2);
    tunnels.add_tunnel(0, {0});
    tunnels.add_tunnel(0, {2, 5});
    tunnels.add_tunnel(1, {2});
    for (int i = 0; i < extra; ++i) tunnels.add_tunnel(1, {0, 4});
    prete.compute_for_degradation(topo.network, topo.flows, tunnels,
                                  {10.0, 10.0}, DegradationScenario::none(3));
  };

  for (int shape = 0; shape < 16; ++shape) solve_shape(shape);
  auto stats = prete.cache_stats();
  EXPECT_EQ(stats.shapes, 16);
  EXPECT_EQ(stats.evictions, 0);

  // Refresh shape 0, then add a 17th distinct shape: the victim must be the
  // least recently used (shape 1), not shape 0 and not the whole cache.
  solve_shape(0);
  solve_shape(16);
  stats = prete.cache_stats();
  EXPECT_EQ(stats.shapes, 16);
  EXPECT_EQ(stats.evictions, 1);

  // Shape 0 survived the eviction: re-solving it is a basis-cache hit and
  // evicts nothing further.
  const int hits_before = stats.hits;
  solve_shape(0);
  stats = prete.cache_stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_GT(stats.hits, hits_before);

  // Shape 1 was the victim: bringing it back overflows again and evicts
  // exactly one more entry. The counters are monotone across evictions —
  // retired entries fold their hit/cold-start tallies into the aggregate.
  solve_shape(1);
  stats = prete.cache_stats();
  EXPECT_EQ(stats.shapes, 16);
  EXPECT_EQ(stats.evictions, 2);
  EXPECT_GE(stats.cold_starts, 17 + 1);  // every first solve of a shape + revisit
}

bool same_set(const ScenarioSet& a, const ScenarioSet& b) {
  if (a.scenarios.size() != b.scenarios.size() ||
      a.covered_probability != b.covered_probability ||
      a.dropped_scenarios != b.dropped_scenarios ||
      a.residual_probability != b.residual_probability) {
    return false;
  }
  for (std::size_t q = 0; q < a.scenarios.size(); ++q) {
    if (a.scenarios[q].failed() != b.scenarios[q].failed() ||
        a.scenarios[q].probability != b.scenarios[q].probability) {
      return false;
    }
  }
  return true;
}

// An unchanged calibrated vector reuses the last scenario set: the source
// runs once for two equal preparations and again once a probability moves.
TEST(PreTeTest, UnchangedProbabilitiesReuseTheScenarioSet) {
  const net::Topology topo = net::make_triangle();
  std::atomic<int> calls{0};
  PreTeConfig config;
  config.scenario_source = [&calls](const std::vector<double>& probs) {
    ++calls;
    return generate_failure_scenarios(probs);
  };
  const PreTeScheme prete({0.02, 0.03, 0.01}, config);
  const DegradationScenario none = DegradationScenario::none(3);
  const ScenarioSet first = prete.prepare_scenarios(topo.network, none).scenarios;
  const ScenarioSet again = prete.prepare_scenarios(topo.network, none).scenarios;
  EXPECT_EQ(calls.load(), 1);
  EXPECT_TRUE(same_set(first, again));

  DegradationScenario degraded = none;
  degraded.degraded[1] = true;
  degraded.predicted_prob[1] = 0.4;
  const ScenarioSet moved =
      prete.prepare_scenarios(topo.network, degraded).scenarios;
  EXPECT_EQ(calls.load(), 2);
  EXPECT_FALSE(same_set(first, moved));
  EXPECT_TRUE(same_set(
      prete.prepare_scenarios(topo.network, none).scenarios, first));
  EXPECT_EQ(calls.load(), 3);
}

// Four threads preparing at once, over alternating inputs that keep the
// memo churning, get exactly the sets a serial run produces.
TEST(PreTeTest, ConcurrentPreparationsMatchSerial) {
  const net::Topology topo = net::make_triangle();
  std::vector<DegradationScenario> inputs;
  for (int i = 0; i < 4; ++i) {
    DegradationScenario s = DegradationScenario::none(3);
    if (i % 2 == 1) {
      s.degraded[static_cast<std::size_t>(i % 3)] = true;
      s.predicted_prob[static_cast<std::size_t>(i % 3)] = 0.1 * (i + 1);
    }
    inputs.push_back(s);
  }
  std::vector<ScenarioSet> serial;
  {
    const PreTeScheme prete({0.02, 0.03, 0.01});
    for (const DegradationScenario& s : inputs) {
      serial.push_back(prete.prepare_scenarios(topo.network, s).scenarios);
    }
  }
  const PreTeScheme shared({0.02, 0.03, 0.01});
  std::vector<std::vector<ScenarioSet>> got(inputs.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < inputs.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 25; ++round) {
        const std::size_t i = (t + static_cast<std::size_t>(round)) % inputs.size();
        got[t].push_back(
            shared.prepare_scenarios(topo.network, inputs[i]).scenarios);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < inputs.size(); ++t) {
    for (std::size_t round = 0; round < got[t].size(); ++round) {
      EXPECT_TRUE(same_set(got[t][round], serial[(t + round) % inputs.size()]))
          << "thread " << t << " round " << round;
    }
  }
}

}  // namespace
}  // namespace prete::te
