// The CVaR refinement keeps loss <= Phi* on every guaranteed pair however
// many rows that takes. On B4 at base demand, a periodic run followed by a
// fiber-5 degradation replays the periodic refinement's rows and then needs
// more than 900 model rows to price every guarantee row; the optimum over
// the first 906 rows leaves 45 guaranteed pairs with no traffic at
// Phi* = 0.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/topology.h"
#include "net/traffic.h"
#include "optical/fiber_model.h"
#include "te/evaluator.h"
#include "te/prete.h"
#include "util/rng.h"

namespace prete::te {
namespace {

TEST(RefinementTest, B4RefinementPastNineHundredRowsKeepsEveryGuarantee) {
  const net::Topology topo = net::make_b4();
  // The b4_degradation plant: per-fiber static probabilities and the base
  // demand matrix, both from fixed seeds.
  util::Rng plant_rng(11);
  const auto params = optical::build_plant_model(topo.network, plant_rng);
  std::vector<double> static_probs;
  for (const optical::FiberModelParams& p : params) {
    static_probs.push_back(0.4 * p.degradation_prob_per_epoch +
                           p.abrupt_cut_prob_per_epoch);
  }
  util::Rng traffic_rng(12);
  net::TrafficConfig tc;
  tc.diurnal_swing = 0.0;
  tc.noise = 0.0;
  const net::TrafficMatrix demands =
      net::generate_traffic(topo.network, topo.flows, traffic_rng, tc)[0];

  PreTeConfig config;
  PreTeScheme scheme(static_probs, config);
  net::TunnelSet tunnels = net::build_tunnels(topo.network, topo.flows);
  // The periodic run leaves the refinement rows the degraded decision
  // replays.
  scheme.compute_for_degradation(
      topo.network, topo.flows, tunnels, demands,
      DegradationScenario::none(topo.network.num_fibers()));
  DegradationScenario degradation =
      DegradationScenario::none(topo.network.num_fibers());
  degradation.degraded[5] = true;
  degradation.predicted_prob[5] = 0.96;
  const PreTeScheme::Outcome outcome = scheme.compute_for_degradation(
      topo.network, topo.flows, tunnels, demands, degradation);
  const MinMaxResult& result = outcome.solver_result;
  ASSERT_TRUE(result.converged);
  ASSERT_LE(result.phi, kGuaranteeThreshold);

  TeProblem problem;
  problem.network = &topo.network;
  problem.flows = &topo.flows;
  problem.tunnels = &tunnels;
  problem.demands = demands;
  // delta names the kept pairs: dropped and pinned fatal pairs are 0.
  const auto& Q = outcome.scenarios.scenarios;
  ASSERT_EQ(result.delta.size(), topo.flows.size());
  int guaranteed = 0;
  int violated = 0;
  double worst = 0.0;
  for (std::size_t q = 0; q < Q.size(); ++q) {
    const std::vector<double> losses =
        flow_losses(problem, result.policy, Q[q]);
    for (const net::Flow& flow : topo.flows) {
      const std::vector<char>& kept =
          result.delta[static_cast<std::size_t>(flow.id)];
      ASSERT_EQ(kept.size(), Q.size());
      if (kept[q] == 0) continue;
      ++guaranteed;
      const double loss = losses[static_cast<std::size_t>(flow.id)];
      if (loss > result.phi + 1e-6) {
        ++violated;
        worst = std::max(worst, loss);
      }
    }
  }
  EXPECT_GT(guaranteed, 0);
  EXPECT_EQ(violated, 0) << "worst loss " << worst << " at phi "
                         << result.phi;
  const double beta =
      std::min(config.beta, outcome.scenarios.covered_probability);
  EXPECT_LE(evaluate_phi(problem, outcome.scenarios, beta, result.policy),
            result.phi + 1e-6);
}

}  // namespace
}  // namespace prete::te
