// PreTE decisions on B4 keep the simplex's pivot paths. The LP kernel prices
// incrementally (cached reduced costs, devex weights from a row-wise scatter
// of the pivot row, a merit tree for the entering column), and every piece
// must reproduce a full pricing pass bit for bit. The TE LPs are where that
// shows: their symmetric tunnels and equal capacities make near-ties that
// the last bit of a devex weight decides, which random LPs almost never do.
// The digest below was recorded with the full-scan pricing engine; it folds
// each decision's pivot count and the bits of its phi and allocation. It
// assumes IEEE binary64 arithmetic without fused multiply-adds, the x86-64
// default.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "net/topology.h"
#include "net/traffic.h"
#include "optical/fiber_model.h"
#include "te/prete.h"
#include "util/hash.h"
#include "util/rng.h"

namespace prete::te {
namespace {

TEST(B4PivotPathTest, DegradationDecisionsKeepTheirPivots) {
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

  PreTeScheme scheme(static_probs, PreTeConfig{});
  net::TunnelSet tunnels = net::build_tunnels(topo.network, topo.flows);
  std::uint64_t digest = util::kFnvOffsetBasis;
  int pivots = 0;
  const auto decide = [&](const DegradationScenario& degradation) {
    const PreTeScheme::Outcome outcome = scheme.compute_for_degradation(
        topo.network, topo.flows, tunnels, demands, degradation);
    const MinMaxResult& result = outcome.solver_result;
    pivots += result.simplex_pivots;
    digest = util::fnv1a_u64(digest, static_cast<std::uint64_t>(result.simplex_pivots));
    digest = util::fnv1a_u64(digest, std::bit_cast<std::uint64_t>(result.phi));
    for (const double a : result.policy.allocation) {
      digest = util::fnv1a_u64(digest, std::bit_cast<std::uint64_t>(a));
    }
  };

  // A periodic decision, then one degraded fiber at a time.
  decide(DegradationScenario::none(topo.network.num_fibers()));
  for (int fiber = 0; fiber < 8; ++fiber) {
    DegradationScenario degradation =
        DegradationScenario::none(topo.network.num_fibers());
    degradation.degraded[static_cast<std::size_t>(fiber)] = true;
    degradation.predicted_prob[static_cast<std::size_t>(fiber)] = 0.96;
    decide(degradation);
  }
  EXPECT_GT(pivots, 1000);
  EXPECT_EQ(digest, 0x8368cd71032da6a3ULL) << std::hex << "digest 0x" << digest
                                           << std::dec << " over " << pivots << " pivots";
}

}  // namespace
}  // namespace prete::te
