// Cross-epoch basis cache: replay recipes keyed by scenario pattern survive
// the probability re-sort reduce_scenarios applies every epoch, and the
// hit/rejection counters report installed seeds, not offered ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/topology.h"
#include "te/minmax.h"
#include "te/scenario.h"

namespace prete::te {
namespace {

// Triangle under capacity pressure (demands equal capacity), so the
// subproblem and the refinement grow several lazy rows worth carrying.
struct Fixture {
  net::Topology topo = net::make_triangle();
  net::TunnelSet tunnels{2};
  TeProblem problem;

  Fixture() {
    tunnels.add_tunnel(0, {0});     // flow s1->s2 direct
    tunnels.add_tunnel(0, {2, 5});  // s1->s3->s2
    tunnels.add_tunnel(1, {2});     // flow s1->s3 direct
    tunnels.add_tunnel(1, {0, 4});  // s1->s2->s3
    problem.network = &topo.network;
    problem.flows = &topo.flows;
    problem.tunnels = &tunnels;
    problem.demands = {10.0, 10.0};
  }
};

std::vector<std::uint64_t> signatures(const ScenarioSet& set) {
  std::vector<std::uint64_t> out;
  for (const FailureScenario& s : set.scenarios) {
    out.push_back(s.signature());
  }
  return out;
}

TEST(BasisCacheTest, ReorderedScenarioSetStillInstallsBothSeeds) {
  Fixture fx;
  const std::vector<double> probs1{0.02, 0.03, 0.01};
  const ScenarioSet epoch1 =
      reduce_scenarios(generate_failure_scenarios(probs1), ReductionOptions{});
  MinMaxOptions options;
  options.beta = 0.97;
  // Epoch 2 permutes the per-fiber probabilities: the same failure patterns
  // with permuted probabilities, which the probability-sorted reduction
  // lists in a different order. The first permutation keeps phi at 0, so
  // the refinement recipe carries guarantee rows; the second lands at
  // phi = 0.5, past the guarantee threshold (pure CVaR rows).
  for (const std::vector<double>& probs2 :
       {std::vector<double>{0.02, 0.01, 0.03},
        std::vector<double>{0.03, 0.01, 0.02}}) {
    const ScenarioSet epoch2 = reduce_scenarios(
        generate_failure_scenarios(probs2), ReductionOptions{});
    std::vector<std::uint64_t> sig1 = signatures(epoch1);
    std::vector<std::uint64_t> sig2 = signatures(epoch2);
    ASSERT_NE(sig1, sig2);
    std::sort(sig1.begin(), sig1.end());
    std::sort(sig2.begin(), sig2.end());
    ASSERT_EQ(sig1, sig2);

    BasisCache cache;
    ASSERT_TRUE(
        solve_min_max_benders(fx.problem, epoch1, options, &cache).converged);
    // Subproblem and refinement both started cold: nothing was on offer.
    EXPECT_EQ(cache.hits, 0);
    EXPECT_EQ(cache.cold_starts, 2);
    EXPECT_EQ(cache.rejected, 0);

    const MinMaxResult cold =
        solve_min_max_benders(fx.problem, epoch2, options);
    const MinMaxResult warm =
        solve_min_max_benders(fx.problem, epoch2, options, &cache);
    ASSERT_TRUE(cold.converged);
    ASSERT_TRUE(warm.converged);
    // Both carried bases were installed: the subproblem's and the
    // refinement's recipes found every pattern at its new index.
    EXPECT_EQ(cache.hits, 2);
    EXPECT_EQ(cache.rejected, 0);
    EXPECT_EQ(cache.cold_starts, 2);
    EXPECT_LT(warm.simplex_pivots, cold.simplex_pivots);
    EXPECT_NEAR(warm.phi, cold.phi, 1e-9);
  }
}

}  // namespace
}  // namespace prete::te
