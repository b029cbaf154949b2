// te::SurvivalIndex against its definition: for every (flow, pattern) the
// index lists exactly the flow's tunnels that TunnelSet::alive keeps, in
// tunnels_for_flow order, and an empty entry reads as fatal. Covered over
// random topologies, tunnel sets grown by Algorithm 1, the independent and
// SRLG scenario generators, FFC's failure sets, and concurrent readers.
// Random patterns are also checked against a fiber-mask reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/topology.h"
#include "runtime/parallel.h"
#include "te/lp_common.h"
#include "te/scenario.h"
#include "te/tunnel_update.h"
#include "util/rng.h"

namespace prete::te {
namespace {

std::vector<net::TunnelId> alive_tunnels(
    const TeProblem& problem, net::FlowId f,
    const std::vector<net::FiberId>& failed) {
  std::vector<net::TunnelId> out;
  for (net::TunnelId t : problem.tunnels->tunnels_for_flow(f)) {
    if (problem.tunnels->alive(*problem.network, t, failed)) out.push_back(t);
  }
  return out;
}

// The reference the id lists replaced: a tunnel survives a fiber mask when
// no link of its path rides a fiber whose bit is set.
std::vector<net::TunnelId> mask_alive_tunnels(const TeProblem& problem,
                                              net::FlowId f,
                                              const std::vector<bool>& mask) {
  std::vector<net::TunnelId> out;
  for (net::TunnelId t : problem.tunnels->tunnels_for_flow(f)) {
    bool alive = true;
    for (net::LinkId e : problem.tunnels->tunnel(t).path) {
      alive = alive && !mask[static_cast<std::size_t>(
                           problem.network->link(e).fiber)];
    }
    if (alive) out.push_back(t);
  }
  return out;
}

// Every entry of `index` equals the alive filter of its pattern. Returns
// the number of fatal pairs seen, so callers can check a case covers some.
int expect_matches_alive(const TeProblem& problem, const SurvivalIndex& index,
                         const std::vector<FailureScenario>& patterns,
                         const std::string& label) {
  int fatal = 0;
  for (std::size_t q = 0; q < patterns.size(); ++q) {
    for (net::FlowId f = 0; f < problem.tunnels->num_flows(); ++f) {
      const std::vector<net::TunnelId> want =
          alive_tunnels(problem, f, patterns[q].failed());
      const auto got = index.surviving(f, q);
      EXPECT_EQ(std::vector<net::TunnelId>(got.begin(), got.end()), want)
          << label << " flow " << f << " q " << q;
      EXPECT_EQ(index.fatal(f, q), want.empty())
          << label << " flow " << f << " q " << q;
      if (want.empty()) ++fatal;
    }
  }
  return fatal;
}

int expect_index_matches(const TeProblem& problem, const ScenarioSet& set,
                         const std::string& label) {
  return expect_matches_alive(problem, SurvivalIndex(problem, set.scenarios),
                              set.scenarios, label);
}

TeProblem problem_for(const net::Topology& topo,
                      const net::TunnelSet& tunnels) {
  TeProblem problem;
  problem.network = &topo.network;
  problem.flows = &topo.flows;
  problem.tunnels = &tunnels;
  problem.demands.assign(topo.flows.size(), 1.0);
  return problem;
}

std::vector<double> random_cut_probs(int fibers, util::Rng& rng) {
  std::vector<double> probs(static_cast<std::size_t>(fibers));
  for (double& p : probs) p = rng.uniform(1e-4, 0.05);
  return probs;
}

// Patterns with 1..4 random fibers cut: deeper than the generators
// enumerate, so tunnels die in bunches and fatal pairs appear.
ScenarioSet random_patterns(int fibers, int count, util::Rng& rng) {
  ScenarioSet set;
  for (int i = 0; i < count; ++i) {
    std::vector<net::FiberId> failed;
    const std::uint64_t cuts = 1 + rng.next_below(4);
    for (std::uint64_t c = 0; c < cuts; ++c) {
      failed.push_back(static_cast<net::FiberId>(
          rng.next_below(static_cast<std::uint64_t>(fibers))));
    }
    std::sort(failed.begin(), failed.end());
    failed.erase(std::unique(failed.begin(), failed.end()), failed.end());
    set.scenarios.emplace_back(std::move(failed), 1.0 / count);
  }
  return set;
}

class SurvivalIndexProperty : public ::testing::TestWithParam<int> {};

TEST_P(SurvivalIndexProperty, RandomTopologyMatchesAlive) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const net::Topology topo = net::make_twan(seed);
  const net::TunnelSet tunnels = net::build_tunnels(topo.network, topo.flows);
  const TeProblem problem = problem_for(topo, tunnels);
  util::Rng rng(seed);
  const int fibers = topo.network.num_fibers();
  expect_index_matches(
      problem, generate_failure_scenarios(random_cut_probs(fibers, rng)),
      "generated");
  const ScenarioSet random = random_patterns(fibers, 120, rng);
  const int fatal = expect_index_matches(problem, random, "random");
  EXPECT_GT(fatal, 0) << "random patterns should cut some flow off";
  const SurvivalIndex index(problem, random.scenarios);
  for (std::size_t q = 0; q < random.scenarios.size(); ++q) {
    std::vector<bool> mask(static_cast<std::size_t>(fibers), false);
    for (net::FiberId i : random.scenarios[q].failed()) {
      mask[static_cast<std::size_t>(i)] = true;
    }
    for (net::FlowId f = 0; f < tunnels.num_flows(); ++f) {
      const auto got = index.surviving(f, q);
      EXPECT_EQ(std::vector<net::TunnelId>(got.begin(), got.end()),
                mask_alive_tunnels(problem, f, mask))
          << "mask reference flow " << f << " q " << q;
    }
  }
}

TEST_P(SurvivalIndexProperty, DegradationGrownTunnelsMatchAlive) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const net::Topology topo =
      seed % 2 == 0 ? net::make_b4() : net::make_twan(seed);
  net::TunnelSet tunnels = net::build_tunnels(topo.network, topo.flows);
  util::Rng rng(seed);
  const int fibers = topo.network.num_fibers();
  int dynamic = 0;
  for (int round = 0; round < 3; ++round) {
    const auto degraded = static_cast<net::FiberId>(
        rng.next_below(static_cast<std::uint64_t>(fibers)));
    const TunnelUpdateResult r = update_tunnels_for_degradation(
        topo.network, topo.flows, tunnels, degraded);
    dynamic += static_cast<int>(r.created.size());
    const TeProblem problem = problem_for(topo, tunnels);
    const std::string label = "round " + std::to_string(round);
    expect_index_matches(
        problem, generate_failure_scenarios(random_cut_probs(fibers, rng)),
        label + " generated");
    expect_index_matches(problem, random_patterns(fibers, 60, rng),
                         label + " random");
  }
  EXPECT_GT(dynamic, 0) << "no degradation created a dynamic tunnel";
}

TEST_P(SurvivalIndexProperty, SrlgScenariosMatchAlive) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const net::Topology topo = net::make_twan(seed);
  const net::TunnelSet tunnels = net::build_tunnels(topo.network, topo.flows);
  const TeProblem problem = problem_for(topo, tunnels);
  util::Rng rng(seed);
  CorrelatedFailureModel model;
  model.num_fibers = topo.network.num_fibers();
  model.background = random_cut_probs(model.num_fibers, rng);
  // Conduit events over consecutive fiber ids, each cutting most members.
  for (int first = 0; first + 3 <= model.num_fibers; first += 5) {
    CutEvent event;
    event.fibers = {first, first + 1, first + 2};
    event.probability = rng.uniform(0.001, 0.02);
    event.conditional = {0.9, 0.8, 0.7};
    event.name = "conduit:" + std::to_string(first);
    model.events.push_back(std::move(event));
  }
  const ScenarioSet set = generate_correlated_scenarios(model);
  bool multi = false;
  for (const FailureScenario& s : set.scenarios) {
    multi = multi || s.failed().size() >= 3;
  }
  EXPECT_TRUE(multi) << "no scenario cut a whole conduit";
  expect_index_matches(problem, set, "srlg");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SurvivalIndexProperty, ::testing::Range(1, 7));

TEST(SurvivalIndexTest, FfcFailureSetsMatchAlive) {
  // FFC's failure sets: every single and pair fiber cut.
  const net::Topology topo = net::make_b4();
  const net::TunnelSet tunnels = net::build_tunnels(topo.network, topo.flows);
  const TeProblem problem = problem_for(topo, tunnels);
  ScenarioSet sets;
  for (net::FiberId i = 0; i < topo.network.num_fibers(); ++i) {
    sets.scenarios.emplace_back(std::vector<net::FiberId>{i});
    for (net::FiberId j = i + 1; j < topo.network.num_fibers(); ++j) {
      sets.scenarios.emplace_back(std::vector<net::FiberId>{i, j});
    }
  }
  EXPECT_GT(expect_index_matches(problem, sets, "ffc"), 0)
      << "some pair cut should disconnect a B4 flow";
}

TEST(SurvivalIndexTest, FlowWithNoSurvivorReadsFatal) {
  net::Topology topo = net::make_triangle();
  net::TunnelSet tunnels(2);
  tunnels.add_tunnel(0, {0});     // s1->s2 direct
  tunnels.add_tunnel(1, {2});     // s1->s3 direct
  tunnels.add_tunnel(1, {0, 4});  // s1->s2->s3
  const TeProblem problem = problem_for(topo, tunnels);
  ScenarioSet set;
  set.scenarios.emplace_back();
  set.scenarios.emplace_back(
      std::vector<net::FiberId>{topo.network.link(0).fiber});
  const SurvivalIndex index(problem, set.scenarios);
  EXPECT_FALSE(index.fatal(0, 0));
  EXPECT_TRUE(index.fatal(0, 1));
  EXPECT_TRUE(index.surviving(0, 1).empty());
  // Flow 1 keeps its direct tunnel under the same cut.
  const auto kept = index.surviving(1, 1);
  EXPECT_EQ(std::vector<net::TunnelId>(kept.begin(), kept.end()),
            std::vector<net::TunnelId>{1});
  EXPECT_EQ(expect_index_matches(problem, set, "triangle"), 1);
}

TEST(SurvivalIndexTest, ConcurrentReadersSeeTheSerialEntries) {
  // The index is read-only once built, so any number of threads may read
  // it at once and each sees the entries a serial reader sees.
  const net::Topology topo = net::make_twan(3);
  const net::TunnelSet tunnels = net::build_tunnels(topo.network, topo.flows);
  const TeProblem problem = problem_for(topo, tunnels);
  util::Rng rng(3);
  const ScenarioSet set =
      random_patterns(topo.network.num_fibers(), 200, rng);
  const SurvivalIndex index(problem, set.scenarios);
  std::vector<char> ok(set.scenarios.size(), 0);
  runtime::parallel_for(set.scenarios.size(), [&](std::size_t q) {
    bool match = true;
    for (net::FlowId f = 0; f < tunnels.num_flows(); ++f) {
      const auto got = index.surviving(f, q);
      match = match &&
              std::vector<net::TunnelId>(got.begin(), got.end()) ==
                  alive_tunnels(problem, f, set.scenarios[q].failed());
    }
    ok[q] = match ? 1 : 0;
  });
  for (std::size_t q = 0; q < ok.size(); ++q) EXPECT_EQ(ok[q], 1) << "q " << q;
}

TEST(SurvivalIndexTest, RejectsFiberOutOfRange) {
  // A pluggable ScenarioSource is input from outside TE: an id the network
  // does not have must not index past the per-fiber rider lists.
  const net::Topology topo = net::make_triangle();
  const net::TunnelSet tunnels = net::build_tunnels(topo.network, topo.flows);
  const TeProblem problem = problem_for(topo, tunnels);
  const std::vector<FailureScenario> patterns{
      FailureScenario({topo.network.num_fibers()})};
  EXPECT_THROW(SurvivalIndex(problem, patterns), std::invalid_argument);
}

}  // namespace
}  // namespace prete::te
