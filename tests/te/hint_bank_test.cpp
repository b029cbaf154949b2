// HintBank, the vote-only learned warm start: deterministic bounded
// reservoir, abstention below the example floor, the record -> vote ->
// verified-accept loop against the real Benders solver (bitwise across pool
// sizes), and the bank's lifetime under PreTeScheme's shape LRU.
#include <gtest/gtest.h>

#include <vector>

#include "net/topology.h"
#include "runtime/thread_pool.h"
#include "te/minmax.h"
#include "te/prete.h"

namespace prete::te {
namespace {

struct Fixture {
  net::Topology topo = net::make_triangle();
  net::TunnelSet tunnels{2};
  TeProblem problem;

  Fixture() {
    tunnels.add_tunnel(0, {0});
    tunnels.add_tunnel(0, {2, 5});
    tunnels.add_tunnel(1, {2});
    tunnels.add_tunnel(1, {0, 4});
    problem.network = &topo.network;
    problem.flows = &topo.flows;
    problem.tunnels = &tunnels;
    problem.demands = {10.0, 10.0};
  }
};

MinMaxOptions options_for(const ScenarioSet& set) {
  MinMaxOptions options;
  options.beta = std::min(0.95, set.covered_probability);
  return options;
}

TEST(TraceDatasetTest, BoundedWithDeterministicRetention) {
  // Arrival i is marked by its single active row's flow id.
  auto feed = [](HintBank& bank, std::uint64_t signature, int n) {
    for (int i = 0; i < n; ++i) {
      MinMaxResult result;
      result.converged = true;
      result.policy.allocation = {1.0};
      result.trace_active_rows = {{i, 0, 0.0}};
      bank.record(signature, result);
    }
  };
  HintBank a, b;
  feed(a, 42, 100);
  feed(b, 42, 100);
  EXPECT_EQ(a.seen, 100u);
  EXPECT_EQ(a.traces.size(), HintBank::kCapacity);
  ASSERT_EQ(a.traces.size(), b.traces.size());
  for (std::size_t i = 0; i < a.traces.size(); ++i) {
    EXPECT_EQ(a.traces[i].active_rows[0].flow, b.traces[i].active_rows[0].flow)
        << "slot " << i;
  }
  // The retained set is a genuine sample of the stream, not just its head
  // or tail: at 100 arrivals into 32 slots some replacement must occur.
  bool replaced = false;
  for (const HintBank::Trace& t : a.traces) {
    replaced |= t.active_rows[0].flow >= static_cast<int>(HintBank::kCapacity);
  }
  EXPECT_TRUE(replaced);

  // Another shape seeds another reservoir, within the same bound; a shape
  // change starts the bank fresh.
  HintBank c;
  feed(c, 43, 100);
  EXPECT_EQ(c.traces.size(), HintBank::kCapacity);
  feed(a, 43, 1);
  EXPECT_EQ(a.signature, 43u);
  EXPECT_EQ(a.seen, 1u);
  EXPECT_EQ(a.traces.size(), 1u);
}

TEST(WarmStartOracleTest, AbstainsOnUnknownOrUndertrainedShapes) {
  Fixture fx;
  const std::uint64_t signature = problem_shape_signature(fx.problem);
  HintBank bank;
  EXPECT_FALSE(bank.hint(signature).has_value());

  const auto set = generate_failure_scenarios({0.02, 0.03, 0.01});
  MinMaxOptions traced = options_for(set);
  traced.collect_trace = true;
  const MinMaxResult cold = solve_min_max_benders(fx.problem, set, traced);
  ASSERT_TRUE(cold.converged);

  bank.record(signature, cold);  // one example < kMinExamples: abstains
  EXPECT_FALSE(bank.hint(signature).has_value());

  bank.record(signature, cold);
  EXPECT_TRUE(bank.hint(signature).has_value());
  EXPECT_FALSE(bank.hint(signature ^ 1).has_value());  // another shape
  EXPECT_EQ(bank.issued, 1);

  // Unconverged results are counted but never recorded.
  MinMaxResult unconverged = cold;
  unconverged.converged = false;
  bank.record(signature, unconverged);
  EXPECT_EQ(bank.seen, 2u);
}

// End to end against the real solver: recorded traces vote a hint the
// solver accepts, and on this instance the hinted solve converges to the
// bitwise-identical objective with fewer pivots.
TEST(WarmStartOracleTest, LearnedHintIsAcceptedAndPreservesPhiBitwise) {
  Fixture fx;
  const std::uint64_t signature = problem_shape_signature(fx.problem);
  const auto set = generate_failure_scenarios({0.02, 0.03, 0.01});
  MinMaxOptions traced = options_for(set);
  traced.collect_trace = true;

  HintBank bank;
  MinMaxResult cold;
  for (int epoch = 0; epoch < 3; ++epoch) {
    cold = solve_min_max_benders(fx.problem, set, traced);
    ASSERT_TRUE(cold.converged);
    bank.record(signature, cold);
  }

  const auto hint = bank.hint(signature);
  ASSERT_TRUE(hint.has_value());
  EXPECT_EQ(hint->shape_signature, signature);
  EXPECT_FALSE(hint->drops.empty());

  MinMaxOptions hinted_options = options_for(set);
  hinted_options.warm_hint = &*hint;
  const MinMaxResult hinted =
      solve_min_max_benders(fx.problem, set, hinted_options);
  EXPECT_EQ(hinted.hint_accepted, 1);
  EXPECT_EQ(hinted.hint_rejected, 0);
  ASSERT_TRUE(hinted.converged);
  EXPECT_EQ(hinted.phi, cold.phi);
  EXPECT_LT(hinted.simplex_pivots, cold.simplex_pivots);

  bank.record(signature, hinted);
  EXPECT_EQ(bank.accepted, 1);
  EXPECT_EQ(bank.rejected, 0);
}

// The whole record -> vote pipeline is a pure function of the solve
// sequence, so the emitted hint is bitwise identical at any pool size.
TEST(WarmStartOracleTest, TrainingAndPredictionBitIdenticalAcrossThreads) {
  auto run_sequence = []() {
    Fixture fx;
    const std::uint64_t signature = problem_shape_signature(fx.problem);
    const auto set = generate_failure_scenarios({0.02, 0.03, 0.01});
    MinMaxOptions traced = options_for(set);
    traced.collect_trace = true;
    HintBank bank;
    for (int epoch = 0; epoch < 3; ++epoch) {
      bank.record(signature, solve_min_max_benders(fx.problem, set, traced));
    }
    return bank.hint(signature);
  };

  runtime::ThreadPool::set_global_threads(1);
  const auto serial = run_sequence();
  runtime::ThreadPool::set_global_threads(4);
  const auto pooled = run_sequence();
  runtime::ThreadPool::set_global_threads(0);  // restore default

  ASSERT_TRUE(serial.has_value());
  ASSERT_TRUE(pooled.has_value());
  EXPECT_EQ(serial->shape_signature, pooled->shape_signature);
  ASSERT_EQ(serial->drops.size(), pooled->drops.size());
  for (std::size_t i = 0; i < serial->drops.size(); ++i) {
    EXPECT_EQ(serial->drops[i].flow, pooled->drops[i].flow);
    EXPECT_EQ(serial->drops[i].pattern, pooled->drops[i].pattern);
    EXPECT_EQ(serial->drops[i].weight, pooled->drops[i].weight);
  }
  ASSERT_EQ(serial->active_rows.size(), pooled->active_rows.size());
  for (std::size_t i = 0; i < serial->active_rows.size(); ++i) {
    EXPECT_EQ(serial->active_rows[i].flow, pooled->active_rows[i].flow);
    EXPECT_EQ(serial->active_rows[i].pattern, pooled->active_rows[i].pattern);
  }
}

// Hint banks live in PreTeScheme's per-shape state, so they share its
// 16-shape LRU: an evicted shape loses its votes with its basis and cuts,
// while the hint counters stay monotone across the eviction.
TEST(WarmStartOracleTest, ShapeTableIsLruBounded) {
  net::Topology topo = net::make_triangle();
  PreTeConfig config;
  config.beta = 0.95;
  config.learned_warm_start = true;
  PreTeScheme prete({0.02, 0.03, 0.01}, config);

  // Each extra tunnel changes the problem-shape signature.
  auto solve_shape = [&](int extra) {
    net::TunnelSet tunnels(2);
    tunnels.add_tunnel(0, {0});
    tunnels.add_tunnel(0, {2, 5});
    tunnels.add_tunnel(1, {2});
    for (int i = 0; i < extra; ++i) tunnels.add_tunnel(1, {0, 4});
    return prete.compute_for_degradation(topo.network, topo.flows, tunnels,
                                         {10.0, 10.0},
                                         DegradationScenario::none(3));
  };

  solve_shape(0);
  solve_shape(0);
  EXPECT_EQ(prete.cache_stats().hints_issued, 0);  // still recording
  EXPECT_EQ(solve_shape(0).solver_result.hint_accepted, 1);
  auto stats = prete.cache_stats();
  EXPECT_EQ(stats.hints_issued, 1);
  EXPECT_EQ(stats.hints_accepted, 1);

  // Sixteen newer shapes push shape 0 out of the table...
  for (int shape = 1; shape <= 16; ++shape) solve_shape(shape);
  stats = prete.cache_stats();
  EXPECT_EQ(stats.shapes, 16);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.hints_issued, 1);
  EXPECT_EQ(stats.hints_accepted, 1);

  // ...so its next solve starts recording from scratch.
  const auto revisit = solve_shape(0);
  EXPECT_EQ(revisit.solver_result.hint_accepted, 0);
  EXPECT_EQ(revisit.solver_result.hint_rejected, 0);
  EXPECT_EQ(prete.cache_stats().hints_issued, 1);
}

}  // namespace
}  // namespace prete::te
