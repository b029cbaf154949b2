// Warm-start hints: a verified hint accelerates the Benders solve; a hint
// failing any check — shape, flow range, malformed weights — is discarded
// whole, leaving the solve bit-for-bit the cold solve. The adversarial cases
// here are the contract: a hint is an accelerator, never an authority.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "net/topology.h"
#include "runtime/thread_pool.h"
#include "te/minmax.h"

namespace prete::te {
namespace {

// Same capacity-pressure triangle as the cut-bank suite: demands equal
// capacity, so master drop selection genuinely moves Phi.
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

MinMaxOptions options_for(const ScenarioSet& set) {
  MinMaxOptions options;
  options.beta = std::min(0.95, set.covered_probability);
  return options;
}

// A converged traced solve is exactly the material a HintBank records; a
// hint rebuilt from it verbatim is the best hint a vote could ever emit —
// the acceptance ceiling the learned path aims for.
WarmHint perfect_hint(const TeProblem& problem, const MinMaxResult& cold) {
  WarmHint hint;
  hint.shape_signature = problem_shape_signature(problem);
  hint.drops = cold.trace_drops;
  hint.active_rows = cold.trace_active_rows;
  return hint;
}

void expect_bitwise_equal(const MinMaxResult& a, const MinMaxResult& b) {
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.phi, b.phi);
  EXPECT_EQ(a.upper_bound, b.upper_bound);
  EXPECT_EQ(a.lower_bound, b.lower_bound);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.simplex_pivots, b.simplex_pivots);
  ASSERT_EQ(a.policy.allocation.size(), b.policy.allocation.size());
  for (std::size_t i = 0; i < a.policy.allocation.size(); ++i) {
    EXPECT_EQ(a.policy.allocation[i], b.policy.allocation[i]) << "tunnel " << i;
  }
}

TEST(WarmHintTest, TraceRecordsDropsWithEnvelopeWeightsAndActiveRows) {
  Fixture fx;
  const auto set = generate_failure_scenarios({0.02, 0.03, 0.01});
  MinMaxOptions options = options_for(set);
  options.collect_trace = true;

  const MinMaxResult cold = solve_min_max_benders(fx.problem, set, options);
  ASSERT_TRUE(cold.converged);
  ASSERT_FALSE(cold.trace_drops.empty());
  ASSERT_FALSE(cold.trace_active_rows.empty());
  for (const WarmHint::Pair& p : cold.trace_drops) {
    EXPECT_GE(p.flow, 0);
    EXPECT_LT(p.flow, static_cast<int>(fx.topo.flows.size()));
    // The master only drops pairs whose envelope weight is positive, so
    // every harvested drop must carry the weight that justified it.
    EXPECT_GT(p.weight, 0.0);
    EXPECT_TRUE(std::isfinite(p.weight));
  }
  for (const WarmHint::Pair& p : cold.trace_active_rows) {
    EXPECT_GE(p.flow, 0);
    EXPECT_LT(p.flow, static_cast<int>(fx.topo.flows.size()));
  }

  // Tracing is pure reporting: the traced solve matches the untraced one.
  const MinMaxResult plain =
      solve_min_max_benders(fx.problem, set, options_for(set));
  expect_bitwise_equal(cold, plain);
}

TEST(WarmHintTest, PerfectHintConvergesFasterWithBitwisePhi) {
  Fixture fx;
  const auto set = generate_failure_scenarios({0.02, 0.03, 0.01});
  MinMaxOptions traced = options_for(set);
  traced.collect_trace = true;
  const MinMaxResult cold = solve_min_max_benders(fx.problem, set, traced);
  ASSERT_TRUE(cold.converged);

  const WarmHint hint = perfect_hint(fx.problem, cold);
  MinMaxOptions hinted_options = options_for(set);
  hinted_options.warm_hint = &hint;
  const MinMaxResult hinted =
      solve_min_max_benders(fx.problem, set, hinted_options);

  ASSERT_TRUE(hinted.converged);
  EXPECT_EQ(hinted.hint_accepted, 1);
  EXPECT_EQ(hinted.hint_rejected, 0);
  // The steered master starts at the converged drop set, so the fresh cut
  // closes the gap immediately — fewer iterations and pivots...
  EXPECT_LT(hinted.iterations, cold.iterations);
  EXPECT_LT(hinted.simplex_pivots, cold.simplex_pivots);
  // ...at a bitwise-identical objective: the hint steered the search, the
  // LP values alone decided the answer.
  EXPECT_EQ(hinted.phi, cold.phi);
  EXPECT_EQ(hinted.upper_bound, cold.upper_bound);
  EXPECT_FALSE(hinted.bound_crossed);
}

TEST(WarmHintTest, MalformedHintsAreRejectedWhole) {
  Fixture fx;
  const auto set = generate_failure_scenarios({0.02, 0.03, 0.01});
  MinMaxOptions traced = options_for(set);
  traced.collect_trace = true;
  const MinMaxResult cold = solve_min_max_benders(fx.problem, set, traced);
  ASSERT_TRUE(cold.converged);
  const MinMaxResult plain =
      solve_min_max_benders(fx.problem, set, options_for(set));
  const WarmHint good = perfect_hint(fx.problem, cold);

  std::vector<WarmHint> bad(4, good);
  bad[0].shape_signature ^= 1;  // stale shape (tunnels rebuilt since)
  if (bad[1].drops.empty()) bad[1].drops.push_back({0, 0, 1.0});
  bad[1].drops[0].weight = std::numeric_limits<double>::infinity();
  bad[2].drops = bad[1].drops;
  bad[2].drops[0].weight = std::numeric_limits<double>::quiet_NaN();
  bad[3].drops = bad[1].drops;
  bad[3].drops[0].weight = -1.0;

  for (const WarmHint& hint : bad) {
    MinMaxOptions options = options_for(set);
    options.warm_hint = &hint;
    const MinMaxResult hinted = solve_min_max_benders(fx.problem, set, options);
    EXPECT_EQ(hinted.hint_accepted, 0);
    EXPECT_EQ(hinted.hint_rejected, 1);
    expect_bitwise_equal(hinted, plain);
  }

  // An out-of-range flow id anywhere in the cut sets also rejects.
  WarmHint bad_flow = good;
  bad_flow.drops.push_back({99, 7, 1.0});
  MinMaxOptions options = options_for(set);
  options.warm_hint = &bad_flow;
  const MinMaxResult hinted = solve_min_max_benders(fx.problem, set, options);
  EXPECT_EQ(hinted.hint_accepted, 0);
  EXPECT_EQ(hinted.hint_rejected, 1);
  expect_bitwise_equal(hinted, plain);
}

// Predicted patterns that no longer exist in the scenario set are skipped,
// not rejected: the hint carries no opinion about them. With every pattern
// vanished the steering cut is empty and the solve runs bitwise cold while
// still reporting the hint as accepted (it passed verification).
TEST(WarmHintTest, VanishedPatternsAreInert) {
  Fixture fx;
  const auto set = generate_failure_scenarios({0.02, 0.03, 0.01});
  MinMaxOptions traced = options_for(set);
  traced.collect_trace = true;
  const MinMaxResult cold = solve_min_max_benders(fx.problem, set, traced);
  ASSERT_TRUE(cold.converged);

  WarmHint hint = perfect_hint(fx.problem, cold);
  for (WarmHint::Pair& p : hint.drops) p.pattern = 0xdeadbeefULL;
  for (WarmHint::Pair& p : hint.active_rows) p.pattern = 0xdeadbeefULL;

  MinMaxOptions options = options_for(set);
  options.warm_hint = &hint;
  const MinMaxResult hinted = solve_min_max_benders(fx.problem, set, options);
  EXPECT_EQ(hinted.hint_accepted, 1);
  EXPECT_EQ(hinted.hint_rejected, 0);
  const MinMaxResult plain =
      solve_min_max_benders(fx.problem, set, options_for(set));
  expect_bitwise_equal(hinted, plain);
}

// A feasible hint whose drop set is wrong: the steering cut competes with
// the genuine duals at realistic weights, so the solve still converges and
// the steering is abandoned after the first iteration when it fails to
// close the gap — counted as accepted AND rejected ("applied, abandoned").
TEST(WarmHintTest, MisleadingDropsAreAbandonedAndSolveStillConverges) {
  Fixture fx;
  const auto set = generate_failure_scenarios({0.02, 0.03, 0.01});
  MinMaxOptions traced = options_for(set);
  traced.collect_trace = true;
  const MinMaxResult cold = solve_min_max_benders(fx.problem, set, traced);
  ASSERT_TRUE(cold.converged);
  ASSERT_FALSE(cold.trace_drops.empty());

  // Invert the drop advice: drop everything EXCEPT what the converged solve
  // dropped, at full weight.
  WarmHint misleading = perfect_hint(fx.problem, cold);
  misleading.drops.clear();
  for (const FailureScenario& s : set.scenarios) {
    const std::uint64_t sig = scenario_signature(s);
    for (int f = 0; f < static_cast<int>(fx.topo.flows.size()); ++f) {
      bool was_dropped = false;
      for (const WarmHint::Pair& p : cold.trace_drops) {
        if (p.flow == f && p.pattern == sig) was_dropped = true;
      }
      if (!was_dropped) misleading.drops.push_back({f, sig, 1.0});
    }
  }
  misleading.active_rows.clear();

  MinMaxOptions options = options_for(set);
  options.warm_hint = &misleading;
  const MinMaxResult hinted = solve_min_max_benders(fx.problem, set, options);
  EXPECT_EQ(hinted.hint_accepted, 1);
  ASSERT_TRUE(hinted.converged);
  EXPECT_FALSE(hinted.bound_crossed);
  // Same converged objective as cold up to the Benders tolerance: the
  // misleading prior costs iterations, not the certificate.
  EXPECT_NEAR(hinted.phi, cold.phi, options.epsilon);
}

TEST(WarmHintTest, HintedSolveBitIdenticalAcrossThreadCounts) {
  const auto set = generate_failure_scenarios({0.02, 0.03, 0.01});

  // Trace harvest + hinted re-solve must be a pure function of its inputs
  // at any pool size — the property that lets a hint bank record traces
  // from a parallel controller and hint a serial one (or vice versa).
  auto run_sequence = [&set]() {
    Fixture fx;
    MinMaxOptions traced = options_for(set);
    traced.collect_trace = true;
    const MinMaxResult cold = solve_min_max_benders(fx.problem, set, traced);
    WarmHint hint = perfect_hint(fx.problem, cold);
    MinMaxOptions options = options_for(set);
    options.warm_hint = &hint;
    return solve_min_max_benders(fx.problem, set, options);
  };

  runtime::ThreadPool::set_global_threads(1);
  const MinMaxResult serial = run_sequence();
  runtime::ThreadPool::set_global_threads(4);
  const MinMaxResult pooled = run_sequence();
  runtime::ThreadPool::set_global_threads(0);  // restore default

  EXPECT_EQ(serial.hint_accepted, pooled.hint_accepted);
  EXPECT_EQ(serial.hint_rejected, pooled.hint_rejected);
  expect_bitwise_equal(serial, pooled);
}

}  // namespace
}  // namespace prete::te
