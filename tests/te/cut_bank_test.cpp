// Cross-epoch cut bank: replay validity (rescaled cuts never exceed the
// exact subproblem value), convergence agreement with cold solves under
// demand drift, order-invariant signature keying, activity eviction, and
// bit-identity across thread counts (the bank's determinism contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "lp/simplex.h"
#include "net/topology.h"
#include "net/traffic.h"
#include "optical/fiber_model.h"
#include "runtime/thread_pool.h"
#include "te/lp_common.h"
#include "te/minmax.h"
#include "util/rng.h"

namespace prete::te {
namespace {

// Triangle under capacity pressure: demands equal capacity, so rerouting
// around a cut contends for links and the Benders master's scenario drops
// genuinely move Phi — the regime where cuts carry information.
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

// The exact subproblem value v(delta): min Phi over the capacity rows and a
// Phi-row Phi + sum_{t alive} a_t / d_f >= 1 for every pair delta selects.
double subproblem_value(const TeProblem& problem, const ScenarioSet& set,
                        const std::vector<std::vector<char>>& delta) {
  lp::Model sp(lp::Sense::kMinimize);
  const std::vector<int> alloc = add_allocation_variables(sp, problem);
  const int phi = sp.add_variable(0.0, 1.0, 1.0);
  add_capacity_rows(sp, problem, alloc);
  const SurvivalIndex survival(problem, set.scenarios);
  for (const net::Flow& flow : *problem.flows) {
    for (std::size_t q = 0; q < set.scenarios.size(); ++q) {
      if (!delta[static_cast<std::size_t>(flow.id)][q]) continue;
      std::vector<lp::Coefficient> coefs =
          surviving_coefficients(alloc, survival, flow.id, q,
                                 1.0 / demand_floor(problem, flow.id));
      coefs.push_back({phi, 1.0});
      sp.add_row(std::move(coefs), lp::RowType::kGreaterEqual, 1.0);
    }
  }
  const lp::Solution sol = lp::SimplexSolver().solve(sp);
  EXPECT_EQ(sol.status, lp::SolveStatus::kOptimal);
  return sol.objective;
}

std::map<std::uint64_t, std::size_t> pattern_index(const ScenarioSet& set) {
  std::map<std::uint64_t, std::size_t> sig_to_q;
  for (std::size_t q = 0; q < set.scenarios.size(); ++q) {
    sig_to_q.emplace(set.scenarios[q].signature(), q);
  }
  return sig_to_q;
}

TEST(ScenarioSignatureTest, IdentifiesThePatternNotTheScenario) {
  const FailureScenario a({0, 2}, 0.25);
  const FailureScenario b({0, 2}, 0.0001);  // probability must not matter
  EXPECT_EQ(a.signature(), b.signature());

  const FailureScenario c({0, 1}, 0.25);
  EXPECT_NE(a.signature(), c.signature());

  const FailureScenario none;
  EXPECT_NE(a.signature(), none.signature());
}

TEST(CutBankTest, SteadyStateWarmSolveCutsIterationsWithIdenticalPhi) {
  Fixture fx;
  const auto set = generate_failure_scenarios({0.02, 0.03, 0.01});
  const MinMaxOptions options = options_for(set);

  CutBank bank;
  const MinMaxResult first =
      solve_min_max_benders(fx.problem, set, options, nullptr, &bank);
  ASSERT_TRUE(first.converged);
  EXPECT_EQ(first.cuts_replayed, 0);
  EXPECT_GT(first.cuts_banked, 0);
  EXPECT_EQ(static_cast<int>(bank.cuts.size()), first.cuts_banked);

  // Steady-state epoch: identical inputs, warm bank vs cold.
  const MinMaxResult cold = solve_min_max_benders(fx.problem, set, options);
  const MinMaxResult warm =
      solve_min_max_benders(fx.problem, set, options, nullptr, &bank);
  ASSERT_TRUE(cold.converged);
  ASSERT_TRUE(warm.converged);
  EXPECT_FALSE(warm.bound_crossed);
  EXPECT_GT(warm.cuts_replayed, 0);
  EXPECT_EQ(warm.cuts_invalidated, 0);
  // The replayed master drops the right scenarios before iteration 1, so
  // the fresh cut closes the gap immediately.
  EXPECT_LT(warm.iterations, cold.iterations);
  EXPECT_LT(warm.simplex_pivots, cold.simplex_pivots);
  // Converged objectives must agree to the bit: replayed cuts are exact
  // inequalities of the same instance.
  EXPECT_EQ(warm.phi, cold.phi);
  EXPECT_EQ(warm.upper_bound, cold.upper_bound);
}

// Satellite regression: a stale cut replayed blindly across a probability
// change can cross the bounds on iteration 1 of the warm solve. Validated
// replay must keep warm and cold solves agreeing on converged / gap().
TEST(CutBankTest, PerturbedProbabilitiesAgreeWithColdSolve) {
  Fixture fx;
  const auto epoch1 = generate_failure_scenarios({0.02, 0.03, 0.01});
  const MinMaxOptions options1 = options_for(epoch1);

  CutBank bank;
  ASSERT_TRUE(solve_min_max_benders(fx.problem, epoch1, options1, nullptr,
                                    &bank)
                  .converged);
  const int banked = static_cast<int>(bank.cuts.size());
  ASSERT_GT(banked, 0);

  // One fiber's predicted probability moves enough to reorder the
  // probability-sorted scenario set — index-keyed replay would bind stored
  // weights to the wrong scenarios; signature keying must remap them all.
  const auto epoch2 = generate_failure_scenarios({0.035, 0.008, 0.012});
  const MinMaxOptions options2 = options_for(epoch2);
  const MinMaxResult cold = solve_min_max_benders(fx.problem, epoch2, options2);
  const MinMaxResult warm =
      solve_min_max_benders(fx.problem, epoch2, options2, nullptr, &bank);

  EXPECT_EQ(warm.cuts_replayed, banked);
  EXPECT_EQ(warm.cuts_invalidated, 0);
  EXPECT_FALSE(warm.bound_crossed);
  EXPECT_EQ(warm.converged, cold.converged);
  EXPECT_NEAR(warm.gap(), cold.gap(), kBendersEpsilon);
  EXPECT_NEAR(warm.phi, cold.phi, kBendersEpsilon);
}

// A demand change rescales stored cuts instead of dropping them: every
// banked cut replays and the warm solve converges to the cold phi. Under
// shrink the replayed cuts still point the master at the optimum, so the
// warm solve needs fewer iterations. Under growth their weights, priced for
// the smaller demands, steer the greedy master into a crossing; the solve
// restarts cold and ends where the cold solve does.
TEST(CutBankTest, DemandChangeRescalesCutsAndAgreesWithCold) {
  const auto set = generate_failure_scenarios({0.02, 0.03, 0.01});
  struct Case {
    std::vector<double> demands;
    bool shrink;
  };
  const std::vector<Case> drifted = {
      {{9.0, 10.0}, true},
      {{10.4, 10.2}, false},
  };
  for (const Case& c : drifted) {
    Fixture fx;
    const MinMaxOptions options = options_for(set);
    CutBank bank;
    ASSERT_TRUE(
        solve_min_max_benders(fx.problem, set, options, nullptr, &bank)
            .converged);
    const int banked = static_cast<int>(bank.cuts.size());
    ASSERT_GT(banked, 0);

    fx.problem.demands = c.demands;
    const MinMaxResult warm =
        solve_min_max_benders(fx.problem, set, options, nullptr, &bank);
    const MinMaxResult cold = solve_min_max_benders(fx.problem, set, options);
    EXPECT_EQ(warm.cuts_replayed, banked);
    EXPECT_EQ(warm.cuts_invalidated, 0);
    EXPECT_FALSE(warm.bound_crossed);
    EXPECT_EQ(warm.converged, cold.converged);
    EXPECT_NEAR(warm.phi, cold.phi, 1e-9);
    if (c.shrink) {
      EXPECT_LT(warm.iterations, cold.iterations);
      EXPECT_FALSE(warm.bank_restart);
    } else {
      EXPECT_TRUE(warm.bank_restart);
    }
  }
}

TEST(CutBankTest, ScenarioPermutationReplaysEveryCut) {
  Fixture fx;
  const auto set = generate_failure_scenarios({0.02, 0.03, 0.01});
  const MinMaxOptions options = options_for(set);
  CutBank bank;
  ASSERT_TRUE(
      solve_min_max_benders(fx.problem, set, options, nullptr, &bank)
          .converged);
  const int banked = static_cast<int>(bank.cuts.size());

  // Same scenarios, permuted order (as a different generator or a
  // re-reduced set might present them): signature keying must remap every
  // cut; nothing is invalidated.
  ScenarioSet permuted = set;
  std::reverse(permuted.scenarios.begin(), permuted.scenarios.end());
  const MinMaxResult cold = solve_min_max_benders(fx.problem, permuted, options);
  const MinMaxResult warm =
      solve_min_max_benders(fx.problem, permuted, options, nullptr, &bank);
  EXPECT_EQ(warm.cuts_replayed, banked);
  EXPECT_EQ(warm.cuts_invalidated, 0);
  EXPECT_EQ(warm.converged, cold.converged);
  EXPECT_NEAR(warm.phi, cold.phi, kBendersEpsilon);
}

TEST(CutBankTest, ShapeChangeResetsTheBank) {
  Fixture fx;
  const auto set = generate_failure_scenarios({0.02, 0.03, 0.01});
  const MinMaxOptions options = options_for(set);
  CutBank bank;
  ASSERT_TRUE(
      solve_min_max_benders(fx.problem, set, options, nullptr, &bank)
          .converged);
  ASSERT_GT(bank.cuts.size(), 0u);

  // A new tunnel changes the problem shape: stored cuts bound a different
  // value function and must not survive into the warm solve.
  Fixture grown;
  grown.tunnels.add_tunnel(0, {1, 3});
  const MinMaxResult warm =
      solve_min_max_benders(grown.problem, set, options, nullptr, &bank);
  EXPECT_EQ(warm.cuts_replayed, 0);
  EXPECT_EQ(bank.signature, problem_shape_signature(grown.problem));
}

TEST(CutBankTest, InactivityAndSizeBoundEvictDeterministically) {
  Fixture fx;
  const auto set = generate_failure_scenarios({0.02, 0.03, 0.01});
  const MinMaxOptions options = options_for(set);

  CutBank bank;
  bank.inactivity_ttl = 2;
  ASSERT_TRUE(
      solve_min_max_benders(fx.problem, set, options, nullptr, &bank)
          .converged);
  ASSERT_GT(bank.cuts.size(), 0u);

  // Epochs whose solves never touch the stored cuts age them out: a
  // scenario set that lacks every stored pattern leaves each stored cut
  // nothing to replay, twice (ttl = 2).
  ScenarioSet unrelated;
  unrelated.scenarios.emplace_back(std::vector<net::FiberId>{0, 1, 2}, 1.0);
  unrelated.covered_probability = 1.0;
  solve_min_max_benders(fx.problem, unrelated, options, nullptr, &bank);
  solve_min_max_benders(fx.problem, unrelated, options, nullptr, &bank);
  // The original cuts (last_active = 0) are now two epochs stale; only the
  // unrelated epochs' own cuts survive.
  EXPECT_GT(bank.evicted, 0);
  for (const CutBank::Cut& cut : bank.cuts) {
    EXPECT_GE(cut.last_active + bank.inactivity_ttl, bank.epoch);
  }

  // Size bound: a one-cut bank keeps exactly one cut across epochs.
  Fixture shrunk = fx;
  shrunk.problem.demands = {9.0, 10.0};
  CutBank tiny;
  tiny.max_cuts = 1;
  solve_min_max_benders(fx.problem, set, options, nullptr, &tiny);
  const int inserted_first = tiny.inserted;
  ASSERT_GT(inserted_first, 0);
  EXPECT_EQ(tiny.cuts.size(), 1u);
  solve_min_max_benders(shrunk.problem, set, options, nullptr, &tiny);
  EXPECT_EQ(tiny.cuts.size(), 1u);
  EXPECT_GE(tiny.evicted, inserted_first - 1);
}

TEST(CutBankTest, ReplayedSolveBitIdenticalAcrossThreadCounts) {
  const auto set = generate_failure_scenarios({0.02, 0.03, 0.01});

  // The whole two-epoch warm sequence — bank build-up plus replayed solve —
  // must be a pure function of its inputs at any pool size.
  auto run_sequence = [&set]() {
    Fixture fx;
    const MinMaxOptions options = options_for(set);
    CutBank bank;
    solve_min_max_benders(fx.problem, set, options, nullptr, &bank);
    return solve_min_max_benders(fx.problem, set, options, nullptr, &bank);
  };

  runtime::ThreadPool::set_global_threads(1);
  const MinMaxResult serial = run_sequence();
  runtime::ThreadPool::set_global_threads(4);
  const MinMaxResult pooled = run_sequence();
  runtime::ThreadPool::set_global_threads(0);  // restore default

  EXPECT_EQ(serial.phi, pooled.phi);
  EXPECT_EQ(serial.upper_bound, pooled.upper_bound);
  EXPECT_EQ(serial.lower_bound, pooled.lower_bound);
  EXPECT_EQ(serial.iterations, pooled.iterations);
  EXPECT_EQ(serial.simplex_pivots, pooled.simplex_pivots);
  EXPECT_EQ(serial.cuts_replayed, pooled.cuts_replayed);
  EXPECT_EQ(serial.cuts_invalidated, pooled.cuts_invalidated);
  EXPECT_EQ(serial.cuts_banked, pooled.cuts_banked);
  EXPECT_EQ(serial.converged, pooled.converged);
}

// Validity: a banked cut replayed under drifted demands is a lower bound
// on the exact subproblem value at every delta. Cuts come from banks built
// under several demand vectors and scenario sets; they are replayed under
// shrink, growth and mixed drift and read at random delta.
TEST(CutBankPropertyTest, ReplayedCutsNeverExceedTheSubproblemValue) {
  const std::vector<ScenarioSet> sets = {
      generate_failure_scenarios({0.02, 0.03, 0.01}),
      generate_failure_scenarios({0.035, 0.008, 0.012}),
  };
  const std::vector<std::vector<double>> origins = {
      {10.0, 10.0}, {8.0, 11.0}, {12.0, 6.0}};
  const std::vector<std::vector<double>> drifts = {
      {0.7, 0.9}, {1.3, 1.1}, {0.75, 1.25}, {1.2, 0.8}, {1.0, 0.5}};
  util::Rng rng(41);
  int checked = 0;
  for (const ScenarioSet& bank_set : sets) {
    for (const std::vector<double>& origin : origins) {
      Fixture fx;
      fx.problem.demands = origin;
      CutBank bank;
      solve_min_max_benders(fx.problem, bank_set, options_for(bank_set),
                            nullptr, &bank);
      ASSERT_GT(bank.cuts.size(), 0u);
      for (const ScenarioSet& set : sets) {
        const auto sig_to_q = pattern_index(set);
        for (const std::vector<double>& drift : drifts) {
          Fixture moved;
          moved.problem.demands = {origin[0] * drift[0], origin[1] * drift[1]};
          for (int sample = 0; sample < 4; ++sample) {
            std::vector<std::vector<char>> delta(
                2, std::vector<char>(set.scenarios.size(), 0));
            for (auto& row : delta) {
              for (char& d : row) d = rng.bernoulli(0.6) ? 1 : 0;
            }
            const double v = subproblem_value(moved.problem, set, delta);
            for (const CutBank::Cut& stored : bank.cuts) {
              const auto cut = replay_cut(stored, moved.problem, sig_to_q);
              if (!cut) continue;
              EXPECT_LE(cut->value(delta), v + 1e-9);
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 500);
}

// Differential: the capacity-pressured triangle with each flow's demand
// drifting by up to 30% between epochs. The warm solve (banked cuts
// rescaled, the cold restart as their guard) must end at the cold phi and
// at the exact optimum, and must certify convergence wherever the cold
// solve does. The cold solve latches a bound crossing on about 40% of these
// draws (the greedy master's lower bound is not a certificate, ROADMAP item
// 3); there the warm solve may still close its gap, so `converged` is
// compared one way only.
TEST(CutBankPropertyTest, WarmAgreesWithColdUnderRandomDemandDrift) {
  const auto set = generate_failure_scenarios({0.02, 0.03, 0.01});
  const MinMaxOptions options = options_for(set);
  util::Rng rng(7);
  int replayed = 0;
  for (int instance = 0; instance < 200; ++instance) {
    Fixture fx;
    CutBank bank;
    ASSERT_TRUE(solve_min_max_benders(fx.problem, set, options, nullptr, &bank)
                    .converged);
    for (double& d : fx.problem.demands) d *= rng.uniform(0.7, 1.3);
    const MinMaxResult warm =
        solve_min_max_benders(fx.problem, set, options, nullptr, &bank);
    const MinMaxResult cold = solve_min_max_benders(fx.problem, set, options);
    const MinMaxResult exact = solve_min_max_direct(fx.problem, set, options);
    replayed += warm.cuts_replayed;
    EXPECT_TRUE(warm.converged || !cold.converged) << "instance " << instance;
    EXPECT_TRUE(cold.bound_crossed || !warm.bound_crossed)
        << "instance " << instance;
    EXPECT_NEAR(warm.phi, cold.phi, 1e-9) << "instance " << instance;
    EXPECT_NEAR(warm.phi, exact.phi, 1e-6) << "instance " << instance;
  }
  EXPECT_GT(replayed, 0);
}

// B4 at three times its base demand with one scenario per fiber cut, each
// flow's demand drifting by -5%..+15% between epochs: the banked cuts
// replay, and the warm solve reaches the cold phi in fewer iterations.
TEST(CutBankPropertyTest, B4DemandDriftReplaysAndAgreesWithCold) {
  const net::Topology topo = net::make_b4();
  net::TunnelSet tunnels = net::build_tunnels(topo.network, topo.flows);
  util::Rng traffic_rng(12);
  net::TrafficConfig tc;
  tc.diurnal_swing = 0.0;
  tc.noise = 0.0;
  const net::TrafficMatrix base = net::scale_traffic(
      net::generate_traffic(topo.network, topo.flows, traffic_rng, tc)[0], 3.0);
  // The b4_degradation plant's per-fiber static probabilities.
  util::Rng plant_rng(11);
  std::vector<double> probs;
  for (const optical::FiberModelParams& p :
       optical::build_plant_model(topo.network, plant_rng)) {
    probs.push_back(0.4 * p.degradation_prob_per_epoch +
                    p.abrupt_cut_prob_per_epoch);
  }
  ScenarioOptions single_cuts;
  single_cuts.max_simultaneous_failures = 1;
  const auto set = generate_failure_scenarios(probs, single_cuts);
  MinMaxOptions options;
  options.beta = std::min(0.99, set.covered_probability);

  TeProblem problem;
  problem.network = &topo.network;
  problem.flows = &topo.flows;
  problem.tunnels = &tunnels;
  problem.demands = base;
  CutBank bank;
  ASSERT_TRUE(solve_min_max_benders(problem, set, options, nullptr, &bank)
                  .converged);
  util::Rng rng(5);
  for (double& d : problem.demands) d *= rng.uniform(0.95, 1.15);
  const MinMaxResult warm =
      solve_min_max_benders(problem, set, options, nullptr, &bank);
  const MinMaxResult cold = solve_min_max_benders(problem, set, options);
  EXPECT_GT(warm.cuts_replayed, 0);
  ASSERT_TRUE(cold.converged);
  EXPECT_GT(cold.phi, 0.0);
  EXPECT_TRUE(warm.converged);
  EXPECT_NEAR(warm.phi, cold.phi, 1e-9);
  EXPECT_LT(warm.iterations, cold.iterations);
}

}  // namespace
}  // namespace prete::te
