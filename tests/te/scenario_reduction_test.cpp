// Correlated scenario generation and probability-mass scenario reduction:
// truncation accounting (no silent drops), closed-form correlated
// probabilities, permutation/thread invariance, and validation guards; the
// continental and B4 scenario sets pinned by digest, and the failed-id
// lists checked against the fiber masks they replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>

#include "net/topology.h"
#include "net/tunnels.h"
#include "optical/fiber_model.h"
#include "runtime/thread_pool.h"
#include "te/minmax.h"
#include "te/scenario.h"
#include "util/hash.h"
#include "util/rng.h"
#include "workload/continental.h"

namespace prete::te {
namespace {

TEST(ScenarioAccountingTest, TruncationIsReportedNotSilent) {
  ScenarioOptions options;
  options.max_scenarios = 3;
  const ScenarioSet set =
      generate_failure_scenarios({0.1, 0.08, 0.05, 0.02}, options);
  ASSERT_EQ(set.scenarios.size(), 3u);
  EXPECT_GT(set.dropped_scenarios, 0);
  EXPECT_GT(set.residual_probability, 0.0);
  EXPECT_NEAR(set.covered_probability + set.residual_probability, 1.0, 1e-9);
}

TEST(ScenarioAccountingTest, UntruncatedSetHasZeroResidual) {
  const ScenarioSet set = generate_failure_scenarios({0.1, 0.2});
  EXPECT_EQ(set.dropped_scenarios, 0);
  EXPECT_NEAR(set.residual_probability, 0.0, 1e-12);
  EXPECT_NEAR(set.covered_probability, 1.0, 1e-12);
}

TEST(CorrelatedScenarioTest, NoEventsMatchesIndependentGenerator) {
  const std::vector<double> probs{0.05, 0.02, 0.01};
  CorrelatedFailureModel model;
  model.num_fibers = 3;
  model.background = probs;
  const ScenarioSet correlated = generate_correlated_scenarios(model);
  const ScenarioSet independent = generate_failure_scenarios(probs);
  ASSERT_EQ(correlated.scenarios.size(), independent.scenarios.size());
  for (std::size_t i = 0; i < correlated.scenarios.size(); ++i) {
    EXPECT_EQ(correlated.scenarios[i].failed(),
              independent.scenarios[i].failed());
    EXPECT_NEAR(correlated.scenarios[i].probability,
                independent.scenarios[i].probability, 1e-12);
  }
}

TEST(CorrelatedScenarioTest, EventProbabilitiesMatchClosedForm) {
  // Two fibers with no background hazard, one event cutting both with
  // conditional c. Outcomes: event off (1-e), event on and each member cut
  // independently with c.
  const double e = 0.1;
  const double c = 0.8;
  CorrelatedFailureModel model;
  model.num_fibers = 2;
  model.background = {0.0, 0.0};
  model.events.push_back({{0, 1}, e, {c, c}, "conduit:0"});
  const ScenarioSet set = generate_correlated_scenarios(model);

  auto probability_of = [&](bool f0, bool f1) {
    for (const FailureScenario& s : set.scenarios) {
      std::vector<net::FiberId> want;
      if (f0) want.push_back(0);
      if (f1) want.push_back(1);
      if (s.failed() == want) {
        return s.probability;
      }
    }
    return -1.0;
  };
  // No failure aggregates "event off" with "event on, nothing cut".
  EXPECT_NEAR(probability_of(false, false),
              (1 - e) + e * (1 - c) * (1 - c), 1e-12);
  EXPECT_NEAR(probability_of(true, false), e * c * (1 - c), 1e-12);
  EXPECT_NEAR(probability_of(false, true), e * (1 - c) * c, 1e-12);
  EXPECT_NEAR(probability_of(true, true), e * c * c, 1e-12);
  EXPECT_NEAR(set.covered_probability, 1.0, 1e-12);
}

TEST(CorrelatedScenarioTest, BackgroundAndEventMassesCompose) {
  // A background fiber plus a disjoint event: covered + residual must close
  // to 1 even though cross terms (event and background both firing) are
  // never enumerated.
  CorrelatedFailureModel model;
  model.num_fibers = 3;
  model.background = {0.05, 0.0, 0.0};
  model.events.push_back({{1, 2}, 0.02, {0.9, 0.9}, "conduit:0"});
  const ScenarioSet set = generate_correlated_scenarios(model);
  EXPECT_NEAR(set.covered_probability + set.residual_probability, 1.0, 1e-9);
  // The cross term P(bg cut) * P(event) is residual, so covered < 1.
  EXPECT_LT(set.covered_probability, 1.0);
  EXPECT_GT(set.covered_probability, 0.99);
}

TEST(CorrelatedScenarioTest, RejectsMalformedModels) {
  CorrelatedFailureModel saturated;
  saturated.num_fibers = 1;
  saturated.background = {1.0};  // certain failure breaks the ratio form
  EXPECT_THROW(generate_correlated_scenarios(saturated),
               std::invalid_argument);

  CorrelatedFailureModel out_of_range;
  out_of_range.num_fibers = 2;
  out_of_range.background = {0.01, 0.01};
  out_of_range.events.push_back({{1, 5}, 0.1, {0.5, 0.5}, "bad"});
  EXPECT_THROW(generate_correlated_scenarios(out_of_range),
               std::invalid_argument);

  CorrelatedFailureModel mismatched;
  mismatched.num_fibers = 2;
  mismatched.background = {0.01, 0.01};
  mismatched.events.push_back({{0, 1}, 0.1, {0.5}, "bad"});
  EXPECT_THROW(generate_correlated_scenarios(mismatched),
               std::invalid_argument);

  CorrelatedFailureModel valid;
  valid.num_fibers = 2;
  valid.background = {0.01, 0.01};
  CorrelatedScenarioOptions options;
  options.max_scenarios = 0;
  EXPECT_THROW(generate_correlated_scenarios(valid, options),
               std::invalid_argument);
}

ScenarioSet example_set() {
  return generate_failure_scenarios({0.1, 0.08, 0.05, 0.03, 0.02});
}

TEST(ReductionTest, KeepsHighestMassAndReportsDrops) {
  const ScenarioSet full = example_set();
  ReductionOptions options;
  options.max_scenarios = 4;
  ReductionReport report;
  const ScenarioSet reduced = reduce_scenarios(full, options, &report);
  ASSERT_EQ(reduced.scenarios.size(), 4u);
  EXPECT_EQ(report.before, static_cast<int>(full.scenarios.size()));
  EXPECT_EQ(report.after, 4);
  EXPECT_EQ(report.dropped, report.before - 4);
  EXPECT_GT(report.dropped_mass, 0.0);
  EXPECT_NEAR(reduced.covered_probability + reduced.residual_probability, 1.0,
              1e-9);
  // Probability ranking: every kept scenario outweighs every dropped one.
  double min_kept = 1.0;
  for (const FailureScenario& s : reduced.scenarios) {
    min_kept = std::min(min_kept, s.probability);
  }
  EXPECT_GE(min_kept,
            full.scenarios.back().probability);
  // The no-failure scenario survives.
  EXPECT_TRUE(reduced.scenarios[0].failed().empty());
}

TEST(ReductionTest, ImpactExponentPrefersMultiFailureScenarios) {
  const ScenarioSet full = example_set();
  ReductionOptions plain;
  plain.max_scenarios = 6;
  ReductionOptions biased = plain;
  biased.impact_exponent = 8.0;
  int plain_failures = 0, biased_failures = 0;
  for (const FailureScenario& s : reduce_scenarios(full, plain).scenarios) {
    plain_failures += static_cast<int>(s.failed().size());
  }
  for (const FailureScenario& s : reduce_scenarios(full, biased).scenarios) {
    biased_failures += static_cast<int>(s.failed().size());
  }
  EXPECT_GT(biased_failures, plain_failures);
}

TEST(ReductionTest, InvariantUnderInputPermutation) {
  const ScenarioSet full = example_set();
  ReductionOptions options;
  options.max_scenarios = 7;
  const ScenarioSet baseline = reduce_scenarios(full, options);

  ScenarioSet shuffled = full;
  std::mt19937 gen(123);
  std::shuffle(shuffled.scenarios.begin(), shuffled.scenarios.end(), gen);
  const ScenarioSet permuted = reduce_scenarios(shuffled, options);

  ASSERT_EQ(baseline.scenarios.size(), permuted.scenarios.size());
  EXPECT_EQ(baseline.covered_probability, permuted.covered_probability);
  for (std::size_t i = 0; i < baseline.scenarios.size(); ++i) {
    EXPECT_EQ(baseline.scenarios[i].failed(), permuted.scenarios[i].failed());
    EXPECT_EQ(baseline.scenarios[i].probability,
              permuted.scenarios[i].probability);
  }
}

// The end-to-end determinism witness: the reduced correlated set and the
// Benders objective computed from it are bit-identical at 1 and 4 threads.
TEST(ReductionTest, BendersOnReducedSetIsThreadInvariant) {
  net::Topology topo = net::make_triangle();
  net::TunnelSet tunnels{2};
  tunnels.add_tunnel(0, {0});
  tunnels.add_tunnel(0, {2, 5});
  tunnels.add_tunnel(1, {2});
  tunnels.add_tunnel(1, {0, 4});
  te::TeProblem problem;
  problem.network = &topo.network;
  problem.flows = &topo.flows;
  problem.tunnels = &tunnels;
  problem.demands = {10.0, 10.0};

  CorrelatedFailureModel model;
  model.num_fibers = 3;
  model.background = {0.02, 0.03, 0.01};
  model.events.push_back({{0, 1}, 0.015, {0.9, 0.85}, "conduit:0"});
  ReductionOptions reduction;
  reduction.max_scenarios = 6;

  auto run = [&] {
    const ScenarioSet reduced =
        reduce_scenarios(generate_correlated_scenarios(model), reduction);
    MinMaxOptions options;
    options.beta = std::min(0.95, reduced.covered_probability);
    const MinMaxResult result =
        solve_min_max_benders(problem, reduced, options);
    return std::pair<double, double>(result.phi, reduced.covered_probability);
  };
  runtime::ThreadPool::set_global_threads(1);
  const auto serial = run();
  runtime::ThreadPool::set_global_threads(4);
  const auto parallel = run();
  runtime::ThreadPool::set_global_threads(0);
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
}

// Folds each scenario's signature, probability bits and failed ids, in set
// order: a change to the scenario pipeline's contents or order moves it.
std::uint64_t pipeline_digest(const ScenarioSet& set) {
  std::uint64_t h = util::kFnvOffsetBasis;
  for (const FailureScenario& s : set.scenarios) {
    h = util::fnv1a_u64(h, s.signature());
    h = util::fnv1a_u64(h, std::bit_cast<std::uint64_t>(s.probability));
    for (net::FiberId f : s.failed()) {
      h = util::fnv1a_u64(h, static_cast<std::uint64_t>(f));
    }
  }
  return h;
}

// The digests were recorded from the fiber-mask scenario representation.
TEST(ScenarioPipelineTest, ContinentalAndB4SetsKeepTheirDigest) {
  // The continental_diurnal plant: seed 2026, reduced to 300 scenarios.
  const workload::ContinentalConfig config;
  const workload::ContinentalWorkload w =
      workload::generate_continental_workload(config);
  ReductionOptions reduction = config.reduction;
  reduction.max_scenarios = 300;
  const ScenarioSet continental = workload::make_scenario_source(
      w.failure_model, config.scenario_gen, reduction)(w.cut_probs);
  ASSERT_EQ(continental.scenarios.size(), 300u);
  EXPECT_EQ(pipeline_digest(continental), 5268899741753620468ull);

  // The b4_degradation plant's static probabilities.
  const net::Topology b4 = net::make_b4();
  util::Rng plant_rng(11);
  std::vector<double> static_probs;
  for (const optical::FiberModelParams& p :
       optical::build_plant_model(b4.network, plant_rng)) {
    static_probs.push_back(0.4 * p.degradation_prob_per_epoch +
                           p.abrupt_cut_prob_per_epoch);
  }
  const ScenarioSet b4_set = generate_failure_scenarios(static_probs);
  ASSERT_EQ(b4_set.scenarios.size(), 191u);
  EXPECT_EQ(pipeline_digest(b4_set), 7715458093893773910ull);
}

// The fiber-mask reference: FNV-1a over the set bits in index order.
std::uint64_t mask_signature(const std::vector<bool>& mask) {
  std::uint64_t h = kSignatureSeed;
  for (std::size_t f = 0; f < mask.size(); ++f) {
    if (mask[f]) h = util::fnv1a_u64(h, f);
  }
  return h;
}

FailureScenario from_mask(const std::vector<bool>& mask, double probability) {
  std::vector<net::FiberId> failed;
  for (std::size_t f = 0; f < mask.size(); ++f) {
    if (mask[f]) failed.push_back(static_cast<net::FiberId>(f));
  }
  return FailureScenario(std::move(failed), probability);
}

// Random masks of 1..1,200 fibers: the signature equals the mask fold, and
// reduce_scenarios breaks probability ties in std::vector<bool> order.
TEST(ScenarioPipelineTest, IdListsMatchTheMaskReference) {
  util::Rng rng(26);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.next_below(1200);
    // Some trials draw from a narrow id range, so masks share prefixes and
    // one set often extends another.
    const std::size_t span = trial % 2 == 0 ? n : std::min<std::size_t>(n, 6);
    std::vector<std::vector<bool>> masks;
    ScenarioSet set;
    for (int i = 0; i < 12; ++i) {
      std::vector<bool> mask(n, false);
      const std::uint64_t cuts = rng.next_below(5);
      for (std::uint64_t c = 0; c < cuts; ++c) {
        mask[rng.next_below(span)] = true;
      }
      const FailureScenario s = from_mask(mask, 1.0 / 12);
      EXPECT_EQ(s.signature(), mask_signature(mask)) << "trial " << trial;
      if (std::find(masks.begin(), masks.end(), mask) != masks.end()) continue;
      masks.push_back(mask);
      set.scenarios.push_back(s);
    }
    // Equal probabilities: the order is the tie-break alone.
    ReductionOptions keep_all;
    keep_all.max_scenarios = static_cast<int>(masks.size());
    const ScenarioSet reduced = reduce_scenarios(set, keep_all);
    std::sort(masks.begin(), masks.end());
    ASSERT_EQ(reduced.scenarios.size(), masks.size());
    for (std::size_t i = 0; i < masks.size(); ++i) {
      EXPECT_EQ(reduced.scenarios[i].signature(), mask_signature(masks[i]))
          << "trial " << trial << " rank " << i;
    }
  }
}

}  // namespace
}  // namespace prete::te
