#include "te/scenario.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace prete::te {
namespace {

TEST(ScenarioTest, NoFailureScenarioFirst) {
  const ScenarioSet set = generate_failure_scenarios({0.01, 0.02, 0.005});
  ASSERT_FALSE(set.scenarios.empty());
  EXPECT_TRUE(set.scenarios[0].failed().empty());
  EXPECT_NEAR(set.scenarios[0].probability, 0.99 * 0.98 * 0.995, 1e-12);
}

TEST(ScenarioTest, SingleFailureProbabilities) {
  const ScenarioSet set = generate_failure_scenarios({0.1, 0.2});
  // Scenarios: none (0.72), f1 (0.18), f0 (0.08), both (0.02).
  ASSERT_EQ(set.scenarios.size(), 4u);
  EXPECT_NEAR(set.covered_probability, 1.0, 1e-12);
  EXPECT_NEAR(set.scenarios[0].probability, 0.72, 1e-12);
  EXPECT_NEAR(set.scenarios[1].probability, 0.18, 1e-12);
  EXPECT_EQ(set.scenarios[1].failed(), std::vector<net::FiberId>{1});
  EXPECT_NEAR(set.scenarios[3].probability, 0.02, 1e-12);
  EXPECT_EQ(set.scenarios[3].failed(), (std::vector<net::FiberId>{0, 1}));
}

TEST(ScenarioTest, SortedByProbability) {
  const ScenarioSet set = generate_failure_scenarios({0.03, 0.01, 0.08, 0.002});
  for (std::size_t i = 1; i < set.scenarios.size(); ++i) {
    EXPECT_GE(set.scenarios[i - 1].probability, set.scenarios[i].probability);
  }
}

TEST(ScenarioTest, MassTargetTruncates) {
  ScenarioOptions options;
  options.target_mass = 0.99;
  const ScenarioSet set =
      generate_failure_scenarios({0.001, 0.002, 0.001, 0.003}, options);
  // The no-failure scenario alone covers ~0.993 > 0.99.
  EXPECT_EQ(set.scenarios.size(), 1u);
}

TEST(ScenarioTest, MaxScenariosCap) {
  ScenarioOptions options;
  options.max_scenarios = 5;
  std::vector<double> probs(20, 0.05);
  const ScenarioSet set = generate_failure_scenarios(probs, options);
  EXPECT_EQ(set.scenarios.size(), 5u);
  EXPECT_LT(set.covered_probability, 1.0);
}

TEST(ScenarioTest, SinglesOnlyWhenRequested) {
  ScenarioOptions options;
  options.max_simultaneous_failures = 1;
  const ScenarioSet set = generate_failure_scenarios({0.3, 0.3}, options);
  for (const auto& s : set.scenarios) EXPECT_LE(s.failed().size(), 1u);
  // Mass misses the double-failure scenario (0.09).
  EXPECT_NEAR(set.covered_probability, 0.91, 1e-12);
}

TEST(ScenarioTest, ZeroProbabilityFiberNeverFails) {
  const ScenarioSet set = generate_failure_scenarios({0.0, 0.5});
  for (const auto& s : set.scenarios) {
    EXPECT_TRUE(s.failed().empty() || s.failed().front() != 0);
  }
  EXPECT_NEAR(set.covered_probability, 1.0, 1e-12);
}

TEST(ScenarioTest, CertainFailureHandled) {
  const ScenarioSet set = generate_failure_scenarios({1.0, 0.1});
  // All-up has probability 0; fiber 0 failing alone: 0.9; both: 0.1.
  double mass = 0.0;
  for (const auto& s : set.scenarios) {
    mass += s.probability;
    if (s.failed().size() == 1) {
      EXPECT_EQ(s.failed().front(), 0);
      EXPECT_NEAR(s.probability, 0.9, 1e-12);
    }
  }
  EXPECT_NEAR(mass, 1.0, 1e-12);
}

TEST(ScenarioTest, RejectsBadProbability) {
  EXPECT_THROW(generate_failure_scenarios({1.5}), std::invalid_argument);
  EXPECT_THROW(generate_failure_scenarios({-0.1}), std::invalid_argument);
}

TEST(ScenarioTest, RejectsMalformedFailedLists) {
  EXPECT_THROW(FailureScenario({-1}), std::invalid_argument);
  EXPECT_THROW(FailureScenario({2, 2}), std::invalid_argument);
  EXPECT_THROW(FailureScenario({3, 1}), std::invalid_argument);
  EXPECT_NO_THROW(FailureScenario({0, 1, 7}));
}

TEST(CalibratedProbabilitiesTest, Equation1) {
  // Eqn 1: p = p_NN when degraded, (1 - alpha) p_i otherwise.
  const auto out = calibrated_probabilities({0.01, 0.02, 0.03},
                                            {false, true, false},
                                            {0.9, 0.45, 0.9}, 0.25);
  EXPECT_NEAR(out[0], 0.0075, 1e-12);
  EXPECT_NEAR(out[1], 0.45, 1e-12);
  EXPECT_NEAR(out[2], 0.0225, 1e-12);
}

TEST(CalibratedProbabilitiesTest, AlphaOneZeroesQuietFibers) {
  const auto out =
      calibrated_probabilities({0.01}, {false}, {0.5}, 1.0);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
}

TEST(CalibratedProbabilitiesTest, AlphaZeroDegradesToStatic) {
  // "If alpha equals 0 ... PreTE degrades to the existing work [6]."
  const auto out =
      calibrated_probabilities({0.013}, {false}, {0.5}, 0.0);
  EXPECT_DOUBLE_EQ(out[0], 0.013);
}

TEST(CalibratedProbabilitiesTest, SizeMismatchThrows) {
  EXPECT_THROW(
      calibrated_probabilities({0.1, 0.2}, {true}, {0.5, 0.5}, 0.25),
      std::invalid_argument);
}

class ScenarioMassProperty : public ::testing::TestWithParam<int> {};

TEST_P(ScenarioMassProperty, FullEnumerationMassIsExact) {
  // With max failures = n and no cutoff, the enumerated mass for small n
  // must equal the full product expansion within pairs truncation.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> probs;
  for (int i = 0; i < 4; ++i) probs.push_back(rng.uniform(0.0, 0.3));
  ScenarioOptions options;
  options.max_simultaneous_failures = 2;
  options.target_mass = 2.0;  // never triggers
  options.max_scenarios = 1000;
  const ScenarioSet set = generate_failure_scenarios(probs, options);
  // Expected mass: sum over subsets of size <= 2.
  double expected = 0.0;
  for (int mask = 0; mask < 16; ++mask) {
    if (__builtin_popcount(static_cast<unsigned>(mask)) > 2) continue;
    double p = 1.0;
    for (int i = 0; i < 4; ++i) {
      p *= (mask & (1 << i)) ? probs[static_cast<std::size_t>(i)]
                             : 1.0 - probs[static_cast<std::size_t>(i)];
    }
    expected += p;
  }
  EXPECT_NEAR(set.covered_probability, expected, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioMassProperty, ::testing::Range(1, 13));

}  // namespace
}  // namespace prete::te
