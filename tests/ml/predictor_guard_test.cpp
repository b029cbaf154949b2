#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ml/encoder.h"
#include "ml/mlp.h"
#include "ml/predictor.h"
#include "util/rng.h"

namespace prete::ml {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

Dataset small_dataset(int n, util::Rng& rng) {
  Dataset ds;
  for (int i = 0; i < n; ++i) {
    Example e;
    e.features.fiber_id = static_cast<int>(rng.next_below(4));
    e.features.region = static_cast<int>(rng.next_below(2));
    e.features.vendor = static_cast<int>(rng.next_below(2));
    e.features.degree_db = rng.uniform(3.0, 10.0);
    e.features.gradient_db = rng.uniform(0.0, 1.0);
    e.features.fluctuation = rng.uniform(0.0, 20.0);
    e.features.length_km = rng.uniform(100.0, 2000.0);
    e.features.hour = rng.uniform(0.0, 24.0);
    e.label = e.features.degree_db > 6.5 ? 1 : 0;
    e.true_probability = e.label;
    ds.examples.push_back(e);
  }
  return ds;
}

optical::DegradationFeatures corrupted_features(double bad) {
  optical::DegradationFeatures f;
  f.fiber_id = 1;
  f.region = 0;
  f.vendor = 0;
  f.degree_db = bad;  // the corrupted field
  f.gradient_db = 0.2;
  f.fluctuation = 4.0;
  f.length_km = 500.0;
  f.hour = 12.0;
  return f;
}

TEST(PredictorGuardTest, FeaturesFiniteDetectsEveryContinuousField) {
  optical::DegradationFeatures f = corrupted_features(6.0);
  EXPECT_TRUE(features_finite(f));
  f.degree_db = kNan;
  EXPECT_FALSE(features_finite(f));
  f = corrupted_features(6.0);
  f.gradient_db = kInf;
  EXPECT_FALSE(features_finite(f));
  f = corrupted_features(6.0);
  f.fluctuation = -kInf;
  EXPECT_FALSE(features_finite(f));
  f = corrupted_features(6.0);
  f.length_km = kNan;
  EXPECT_FALSE(features_finite(f));
  f = corrupted_features(6.0);
  f.hour = kNan;
  EXPECT_FALSE(features_finite(f));
}

TEST(PredictorGuardTest, MlpFallsBackToStaticPriorOnNonFiniteFeatures) {
  util::Rng rng(11);
  const Dataset train = small_dataset(200, rng);
  FeatureEncoder enc;
  enc.fit(train);
  MlpConfig config;
  config.epochs = 3;
  config.static_prior = 0.25;
  MlpPredictor mlp(enc, config);
  mlp.train(train);

  EXPECT_DOUBLE_EQ(mlp.predict(corrupted_features(kNan)), 0.25);
  EXPECT_DOUBLE_EQ(mlp.predict(corrupted_features(kInf)), 0.25);
  // Healthy features still go through the network, not the prior.
  const double live = mlp.predict(corrupted_features(9.0));
  EXPECT_TRUE(std::isfinite(live));
  EXPECT_GE(live, 0.0);
  EXPECT_LE(live, 1.0);
}

TEST(PredictorGuardTest, MlpClampsOutOfRangePrior) {
  util::Rng rng(12);
  const Dataset train = small_dataset(50, rng);
  FeatureEncoder enc;
  enc.fit(train);
  MlpConfig config;
  config.epochs = 1;
  config.static_prior = 7.0;  // misconfigured; must still yield a probability
  MlpPredictor mlp(enc, config);
  mlp.train(train);
  EXPECT_DOUBLE_EQ(mlp.predict(corrupted_features(kNan)), 1.0);
}

TEST(PredictorGuardTest, EncoderToleratesNonFiniteFields) {
  // Even if a caller bypasses the predictor guard, the encoder itself must
  // not emit NaN (scale maps non-finite to mid-range; a non-finite hour
  // one-hots to hour zero).
  util::Rng rng(14);
  const Dataset train = small_dataset(100, rng);
  FeatureEncoder enc;
  enc.fit(train);
  optical::DegradationFeatures f = corrupted_features(kNan);
  f.hour = kNan;
  f.length_km = kInf;
  const auto encoded = enc.encode_dense(f);
  for (double v : encoded) EXPECT_TRUE(std::isfinite(v));
}

}  // namespace
}  // namespace prete::ml
