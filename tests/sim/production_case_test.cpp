#include "sim/production_case.h"

#include <gtest/gtest.h>

namespace prete::sim {
namespace {

TEST(ProductionCaseTest, TraditionalSuffersSustainedLoss) {
  const ProductionRun run = run_production_case({}, {});
  // After failover, link s1s2 is oversubscribed by 300 Gbps until the next
  // TE period (300 s).
  bool sustained = false;
  for (const LossSample& s : run.traditional) {
    if (s.time_sec > 80.0 && s.time_sec < 290.0 && s.loss_gbps > 250.0) {
      sustained = true;
    }
  }
  EXPECT_TRUE(sustained);
  EXPECT_GT(run.traditional_lost_gb, 100.0);
}

TEST(ProductionCaseTest, PreTeAvoidsSustainedLoss) {
  const ProductionRun run = run_production_case({}, {});
  for (const LossSample& s : run.prete) {
    if (s.time_sec > 75.0) {
      EXPECT_LT(s.loss_gbps, 50.0) << "t=" << s.time_sec;
    }
  }
  EXPECT_LT(run.prete_lost_gb, run.traditional_lost_gb / 10.0);
}

TEST(ProductionCaseTest, NoLossBeforeCut) {
  const ProductionRun run = run_production_case({}, {});
  for (const LossSample& s : run.traditional) {
    if (s.time_sec < 69.0) {
      EXPECT_DOUBLE_EQ(s.loss_gbps, 0.0);
    }
  }
  for (const LossSample& s : run.prete) {
    if (s.time_sec < 69.0) {
      EXPECT_DOUBLE_EQ(s.loss_gbps, 0.0);
    }
  }
}

TEST(ProductionCaseTest, LossEndsAtNextTePeriod) {
  const ProductionRun run = run_production_case({}, {});
  for (const LossSample& s : run.traditional) {
    if (s.time_sec > 301.0) {
      EXPECT_DOUBLE_EQ(s.loss_gbps, 0.0);
    }
  }
}

TEST(ProductionCaseTest, UnpreparedPreTeFallsBack) {
  // If preparation cannot complete before the cut, PreTE behaves like the
  // traditional system (no magic).
  ProductionScript script;
  // The pipeline takes ~0.5 s; 0.2 s of warning is not enough.
  script.degradation_onset_sec = 69.8;
  script.cut_sec = 70.0;
  const ProductionRun run = run_production_case(script, {});
  EXPECT_NEAR(run.prete_lost_gb, run.traditional_lost_gb, 1.0);
}

TEST(ProductionCaseTest, RouterFailoverWindowBlackholes) {
  const ProductionRun run = run_production_case({}, {});
  // During the 3 s router failover, the full 600 Gbps of s1s3 is lost.
  bool blackhole = false;
  for (const LossSample& s : run.traditional) {
    if (s.time_sec >= 70.0 && s.time_sec < 73.0 && s.loss_gbps >= 599.0) {
      blackhole = true;
    }
  }
  EXPECT_TRUE(blackhole);
}

}  // namespace
}  // namespace prete::sim
