#include "core/controller.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "core/policy_guard.h"
#include "optical/simulator.h"
#include "te/evaluator.h"

namespace prete::core {
namespace {

// A fixed-probability predictor for exercising the controller without
// training a network.
class FixedPredictor : public ml::FailurePredictor {
 public:
  explicit FixedPredictor(double p) : p_(p) {}
  double predict(const optical::DegradationFeatures&) const override {
    return p_;
  }

 private:
  double p_;
};

struct ControllerFixture {
  net::Topology topo = net::make_triangle();
  std::shared_ptr<FixedPredictor> predictor =
      std::make_shared<FixedPredictor>(0.45);
  ControllerConfig config;

  ControllerFixture() { config.te.beta = 0.9; }

  Controller make() const {
    return Controller(topo, {0.005, 0.009, 0.001}, predictor, config);
  }
};

TEST(ControllerTest, RejectsBadConstruction) {
  ControllerFixture fx;
  EXPECT_THROW(Controller(fx.topo, {0.1}, fx.predictor), std::invalid_argument);
  EXPECT_THROW(Controller(fx.topo, {0.1, 0.1, 0.1}, nullptr),
               std::invalid_argument);
}

TEST(ControllerTest, PeriodicRunProducesLosslessPolicy) {
  ControllerFixture fx;
  Controller controller = fx.make();
  const auto decision = controller.on_te_period({5.0, 5.0});
  EXPECT_EQ(decision.new_tunnels, 0);
  EXPECT_LT(decision.phi, 1e-6);
}

TEST(ControllerTest, DegradationCreatesTunnelsAndPolicy) {
  ControllerFixture fx;
  Controller controller = fx.make();
  optical::DegradationFeatures features;
  features.fiber_id = 0;
  features.degree_db = 6.0;
  const auto decision = controller.on_degradation(features, {5.0, 5.0});
  // On the fully-tunneled triangle there is no NEW path to add (the paper's
  // "flow s1s3 remains the same because there is no new path") — but the
  // policy must still survive the predicted cut (Figure 7 behaviour).
  EXPECT_EQ(decision.new_tunnels, 0);
  te::TeProblem problem;
  problem.network = &fx.topo.network;
  problem.flows = &fx.topo.flows;
  problem.tunnels = &controller.tunnels();
  problem.demands = {5.0, 5.0};
  const te::FailureScenario cut({0}, 1.0);
  const auto losses = te::flow_losses(problem, decision.policy, cut);
  EXPECT_LT(losses[0], 1e-5);
  EXPECT_LT(losses[1], 1e-5);
}

TEST(ControllerTest, DegradationOnRichTopologyCreatesTunnels) {
  // On B4 there ARE new fiber-avoiding paths, so Algorithm 1 creates them.
  net::Topology topo = net::make_b4();
  std::vector<double> probs(static_cast<std::size_t>(topo.network.num_fibers()),
                            0.005);
  ControllerConfig config;
  config.te.beta = 0.99;
  Controller controller(topo, probs,
                        std::make_shared<FixedPredictor>(0.45), config);
  util::Rng rng(5);
  net::TrafficConfig tc;
  tc.diurnal_swing = 0.0;
  tc.noise = 0.0;
  const auto demands =
      net::generate_traffic(topo.network, topo.flows, rng, tc)[0];

  const int before = controller.tunnels().num_tunnels();
  optical::DegradationFeatures features;
  features.fiber_id = 0;
  const auto decision = controller.on_degradation(features, demands);
  EXPECT_GT(decision.new_tunnels, 0);
  EXPECT_EQ(controller.tunnels().num_tunnels(), before + decision.new_tunnels);

  controller.on_degradation_cleared();
  EXPECT_EQ(controller.tunnels().num_tunnels(), before);
}

TEST(ControllerTest, TelemetryPathDetectsDegradation) {
  ControllerFixture fx;
  Controller controller = fx.make();
  // Healthy 5 dB baseline, degradation of +6 dB in the middle.
  std::vector<double> trace(120, 5.0);
  for (int t = 50; t < 80; ++t) trace[static_cast<std::size_t>(t)] = 11.0;
  const auto decision =
      controller.on_telemetry(0, trace, 0, 5.0, {5.0, 5.0});
  ASSERT_TRUE(decision.has_value());
  // Triangle: no new path exists, but the believed scenario set reflects
  // the degradation (fiber 0 now carries the predictor's 45%).
  EXPECT_EQ(decision->new_tunnels, 0);
  EXPECT_LT(decision->phi, 1e-6);

  // Quiet trace: no decision.
  const std::vector<double> quiet(120, 5.0);
  EXPECT_FALSE(controller.on_telemetry(0, quiet, 0, 5.0, {5.0, 5.0}).has_value());
}

TEST(ControllerTest, UnknownFiberThrows) {
  ControllerFixture fx;
  Controller controller = fx.make();
  optical::DegradationFeatures features;
  features.fiber_id = 99;
  EXPECT_THROW(controller.on_degradation(features, {5.0, 5.0}),
               std::out_of_range);
}

TEST(ControllerTest, RejectsDemandsOfWrongSize) {
  // Every solve and the static floor index demands by flow id, so a vector
  // of the wrong length is refused before the ladder, with no state change.
  net::Topology topo = net::make_b4();
  std::vector<double> probs(static_cast<std::size_t>(topo.network.num_fibers()),
                            0.005);
  ControllerConfig config;
  config.te.beta = 0.99;
  config.te.solver.max_iterations = 6;  // bound test runtime
  Controller controller(topo, probs,
                        std::make_shared<FixedPredictor>(0.45), config);
  util::Rng rng(5);
  net::TrafficConfig tc;
  tc.diurnal_swing = 0.0;
  tc.noise = 0.0;
  const auto demands =
      net::generate_traffic(topo.network, topo.flows, rng, tc)[0];
  const net::TrafficMatrix half(demands.begin(),
                                demands.begin() + demands.size() / 2);
  net::TrafficMatrix extra = demands;
  extra.push_back(1.0);

  const int tunnels = controller.tunnels().num_tunnels();
  optical::DegradationFeatures features;
  features.fiber_id = 0;
  for (const net::TrafficMatrix& wrong : {half, extra}) {
    EXPECT_THROW(controller.on_te_period(wrong), std::invalid_argument);
    EXPECT_THROW(controller.on_degradation(features, wrong),
                 std::invalid_argument);
  }
  EXPECT_EQ(controller.tunnels().num_tunnels(), tunnels);
  EXPECT_EQ(controller.scheme().cache_stats().shapes, 0);

  const auto decision = controller.on_degradation(features, demands);
  EXPECT_EQ(decision.fallback_level, FallbackLevel::kFull);
  EXPECT_GT(decision.new_tunnels, 0);
}

TEST(ControllerTest, CarriedBasisCutsPivotsAcrossEpochs) {
  // The controller's scheme persists across TE periods, so epoch 2 on the
  // same topology/tunnel set warm-starts from epoch 1's bases and must spend
  // strictly fewer simplex pivots for the same guarantee.
  net::Topology topo = net::make_b4();
  std::vector<double> probs(static_cast<std::size_t>(topo.network.num_fibers()),
                            0.005);
  ControllerConfig config;
  config.te.beta = 0.99;
  config.te.solver.max_iterations = 6;  // bound test runtime
  Controller controller(topo, probs,
                        std::make_shared<FixedPredictor>(0.45), config);
  util::Rng rng(11);
  net::TrafficConfig tc;
  tc.diurnal_swing = 0.0;
  tc.noise = 0.0;
  const auto demands =
      net::generate_traffic(topo.network, topo.flows, rng, tc)[0];

  const auto epoch1 = controller.on_te_period(demands);
  const auto stats1 = controller.scheme().cache_stats();
  EXPECT_GT(epoch1.solver_pivots, 0);
  EXPECT_EQ(stats1.hits, 0);
  EXPECT_GT(stats1.cold_starts, 0);

  const auto epoch2 = controller.on_te_period(demands);
  const auto stats2 = controller.scheme().cache_stats();
  EXPECT_LT(epoch2.solver_pivots, epoch1.solver_pivots);
  EXPECT_GT(stats2.hits, 0);
  EXPECT_NEAR(epoch2.phi, epoch1.phi, 1e-6);

  // A degradation appends dynamic tunnels — a new problem shape. The cached
  // bases for the old shape must not be consumed: the new shape runs cold.
  optical::DegradationFeatures features;
  features.fiber_id = 0;
  const auto degraded = controller.on_degradation(features, demands);
  const auto stats3 = controller.scheme().cache_stats();
  EXPECT_GT(degraded.new_tunnels, 0);
  EXPECT_EQ(stats3.shapes, stats2.shapes + 1);
  EXPECT_GT(stats3.cold_starts, stats2.cold_starts);
  EXPECT_EQ(stats3.hits, stats2.hits);
}

TEST(ControllerTest, LadderDescendsToStaticFloorWithoutHistory) {
  // A 1-pivot budget cannot finish any solve, and a fresh controller has no
  // last-good policy: the first decision lands on the static floor, which is
  // validator-clean by construction.
  ControllerFixture fx;
  Controller controller = fx.make();
  controller.set_solver_budget(1);
  const auto decision = controller.on_te_period({5.0, 5.0});
  EXPECT_EQ(decision.fallback_level, FallbackLevel::kStaticFloor);
  EXPECT_TRUE(decision.deadline_exceeded);
  te::TeProblem problem;
  problem.network = &fx.topo.network;
  problem.flows = &fx.topo.flows;
  problem.tunnels = &controller.tunnels();
  problem.demands = {5.0, 5.0};
  EXPECT_TRUE(validate_policy(problem, decision.policy).valid);
  // The floor still carries traffic.
  double total = 0.0;
  for (double a : decision.policy.allocation) total += a;
  EXPECT_GT(total, 0.0);
}

TEST(ControllerTest, WarmBasisMakesStarvedSolveAnIncumbent) {
  // After a full solve on the same problem shape, even a 1-pivot budget
  // recovers the carried optimum as a usable (nonzero) incumbent — the
  // warm-start cache turns solver starvation into rung 1, not rung 2.
  ControllerFixture fx;
  Controller controller = fx.make();
  const auto full = controller.on_te_period({5.0, 5.0});
  ASSERT_EQ(full.fallback_level, FallbackLevel::kFull);
  EXPECT_FALSE(full.deadline_exceeded);

  controller.set_solver_budget(1);
  const auto fallback = controller.on_te_period({5.0, 5.0});
  EXPECT_EQ(fallback.fallback_level, FallbackLevel::kIncumbent);
  EXPECT_TRUE(fallback.deadline_exceeded);
  double total = 0.0;
  for (double a : fallback.policy.allocation) total += a;
  EXPECT_GT(total, 0.0);
  te::TeProblem problem;
  problem.network = &fx.topo.network;
  problem.flows = &fx.topo.flows;
  problem.tunnels = &controller.tunnels();
  problem.demands = {5.0, 5.0};
  EXPECT_TRUE(validate_policy(problem, fallback.policy).valid);
}

TEST(ControllerTest, LadderFallsBackToLastGoodOnColdShape) {
  // A degradation on B4 appends dynamic tunnels — a new problem shape with
  // no cached basis. A starved cold solve yields no incumbent, so the
  // controller re-projects the last validated policy onto the grown tunnel
  // table: the static prefix is preserved, the new tunnels get zero.
  net::Topology topo = net::make_b4();
  std::vector<double> probs(
      static_cast<std::size_t>(topo.network.num_fibers()), 0.005);
  ControllerConfig config;
  config.te.beta = 0.99;
  Controller controller(topo, probs, std::make_shared<FixedPredictor>(0.45),
                        config);
  util::Rng rng(5);
  net::TrafficConfig tc;
  tc.diurnal_swing = 0.0;
  tc.noise = 0.0;
  const auto demands =
      net::generate_traffic(topo.network, topo.flows, rng, tc)[0];

  const auto full = controller.on_te_period(demands);
  ASSERT_EQ(full.fallback_level, FallbackLevel::kFull);
  const std::size_t static_count = full.policy.allocation.size();

  controller.set_solver_budget(1);
  optical::DegradationFeatures features;
  features.fiber_id = 0;
  const auto fallback = controller.on_degradation(features, demands);
  EXPECT_GT(fallback.new_tunnels, 0);
  EXPECT_EQ(fallback.fallback_level, FallbackLevel::kLastGood);
  EXPECT_TRUE(fallback.deadline_exceeded);
  // Fallback rungs carry no solver guarantee.
  EXPECT_DOUBLE_EQ(fallback.phi, 1.0);
  EXPECT_DOUBLE_EQ(fallback.gap, 1.0);
  ASSERT_EQ(fallback.policy.allocation.size(),
            static_count + static_cast<std::size_t>(fallback.new_tunnels));
  for (std::size_t t = 0; t < fallback.policy.allocation.size(); ++t) {
    const double expected =
        t < static_count ? full.policy.allocation[t] : 0.0;
    EXPECT_EQ(fallback.policy.allocation[t], expected) << "tunnel " << t;
  }
}

TEST(ControllerTest, StaticFloorDoesNotLaunderIntoLastGood) {
  // Two starved decisions on a fresh controller: if the first (static
  // floor) decision had refreshed the last-good snapshot, the second would
  // report kLastGood. It must not.
  ControllerFixture fx;
  Controller controller = fx.make();
  controller.set_solver_budget(1);
  const auto first = controller.on_te_period({5.0, 5.0});
  EXPECT_EQ(first.fallback_level, FallbackLevel::kStaticFloor);
  const auto second = controller.on_te_period({5.0, 5.0});
  EXPECT_EQ(second.fallback_level, FallbackLevel::kStaticFloor);
}

TEST(ControllerTest, DefaultBudgetMatchesExplicitUnlimited) {
  ControllerFixture fx;
  Controller a = fx.make();
  Controller b = fx.make();
  b.set_solver_budget(0);
  const auto da = a.on_te_period({5.0, 5.0});
  const auto db = b.on_te_period({5.0, 5.0});
  EXPECT_EQ(da.policy.allocation, db.policy.allocation);
  EXPECT_EQ(da.fallback_level, FallbackLevel::kFull);
  EXPECT_EQ(db.fallback_level, FallbackLevel::kFull);
  EXPECT_EQ(da.solver_pivots, db.solver_pivots);
}

TEST(ControllerTest, GenerousBudgetMatchesUnbudgetedDecision) {
  ControllerFixture fx;
  Controller a = fx.make();
  Controller b = fx.make();
  b.set_solver_budget(1'000'000);
  const auto da = a.on_te_period({5.0, 5.0});
  const auto db = b.on_te_period({5.0, 5.0});
  EXPECT_EQ(db.fallback_level, FallbackLevel::kFull);
  EXPECT_FALSE(db.deadline_exceeded);
  EXPECT_EQ(da.policy.allocation, db.policy.allocation);
}

TEST(ControllerTest, MalformedTelemetryWindowsAreRejected) {
  ControllerFixture fx;
  Controller controller = fx.make();
  std::vector<double> trace(120, 5.0);
  for (int t = 50; t < 80; ++t) trace[static_cast<std::size_t>(t)] = 11.0;

  // Unknown fiber, empty trace, negative start, bad healthy loss: all
  // rejected with nullopt instead of a throw or a garbage decision.
  EXPECT_FALSE(
      controller.on_telemetry(99, trace, 0, 5.0, {5.0, 5.0}).has_value());
  EXPECT_FALSE(
      controller.on_telemetry(-1, trace, 0, 5.0, {5.0, 5.0}).has_value());
  EXPECT_FALSE(
      controller.on_telemetry(0, {}, 0, 5.0, {5.0, 5.0}).has_value());
  EXPECT_FALSE(
      controller.on_telemetry(0, trace, -5, 5.0, {5.0, 5.0}).has_value());
  EXPECT_FALSE(
      controller.on_telemetry(0, trace, 0, 0.0, {5.0, 5.0}).has_value());
  EXPECT_FALSE(controller
                   .on_telemetry(0, trace, 0,
                                 std::numeric_limits<double>::quiet_NaN(),
                                 {5.0, 5.0})
                   .has_value());
  // The well-formed window still works.
  EXPECT_TRUE(
      controller.on_telemetry(0, trace, 0, 5.0, {5.0, 5.0}).has_value());
}

TEST(ControllerTest, NanRunsInTelemetryAreTolerated) {
  ControllerFixture fx;
  Controller controller = fx.make();
  // Jittered baseline: a perfectly constant trace would (correctly) trip
  // the stuck-at detector, which is not what this test is about.
  std::vector<double> trace(120);
  for (int t = 0; t < 120; ++t) {
    trace[static_cast<std::size_t>(t)] = 5.0 + 0.02 * (t % 2);
  }
  for (int t = 50; t < 80; ++t) {
    trace[static_cast<std::size_t>(t)] = 11.0 + 0.02 * (t % 2);
  }
  // Drop a NaN run inside the degradation and a few scattered holes.
  for (int t = 60; t < 66; ++t) {
    trace[static_cast<std::size_t>(t)] =
        std::numeric_limits<double>::quiet_NaN();
  }
  trace[10] = std::numeric_limits<double>::quiet_NaN();
  const auto decision = controller.on_telemetry(0, trace, 0, 5.0, {5.0, 5.0});
  ASSERT_TRUE(decision.has_value());
  EXPECT_GT(controller.last_telemetry_quality().missing, 0u);
  EXPECT_TRUE(controller.last_telemetry_quality().trusted());
}

TEST(ControllerTest, UntrustedWindowStillTriggersReaction) {
  ControllerFixture fx;
  Controller controller = fx.make();
  // Degraded window where most samples are missing: the detector still sees
  // the (interpolated) level shift, but the quality verdict forbids feeding
  // the ML predictor; the decision must exist and be flagged untrusted.
  std::vector<double> trace(120, std::numeric_limits<double>::quiet_NaN());
  for (int t = 0; t < 120; t += 4) trace[static_cast<std::size_t>(t)] = 5.0;
  for (int t = 48; t < 80; t += 4) {
    trace[static_cast<std::size_t>(t)] = 11.0;
  }
  const auto decision = controller.on_telemetry(0, trace, 0, 5.0, {5.0, 5.0});
  ASSERT_TRUE(decision.has_value());
  EXPECT_FALSE(controller.last_telemetry_quality().trusted());
  // The reaction used the static probability, not the 45% predictor.
  bool found = false;
  for (const auto& s : decision->believed_scenarios.scenarios) {
    if (!s.failed().empty() && s.failed().front() == 0) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ControllerTest, AllNanWindowYieldsNoDecision) {
  ControllerFixture fx;
  Controller controller = fx.make();
  const std::vector<double> trace(
      120, std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(
      controller.on_telemetry(0, trace, 0, 5.0, {5.0, 5.0}).has_value());
  EXPECT_TRUE(controller.last_telemetry_quality().all_missing);
}

TEST(ControllerTest, ThrowingPredictorFallsBackToStaticProbability) {
  ControllerFixture fx;
  class ThrowingPredictor : public ml::FailurePredictor {
   public:
    double predict(const optical::DegradationFeatures&) const override {
      throw std::runtime_error("injected");
    }
  };
  Controller controller(fx.topo, {0.005, 0.009, 0.001},
                        std::make_shared<ThrowingPredictor>(), fx.config);
  optical::DegradationFeatures features;
  features.fiber_id = 0;
  features.degree_db = 6.0;
  ControlDecision decision;
  ASSERT_NO_THROW(decision = controller.on_degradation(features, {5.0, 5.0}));
  EXPECT_EQ(decision.fallback_level, FallbackLevel::kFull);
}

TEST(ControllerTest, SolverBudgetRejectsInvalidValues) {
  ControllerFixture fx;
  Controller controller = fx.make();
  controller.set_solver_budget(5000);
  EXPECT_THROW(controller.set_solver_budget(-1), std::invalid_argument);
  EXPECT_THROW(controller.set_solver_budget(0, -0.5), std::invalid_argument);
  EXPECT_THROW(
      controller.set_solver_budget(
          0, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
  // A rejected call leaves the current budget untouched.
  EXPECT_EQ(controller.config().solver_pivot_budget, 5000);
  EXPECT_EQ(controller.config().solver_wall_ms, 0.0);
}

TEST(ControllerTest, PivotBudgetOnlyModeLeavesWallClockDisarmed) {
  // wall_ms = 0 with a positive pivot budget is the documented
  // reproducible mode: expiry depends only on work done, so the same call
  // yields the same decision twice.
  ControllerFixture fx;
  Controller a = fx.make();
  Controller b = fx.make();
  a.set_solver_budget(40, 0.0);
  b.set_solver_budget(40, 0.0);
  const auto da = a.on_te_period({5.0, 5.0});
  const auto db = b.on_te_period({5.0, 5.0});
  EXPECT_EQ(da.fallback_level, db.fallback_level);
  EXPECT_EQ(da.deadline_exceeded, db.deadline_exceeded);
  ASSERT_EQ(da.policy.allocation.size(), db.policy.allocation.size());
  for (std::size_t i = 0; i < da.policy.allocation.size(); ++i) {
    EXPECT_EQ(da.policy.allocation[i], db.policy.allocation[i]);
  }
}

TEST(ControllerTest, PrepareDecideComposesToOnTelemetry) {
  ControllerFixture fx;
  Controller serial = fx.make();
  Controller split = fx.make();
  std::vector<double> trace(120, 5.0);
  for (int t = 50; t < 80; ++t) trace[static_cast<std::size_t>(t)] = 11.0;

  const auto direct = serial.on_telemetry(0, trace, 0, 5.0, {5.0, 5.0});
  const PreparedEpoch prepared = split.prepare_telemetry(0, trace, 0, 5.0);
  ASSERT_TRUE(prepared.has_signal);
  EXPECT_FALSE(prepared.malformed);
  const auto composed = split.decide_prepared(prepared, {5.0, 5.0});

  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(direct->fallback_level, composed.fallback_level);
  ASSERT_EQ(direct->policy.allocation.size(),
            composed.policy.allocation.size());
  for (std::size_t i = 0; i < direct->policy.allocation.size(); ++i) {
    EXPECT_EQ(direct->policy.allocation[i], composed.policy.allocation[i]);
  }
}

TEST(ControllerTest, DecidePreparedWithoutSignalThrows) {
  ControllerFixture fx;
  Controller controller = fx.make();
  PreparedEpoch empty;
  EXPECT_THROW(controller.decide_prepared(empty, {5.0, 5.0}),
               std::invalid_argument);
}

TEST(ControllerTest, CancelledSolveIsSupersededAndSkipsLastGoodRefresh) {
  ControllerFixture fx;
  Controller controller = fx.make();
  std::vector<double> trace(120, 5.0);
  for (int t = 50; t < 80; ++t) trace[static_cast<std::size_t>(t)] = 11.0;

  // Epoch A: clean full solve seeds the last-good snapshot.
  const auto a = controller.on_telemetry(0, trace, 0, 5.0, {5.0, 5.0});
  ASSERT_TRUE(a.has_value());
  ASSERT_EQ(a->fallback_level, FallbackLevel::kFull);

  // Probe 1: a collapsed solve lands on last-good; remember that policy.
  controller.arm_solver_exception(1);
  const auto probe1 = controller.on_telemetry(1, trace, 300, 5.0, {5.0, 5.0});
  ASSERT_TRUE(probe1.has_value());
  ASSERT_EQ(probe1->fallback_level, FallbackLevel::kLastGood);

  // Epoch B: a superseding epoch cancels the solve before it can pivot. The
  // decision is marked superseded and must NOT refresh last-good.
  const PreparedEpoch prepared =
      controller.prepare_telemetry(2, trace, 600, 5.0);
  ASSERT_TRUE(prepared.has_signal);
  util::Deadline cancelled = util::Deadline::unlimited();
  cancelled.request_cancel();
  const auto b = controller.decide_prepared(prepared, {5.0, 5.0}, &cancelled);
  EXPECT_TRUE(b.superseded);
  EXPECT_NE(b.fallback_level, FallbackLevel::kFull);
  EXPECT_NE(b.fallback_level, FallbackLevel::kIncumbent);

  // Probe 2: another collapse must land on the SAME last-good policy as
  // probe 1 — bit-for-bit — proving the cancelled solve refreshed nothing.
  controller.arm_solver_exception(1);
  const auto probe2 = controller.on_telemetry(0, trace, 900, 5.0, {5.0, 5.0});
  ASSERT_TRUE(probe2.has_value());
  ASSERT_EQ(probe2->fallback_level, FallbackLevel::kLastGood);
  ASSERT_EQ(probe1->policy.allocation.size(),
            probe2->policy.allocation.size());
  for (std::size_t i = 0; i < probe1->policy.allocation.size(); ++i) {
    EXPECT_EQ(probe1->policy.allocation[i], probe2->policy.allocation[i]);
  }
}

TEST(ControllerTest, ArmedSolverExceptionIsContainedByLadder) {
  ControllerFixture fx;
  Controller controller = fx.make();
  controller.arm_solver_exception(1);
  ControlDecision decision;
  ASSERT_NO_THROW(decision = controller.on_te_period({5.0, 5.0}));
  // No history yet: the injected throw descends all the way to the floor.
  EXPECT_EQ(decision.fallback_level, FallbackLevel::kStaticFloor);
  // The armed count is consumed: the next solve is healthy again.
  const auto next = controller.on_te_period({5.0, 5.0});
  EXPECT_EQ(next.fallback_level, FallbackLevel::kFull);
}

}  // namespace
}  // namespace prete::core
