// End-to-end integration: telemetry simulation -> dataset -> trained MLP ->
// controller -> reactive policy -> evaluated survival of the predicted cut.
// This is the full Figure 8 pipeline in one test binary.
#include <gtest/gtest.h>

#include <memory>

#include "core/controller.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "optical/simulator.h"
#include "sim/latency.h"
#include "te/evaluator.h"

namespace prete::core {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    topo_ = net::make_b4();
    util::Rng rng(1234);
    params_ = optical::build_plant_model(topo_.network, rng);
    sim_ = std::make_unique<optical::PlantSimulator>(topo_.network, params_);

    // Train the predictor on four simulated months.
    util::Rng sim_rng(99);
    log_ = sim_->simulate(120LL * 24 * 3600, sim_rng);
    const ml::Dataset dataset = ml::build_dataset(log_);
    ASSERT_GT(dataset.examples.size(), 500u);
    split_ = ml::split_per_fiber(dataset);
    ml::FeatureEncoder encoder;
    encoder.fit(split_.train);
    ml::MlpConfig config;
    config.epochs = 15;
    predictor_ = std::make_shared<ml::MlpPredictor>(encoder, config);
    predictor_->train(split_.train);

    util::Rng traffic_rng(55);
    net::TrafficConfig tc;
    tc.diurnal_swing = 0.0;
    tc.noise = 0.0;
    demands_ = net::generate_traffic(topo_.network, topo_.flows, traffic_rng, tc)[0];

    for (const auto& p : params_) {
      static_probs_.push_back(0.4 * p.degradation_prob_per_epoch +
                              p.abrupt_cut_prob_per_epoch);
    }
  }

  net::Topology topo_;
  std::vector<optical::FiberModelParams> params_;
  std::unique_ptr<optical::PlantSimulator> sim_;
  optical::EventLog log_;
  ml::TrainTestSplit split_;
  std::shared_ptr<ml::MlpPredictor> predictor_;
  net::TrafficMatrix demands_;
  std::vector<double> static_probs_;
};

TEST_F(IntegrationTest, TrainedPredictorBeatsChance) {
  const ml::Metrics m = ml::evaluate(*predictor_, split_.test);
  EXPECT_GT(m.f1(), 0.5);
  EXPECT_GT(m.accuracy(), 0.65);
}

TEST_F(IntegrationTest, ControllerReactsToRealTelemetry) {
  ControllerConfig config;
  config.te.beta = 0.99;
  config.te.scenario_options.max_simultaneous_failures = 1;
  Controller controller(topo_, static_probs_, predictor_, config);

  // Find a real degradation-then-cut event in the log and replay its
  // telemetry window through the controller.
  const optical::DegradationRecord* event = nullptr;
  for (const auto& d : log_.degradations) {
    if (d.led_to_cut && d.duration_sec > 10.0) {
      event = &d;
      break;
    }
  }
  ASSERT_NE(event, nullptr) << "no degradation-then-cut event simulated";

  util::Rng trace_rng(7);
  const auto trace = optical::interpolate_missing(sim_->loss_trace(
      log_, event->fiber, event->onset_sec - 30, event->onset_sec + 60,
      trace_rng));
  const auto decision = controller.on_telemetry(
      event->fiber, trace, event->onset_sec - 30,
      sim_->params(event->fiber).healthy_loss_db, demands_);
  ASSERT_TRUE(decision.has_value());

  // The policy must keep every flow's loss low when the predicted cut
  // actually lands.
  te::TeProblem problem;
  problem.network = &topo_.network;
  problem.flows = &topo_.flows;
  problem.tunnels = &controller.tunnels();
  problem.demands = demands_;
  const te::FailureScenario cut({event->fiber}, 1.0);
  const auto losses = te::flow_losses(problem, decision->policy, cut);
  for (std::size_t f = 0; f < losses.size(); ++f) {
    EXPECT_LT(losses[f], 0.05) << "flow " << f << " loses after the cut";
  }
}

TEST_F(IntegrationTest, PipelineFitsInsideDegradationGap) {
  ControllerConfig config;
  config.te.beta = 0.99;
  config.te.scenario_options.max_simultaneous_failures = 1;
  Controller controller(topo_, static_probs_, predictor_, config);
  optical::DegradationFeatures features;
  features.fiber_id = 2;
  features.degree_db = 7.0;
  const auto decision = controller.on_degradation(features, demands_);
  // Median degradation->cut gaps are well beyond 5 s (Figure 5a); the
  // testbed's modeled pipeline for this decision, installs included, must
  // fit.
  const sim::PipelineTrace trace = sim::pipeline_trace(
      sim::LatencyModel{}, decision.new_tunnels,
      static_cast<int>(decision.believed_scenarios.scenarios.size()));
  EXPECT_LT(trace.total_ms, 30000.0);
  EXPECT_LT(trace.control_path_ms, 300.0);
  controller.on_degradation_cleared();
}

TEST_F(IntegrationTest, RepeatedEpochsAreStable) {
  ControllerConfig config;
  config.te.beta = 0.99;
  config.te.scenario_options.max_simultaneous_failures = 1;
  Controller controller(topo_, static_probs_, predictor_, config);
  const int base_tunnels = controller.tunnels().num_tunnels();
  for (int epoch = 0; epoch < 3; ++epoch) {
    const auto periodic = controller.on_te_period(demands_);
    EXPECT_LT(periodic.phi, 0.05) << "epoch " << epoch;
    optical::DegradationFeatures features;
    features.fiber_id = epoch;
    features.degree_db = 5.0;
    controller.on_degradation(features, demands_);
    controller.on_degradation_cleared();
    // Tunnel table returns to its pre-degradation size every epoch.
    EXPECT_EQ(controller.tunnels().num_tunnels(), base_tunnels);
  }
}

}  // namespace
}  // namespace prete::core
