// Quickstart: the PreTE controller on the paper's 3-node worked example
// (Figures 2/3/7). Shows the full public API surface in ~60 lines:
// topology -> controller -> periodic TE run -> degradation reaction ->
// verifying that the policy survives the predicted cut.
#include <chrono>
#include <iostream>
#include <memory>

#include "core/controller.h"
#include "te/evaluator.h"

namespace {

// A stand-in predictor for the quickstart; examples/train_predictor.cpp
// shows how to train the real neural network.
class FortyFivePercent : public prete::ml::FailurePredictor {
 public:
  double predict(const prete::optical::DegradationFeatures&) const override {
    return 0.45;
  }
};

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

int main() {
  using namespace prete;

  // 1. The Figure-2 network: three sites, three fibers, 10 units per link,
  //    flows s1->s2 and s1->s3 of 5 units each.
  const net::Topology topo = net::make_triangle();
  const net::TrafficMatrix demands{5.0, 5.0};

  // 2. A PreTE controller with the measured static cut probabilities.
  core::ControllerConfig config;
  config.te.beta = 0.9;
  core::Controller controller(topo, {0.005, 0.009, 0.001},
                              std::make_shared<FortyFivePercent>(), config);

  // 3. Periodic TE run: no degradation anywhere.
  Clock::time_point start = Clock::now();
  const auto periodic = controller.on_te_period(demands);
  std::cout << "periodic TE run: guaranteed max loss Phi = " << periodic.phi
            << ", decided in " << ms_since(start) << " ms\n";

  // 4. A degradation shows up on fiber s1s2 (one-second telemetry window).
  std::vector<double> trace(120, 5.0);  // healthy baseline: 5 dB
  for (int t = 60; t < 90; ++t) trace[static_cast<std::size_t>(t)] = 11.0;
  start = Clock::now();
  const auto reaction = controller.on_telemetry(/*fiber=*/0, trace,
                                                /*trace_start_sec=*/0,
                                                /*healthy_loss_db=*/5.0,
                                                demands);
  if (!reaction) {
    std::cerr << "expected a degradation reaction\n";
    return 1;
  }
  std::cout << "degradation reaction: " << reaction->new_tunnels
            << " new tunnels, detected and decided in " << ms_since(start)
            << " ms\n";

  // 5. The cut lands. Rate adaptation onto the surviving tunnels keeps both
  //    flows whole (Figure 7b).
  te::TeProblem problem;
  problem.network = &topo.network;
  problem.flows = &topo.flows;
  problem.tunnels = &controller.tunnels();
  problem.demands = demands;
  const te::FailureScenario cut({0}, 1.0);  // fiber 0 carries s1s2
  const auto losses = te::flow_losses(problem, reaction->policy, cut);
  std::cout << "after the s1s2 cut: flow s1s2 loss = " << losses[0]
            << ", flow s1s3 loss = " << losses[1] << "\n";
  const bool lossless = losses[0] < 1e-6 && losses[1] < 1e-6;
  std::cout << (lossless ? "PreTE kept the full 10 units of throughput.\n"
                         : "unexpected loss!\n");
  return lossless ? 0 : 1;
}
