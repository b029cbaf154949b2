// A day in the life of a PreTE-operated WAN: hourly traffic matrices on the
// B4 topology, simulated optical events, controller reactions, and an
// availability comparison against a static TeaVar-style policy.
#include <chrono>
#include <iostream>
#include <memory>

#include "core/controller.h"
#include "net/traffic.h"
#include "optical/simulator.h"
#include "te/availability.h"
#include "util/table.h"

namespace {

// Predictor that mirrors nature's conditional probability with a small
// calibration error (the trained-NN operating point).
class CalibratedPredictor : public prete::ml::FailurePredictor {
 public:
  CalibratedPredictor(const prete::net::Network& net,
                      const std::vector<prete::optical::FiberModelParams>& params,
                      prete::optical::CutLogitModel logit)
      : net_(net), params_(params), logit_(logit) {}

  double predict(const prete::optical::DegradationFeatures& f) const override {
    const double p = logit_.probability(
        f, params_[static_cast<std::size_t>(f.fiber_id)].fiber_effect);
    return std::min(0.99, p + 0.05);  // slightly conservative calibration
  }

 private:
  const prete::net::Network& net_;
  const std::vector<prete::optical::FiberModelParams>& params_;
  prete::optical::CutLogitModel logit_;
};

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

int main() {
  using namespace prete;

  const net::Topology topo = net::make_b4();
  util::Rng rng(42);
  const auto params = optical::build_plant_model(topo.network, rng);
  const optical::CutLogitModel logit;
  const optical::PlantSimulator sim(topo.network, params);

  // Hourly traffic matrices (Table 3: 24 per topology).
  util::Rng traffic_rng(43);
  const auto matrices =
      net::generate_traffic(topo.network, topo.flows, traffic_rng);

  // One simulated day of optical events.
  util::Rng event_rng(44);
  const optical::EventLog day = sim.simulate(24 * 3600, event_rng);
  std::cout << "simulated day: " << day.degradations.size()
            << " degradations, " << day.cuts.size() << " cuts\n\n";

  std::vector<double> static_probs(static_cast<std::size_t>(topo.network.num_fibers()));
  for (net::FiberId f = 0; f < topo.network.num_fibers(); ++f) {
    const auto& p = params[static_cast<std::size_t>(f)];
    static_probs[static_cast<std::size_t>(f)] =
        0.4 * p.degradation_prob_per_epoch + p.abrupt_cut_prob_per_epoch;
  }
  core::ControllerConfig config;
  config.te.beta = 0.99;
  config.te.scenario_options.max_simultaneous_failures = 1;
  core::Controller controller(
      topo, static_probs,
      std::make_shared<CalibratedPredictor>(topo.network, params, logit),
      config);

  // Walk the day hour by hour: periodic runs plus degradation reactions.
  // "decision (ms)" is the wall time of the controller call.
  util::Table timeline({"hour", "event", "new tunnels", "decision (ms)", "Phi"});
  std::size_t next_event = 0;
  for (int hour = 0; hour < 24; ++hour) {
    const auto& tm = matrices[static_cast<std::size_t>(hour)];
    Clock::time_point start = Clock::now();
    const auto periodic = controller.on_te_period(tm);
    timeline.add_row({std::to_string(hour), "periodic", "0",
                      util::Table::format(ms_since(start), 2),
                      util::Table::format(periodic.phi, 3)});
    // Degradations within this hour trigger reactive runs.
    while (next_event < day.degradations.size() &&
           day.degradations[next_event].onset_sec < (hour + 1) * 3600) {
      const auto& event = day.degradations[next_event++];
      start = Clock::now();
      const auto reaction = controller.on_degradation(event.features, tm);
      const double decision_ms = ms_since(start);
      timeline.add_row(
          {std::to_string(hour),
           "degradation f" + std::to_string(event.fiber) +
               (event.led_to_cut ? " (cut followed)" : ""),
           std::to_string(reaction.new_tunnels),
           util::Table::format(decision_ms, 2),
           util::Table::format(reaction.phi, 3)});
      controller.on_degradation_cleared();
    }
  }
  timeline.print(std::cout);

  // Availability comparison at an aggressive demand scale.
  std::cout << "\navailability at 4x demand (availability study):\n";
  util::Rng stats_rng(45);
  const auto stats = te::derive_statistics(topo.network, params, logit, stats_rng);
  te::StudyOptions study_options;
  study_options.beta = 0.99;
  study_options.scenario_options.max_simultaneous_failures = 1;
  study_options.scenario_options.max_scenarios = 40;
  study_options.degradation_mass_target = 0.99;
  const te::AvailabilityStudy study(topo, stats, study_options);
  const auto demands = net::scale_traffic(matrices[12], 4.0);
  te::TeaVarScheme teavar(0.99);
  std::cout << "  TeaVar (static probabilities): "
            << study.evaluate_static(teavar, demands) << "\n";
  std::cout << "  PreTE (NN-calibrated):          "
            << study.evaluate_prete(te::PredictorModel::kNeuralNet, demands)
            << "\n";
  return 0;
}
