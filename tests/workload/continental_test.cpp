#include "workload/continental.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "net/tunnels.h"
#include "runtime/thread_pool.h"
#include "te/evaluator.h"
#include "te/scenario.h"

namespace prete::workload {
namespace {

// One shared default-config workload: generation is fast (tens of ms) but
// there is no reason to repeat it per test.
const ContinentalWorkload& default_workload() {
  static const ContinentalWorkload w =
      generate_continental_workload(ContinentalConfig{});
  return w;
}

TEST(ContinentalTest, DefaultConfigMeetsScaleFloors) {
  const ContinentalWorkload& w = default_workload();
  EXPECT_GE(w.topology.network.num_nodes(), 200);
  EXPECT_GE(w.topology.network.num_fibers(), 1000);
  EXPECT_GE(w.topology.network.num_links(), w.topology.network.num_fibers());
  EXPECT_EQ(static_cast<int>(w.topology.flows.size()),
            ContinentalConfig{}.flows);
  EXPECT_EQ(static_cast<int>(w.matrices.size()),
            ContinentalConfig{}.diurnal.num_matrices);
  EXPECT_GT(w.conduit_events, 0);
  EXPECT_GT(w.weather_events, 0);
}

TEST(ContinentalTest, SrlgMapsArePartitionsOfTheFiberSet) {
  const ContinentalWorkload& w = default_workload();
  const int fibers = w.topology.network.num_fibers();
  for (const net::SrlgMap* map : {&w.conduits, &w.weather}) {
    ASSERT_EQ(static_cast<int>(map->group_of.size()), fibers);
    std::set<net::FiberId> seen;
    for (int g = 0; g < map->num_groups; ++g) {
      for (net::FiberId f : map->members[static_cast<std::size_t>(g)]) {
        EXPECT_EQ(map->group_of[static_cast<std::size_t>(f)], g);
        EXPECT_TRUE(seen.insert(f).second) << "fiber " << f << " in 2 groups";
      }
    }
    EXPECT_EQ(static_cast<int>(seen.size()), fibers);
  }
}

TEST(ContinentalTest, EveryEventReferencesValidFibers) {
  const ContinentalWorkload& w = default_workload();
  const int fibers = w.topology.network.num_fibers();
  ASSERT_EQ(w.failure_model.num_fibers, fibers);
  ASSERT_EQ(static_cast<int>(w.failure_model.background.size()), fibers);
  for (const te::CutEvent& event : w.failure_model.events) {
    ASSERT_FALSE(event.fibers.empty());
    ASSERT_EQ(event.fibers.size(), event.conditional.size());
    EXPECT_TRUE(std::is_sorted(event.fibers.begin(), event.fibers.end()));
    for (int f : event.fibers) {
      EXPECT_GE(f, 0);
      EXPECT_LT(f, fibers);
    }
    EXPECT_GT(event.probability, 0.0);
    EXPECT_LT(event.probability, 1.0);
  }
  EXPECT_EQ(static_cast<int>(w.failure_model.events.size()),
            w.conduit_events + w.weather_events);
}

TEST(ContinentalTest, RegenerationIsBitIdenticalAcrossThreadCounts) {
  const ContinentalConfig config;
  runtime::ThreadPool::set_global_threads(1);
  const ContinentalWorkload serial = generate_continental_workload(config);
  runtime::ThreadPool::set_global_threads(4);
  const ContinentalWorkload parallel = generate_continental_workload(config);
  runtime::ThreadPool::set_global_threads(0);

  ASSERT_EQ(serial.topology.network.num_fibers(),
            parallel.topology.network.num_fibers());
  for (int f = 0; f < serial.topology.network.num_fibers(); ++f) {
    EXPECT_EQ(serial.topology.network.fiber(f).length_km,
              parallel.topology.network.fiber(f).length_km);
  }
  EXPECT_EQ(serial.cut_probs, parallel.cut_probs);
  EXPECT_EQ(serial.conduits.group_of, parallel.conduits.group_of);
  EXPECT_EQ(serial.weather.group_of, parallel.weather.group_of);
  ASSERT_EQ(serial.matrices.size(), parallel.matrices.size());
  for (std::size_t h = 0; h < serial.matrices.size(); ++h) {
    EXPECT_EQ(serial.matrices[h], parallel.matrices[h]) << "hour " << h;
  }
}

TEST(ContinentalTest, DifferentSeedsDifferentPlants) {
  ContinentalConfig other;
  other.seed = 77;
  const ContinentalWorkload w = generate_continental_workload(other);
  EXPECT_NE(w.cut_probs, default_workload().cut_probs);
}

TEST(ContinentalTest, DefaultScenarioPipelineCoversRequiredMass) {
  const ContinentalConfig config;
  const ContinentalWorkload& w = default_workload();
  const te::ScenarioSet full =
      te::generate_correlated_scenarios(w.failure_model, config.scenario_gen);
  te::ReductionReport report;
  const te::ScenarioSet reduced =
      te::reduce_scenarios(full, config.reduction, &report);
  EXPECT_GE(reduced.covered_probability, 0.999);
  EXPECT_NEAR(reduced.covered_probability + reduced.residual_probability, 1.0,
              1e-6);
  EXPECT_EQ(report.before, static_cast<int>(full.scenarios.size()));
  EXPECT_EQ(report.after, static_cast<int>(reduced.scenarios.size()));
  EXPECT_EQ(report.dropped, report.before - report.after);
  EXPECT_GT(report.dropped, 0);  // the reduction actually reduces
  EXPECT_NEAR(report.covered_before - report.covered_after,
              report.dropped_mass, 1e-12);
}

TEST(ContinentalTest, ScenarioSourceMatchesDirectPipeline) {
  const ContinentalConfig config;
  const ContinentalWorkload& w = default_workload();
  const te::ScenarioSource source = make_scenario_source(
      w.failure_model, config.scenario_gen, config.reduction);
  const te::ScenarioSet via_source = source(w.cut_probs);

  te::CorrelatedFailureModel model = w.failure_model;
  model.background = w.cut_probs;
  const te::ScenarioSet direct = te::reduce_scenarios(
      te::generate_correlated_scenarios(model, config.scenario_gen),
      config.reduction);
  ASSERT_EQ(via_source.scenarios.size(), direct.scenarios.size());
  EXPECT_EQ(via_source.covered_probability, direct.covered_probability);
  for (std::size_t i = 0; i < direct.scenarios.size(); ++i) {
    EXPECT_EQ(via_source.scenarios[i].probability,
              direct.scenarios[i].probability);
    EXPECT_EQ(via_source.scenarios[i].failed(), direct.scenarios[i].failed());
  }
}

// End-to-end residual accounting: the mass reduce_scenarios drops must
// reach the availability evaluator as an explicit residual_mass — closing
// covered + residual to 1 — instead of being silently renormalized away.
TEST(ContinentalTest, ReductionResidualMassPropagatesToAvailability) {
  const ContinentalConfig config;
  const ContinentalWorkload& w = default_workload();
  const te::ScenarioSource source = make_scenario_source(
      w.failure_model, config.scenario_gen, config.reduction);
  const te::ScenarioSet reduced = source(w.cut_probs);
  ASSERT_NEAR(reduced.covered_probability + reduced.residual_probability, 1.0,
              1e-6);
  ASSERT_GT(reduced.residual_probability, 0.0);  // the reduction dropped mass

  const net::TunnelSet tunnels =
      net::build_tunnels(w.topology.network, w.topology.flows);
  te::TeProblem problem;
  problem.network = &w.topology.network;
  problem.flows = &w.topology.flows;
  problem.tunnels = &tunnels;
  problem.demands = w.matrices.front();
  te::TePolicy policy;
  policy.allocation.assign(static_cast<std::size_t>(tunnels.num_tunnels()),
                           0.0);
  for (const net::Flow& flow : w.topology.flows) {
    const auto& flow_tunnels = tunnels.tunnels_for_flow(flow.id);
    if (flow_tunnels.empty()) continue;
    const double share = problem.demand(flow.id) /
                         static_cast<double>(flow_tunnels.size());
    for (net::TunnelId t : flow_tunnels) {
      policy.allocation[static_cast<std::size_t>(t)] = share;
    }
  }

  // Pessimistic: the dropped mass is charged explicitly, and the consumer
  // sees exactly the generator's accounting.
  const te::AvailabilityResult pessimistic =
      te::evaluate_availability(problem, policy, reduced);
  EXPECT_EQ(pessimistic.residual_mass, reduced.residual_probability);
  EXPECT_FALSE(pessimistic.renormalized);
  EXPECT_GE(pessimistic.expected_max_loss, pessimistic.residual_mass);

  // Optimistic: renormalization is reported, never silent, and the residual
  // is still surfaced.
  te::EvaluationOptions optimistic;
  optimistic.residual_counts_as_loss = false;
  const te::AvailabilityResult renorm =
      te::evaluate_availability(problem, policy, reduced, optimistic);
  EXPECT_EQ(renorm.residual_mass, reduced.residual_probability);
  EXPECT_TRUE(renorm.renormalized);
  EXPECT_LE(renorm.mean_flow_availability, 1.0 + 1e-9);
}

TEST(ContinentalTest, ScenarioSourceRejectsWrongProbeSize) {
  const ContinentalConfig config;
  const te::ScenarioSource source =
      make_scenario_source(default_workload().failure_model,
                           config.scenario_gen, config.reduction);
  EXPECT_THROW(source(std::vector<double>{0.1, 0.2}), std::invalid_argument);
}

TEST(ContinentalTest, DiurnalMatricesShiftWithTimezone) {
  const ContinentalWorkload& w = default_workload();
  // Offsets span more than one timezone band.
  const auto [lo, hi] = std::minmax_element(w.node_offset_hours.begin(),
                                            w.node_offset_hours.end());
  EXPECT_GT(*hi - *lo, 0.5);

  // Two flows whose endpoint-mean offsets differ must not peak at the same
  // hour pattern: compare trough hours (the diurnal minimum dominates the
  // 5% noise for a 0.35 swing).
  auto flow_offset = [&](std::size_t i) {
    const net::Flow& flow = w.topology.flows[i];
    return 0.5 * (w.node_offset_hours[static_cast<std::size_t>(flow.src)] +
                  w.node_offset_hours[static_cast<std::size_t>(flow.dst)]);
  };
  auto trough_hour = [&](std::size_t i) {
    std::size_t best = 0;
    for (std::size_t h = 1; h < w.matrices.size(); ++h) {
      if (w.matrices[h][i] < w.matrices[best][i]) best = h;
    }
    return static_cast<double>(best);
  };
  std::size_t west = 0, east = 0;
  for (std::size_t i = 1; i < w.topology.flows.size(); ++i) {
    if (flow_offset(i) < flow_offset(west)) west = i;
    if (flow_offset(i) > flow_offset(east)) east = i;
  }
  ASSERT_GT(flow_offset(east) - flow_offset(west), 1.0);
  EXPECT_NE(trough_hour(west), trough_hour(east));
}

TEST(ContinentalTest, PlantStatisticsAreConsistent) {
  const ContinentalWorkload& w = default_workload();
  const te::PlantStatistics stats = plant_statistics(w, 0.25);
  ASSERT_EQ(stats.num_fibers(), w.topology.network.num_fibers());
  for (int f = 0; f < stats.num_fibers(); ++f) {
    const auto i = static_cast<std::size_t>(f);
    EXPECT_EQ(stats.cut_prob[i], w.cut_probs[i]);
    // Predictable-fraction identity: P(cut via degradation) = alpha * P(cut).
    EXPECT_NEAR(stats.degradation_prob[i] * stats.cut_given_degradation[i],
                0.25 * stats.cut_prob[i], 1e-12);
  }
}

TEST(ContinentalTest, ValidateRejectsMalformedConfigs) {
  ContinentalConfig tiny;
  tiny.nodes = 4;
  EXPECT_THROW(generate_continental_workload(tiny), std::invalid_argument);

  ContinentalConfig sparse;
  sparse.min_fibers = 10;  // < nodes: cannot even span the sites
  EXPECT_THROW(generate_continental_workload(sparse), std::invalid_argument);

  ContinentalConfig hazard;
  hazard.mean_cut_prob_per_1000km = 0.5;
  EXPECT_THROW(generate_continental_workload(hazard), std::invalid_argument);

  ContinentalConfig scale;
  scale.diurnal.demand_scale = 0.0;
  EXPECT_THROW(generate_continental_workload(scale), std::invalid_argument);

  ContinentalConfig swing;
  swing.diurnal.diurnal_swing = 1.5;
  EXPECT_THROW(generate_continental_workload(swing), std::invalid_argument);
}

}  // namespace
}  // namespace prete::workload
