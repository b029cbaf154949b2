#include "te/lp_common.h"

#include <stdexcept>

namespace prete::te {

std::vector<int> add_allocation_variables(lp::Model& model,
                                          const TeProblem& problem) {
  const int n = problem.tunnels->num_tunnels();
  std::vector<int> vars;
  vars.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) {
    vars.push_back(model.add_variable(0.0, lp::kInfinity, 0.0));
  }
  return vars;
}

void add_capacity_rows(lp::Model& model, const TeProblem& problem,
                       const std::vector<int>& alloc_vars) {
  const net::Network& net = *problem.network;
  const net::TunnelSet& tunnels = *problem.tunnels;
  // Collect tunnels per link once.
  std::vector<std::vector<lp::Coefficient>> rows(
      static_cast<std::size_t>(net.num_links()));
  for (const net::Tunnel& t : tunnels.tunnels()) {
    for (net::LinkId e : t.path) {
      rows[static_cast<std::size_t>(e)].push_back(
          {alloc_vars[static_cast<std::size_t>(t.id)], 1.0});
    }
  }
  for (net::LinkId e = 0; e < net.num_links(); ++e) {
    if (rows[static_cast<std::size_t>(e)].empty()) continue;
    model.add_row(std::move(rows[static_cast<std::size_t>(e)]),
                  lp::RowType::kLessEqual, net.link(e).capacity_gbps);
  }
}

TePolicy extract_policy(const TeProblem& problem,
                        const std::vector<int>& alloc_vars,
                        const lp::Solution& solution) {
  TePolicy policy;
  policy.allocation.assign(
      static_cast<std::size_t>(problem.tunnels->num_tunnels()), 0.0);
  for (std::size_t t = 0; t < alloc_vars.size(); ++t) {
    policy.allocation[t] =
        solution.x[static_cast<std::size_t>(alloc_vars[t])];
  }
  return policy;
}

SurvivalIndex::SurvivalIndex(const TeProblem& problem,
                             const std::vector<FailureScenario>& patterns) {
  const net::Network& net = *problem.network;
  const net::TunnelSet& tunnels = *problem.tunnels;
  num_flows_ = static_cast<std::size_t>(tunnels.num_flows());
  // Every flow's full list: the entry of each flow a pattern leaves whole.
  std::vector<Entry> whole(num_flows_);
  for (std::size_t f = 0; f < num_flows_; ++f) {
    const auto& all = tunnels.tunnels_for_flow(static_cast<net::FlowId>(f));
    whole[f].begin = static_cast<std::uint32_t>(tunnels_.size());
    tunnels_.insert(tunnels_.end(), all.begin(), all.end());
    whole[f].end = static_cast<std::uint32_t>(tunnels_.size());
  }
  // The tunnels riding each fiber: a pattern kills exactly the riders of
  // its failed fibers.
  std::vector<std::vector<net::TunnelId>> riders(
      static_cast<std::size_t>(net.num_fibers()));
  for (const net::Tunnel& t : tunnels.tunnels()) {
    for (net::LinkId e : t.path) {
      riders[static_cast<std::size_t>(net.link(e).fiber)].push_back(t.id);
    }
  }
  // killed_in[t] == q: tunnel t rides a fiber failed in pattern q.
  // cut_in[f] == q: pattern q kills some tunnel of flow f.
  std::vector<std::size_t> killed_in(
      static_cast<std::size_t>(tunnels.num_tunnels()), patterns.size());
  std::vector<std::size_t> cut_in(num_flows_, patterns.size());
  std::vector<std::size_t> cut;
  entries_.resize(patterns.size() * num_flows_);
  for (std::size_t q = 0; q < patterns.size(); ++q) {
    cut.clear();
    for (net::FiberId i : patterns[q].failed()) {
      // The ids index `riders` directly, and a pluggable ScenarioSource can
      // hand in any list.
      if (i >= net.num_fibers()) {
        throw std::invalid_argument("SurvivalIndex: failed fiber out of range");
      }
      for (net::TunnelId t : riders[static_cast<std::size_t>(i)]) {
        killed_in[static_cast<std::size_t>(t)] = q;
        const auto f = static_cast<std::size_t>(tunnels.tunnel(t).flow);
        if (cut_in[f] != q) {
          cut_in[f] = q;
          cut.push_back(f);
        }
      }
    }
    Entry* row = entries_.data() + q * num_flows_;
    std::copy(whole.begin(), whole.end(), row);
    for (std::size_t f : cut) {
      row[f].begin = static_cast<std::uint32_t>(tunnels_.size());
      for (std::uint32_t i = whole[f].begin; i < whole[f].end; ++i) {
        const net::TunnelId t = tunnels_[i];
        if (killed_in[static_cast<std::size_t>(t)] != q) tunnels_.push_back(t);
      }
      row[f].end = static_cast<std::uint32_t>(tunnels_.size());
    }
  }
}

std::vector<lp::Coefficient> surviving_coefficients(
    const std::vector<int>& alloc, const SurvivalIndex& index, net::FlowId f,
    std::size_t q, double scale) {
  std::vector<lp::Coefficient> coefs;
  for (net::TunnelId t : index.surviving(f, q)) {
    coefs.push_back({alloc[static_cast<std::size_t>(t)], scale});
  }
  return coefs;
}

void add_cvar_row(lp::Model& model, const TeProblem& problem,
                  const std::vector<int>& alloc, int var_t,
                  const SurvivalIndex& index, net::FlowId f, std::size_t q,
                  double cost) {
  const int s = model.add_variable(0.0, 1.0, cost);
  std::vector<lp::Coefficient> coefs = surviving_coefficients(
      alloc, index, f, q, 1.0 / demand_floor(problem, f));
  coefs.push_back({s, 1.0});
  coefs.push_back({var_t, 1.0});
  model.add_row(std::move(coefs), lp::RowType::kGreaterEqual, 1.0);
}

}  // namespace prete::te
