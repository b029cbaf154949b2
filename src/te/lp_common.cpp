#include "te/lp_common.h"

namespace prete::te {

std::vector<int> add_allocation_variables(lp::Model& model,
                                          const TeProblem& problem) {
  const net::TunnelSet& tunnels = *problem.tunnels;
  std::vector<int> vars;
  vars.reserve(static_cast<std::size_t>(tunnels.num_tunnels()));
  for (const net::Tunnel& t : tunnels.tunnels()) {
    vars.push_back(model.add_variable(0.0, lp::kInfinity, 0.0,
                                      "a_f" + std::to_string(t.flow) + "_t" +
                                          std::to_string(t.id)));
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
                  lp::RowType::kLessEqual, net.link(e).capacity_gbps,
                  "cap_e" + std::to_string(e));
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

std::vector<lp::Coefficient> surviving_coefficients(
    const TeProblem& problem, const std::vector<int>& alloc, net::FlowId f,
    const std::vector<bool>& failed, double scale) {
  std::vector<lp::Coefficient> coefs;
  for_each_surviving(problem, f, failed, [&](net::TunnelId t) {
    coefs.push_back({alloc[static_cast<std::size_t>(t)], scale});
  });
  return coefs;
}

void add_cvar_row(lp::Model& model, const TeProblem& problem,
                  const std::vector<int>& alloc, int var_t, net::FlowId f,
                  const std::vector<bool>& failed, double cost) {
  const int s = model.add_variable(0.0, 1.0, cost);
  std::vector<lp::Coefficient> coefs = surviving_coefficients(
      problem, alloc, f, failed, 1.0 / demand_floor(problem, f));
  coefs.push_back({s, 1.0});
  coefs.push_back({var_t, 1.0});
  model.add_row(std::move(coefs), lp::RowType::kGreaterEqual, 1.0);
}

}  // namespace prete::te
