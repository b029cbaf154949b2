#include "te/smore.h"

#include "lp/simplex.h"
#include "te/lp_common.h"

namespace prete::te {

TePolicy SmoreScheme::compute(const TeProblem& problem, const ScenarioSet&) {
  // min alpha  s.t.  sum_t a_{f,t} = d_f  (full demand routed),
  //                  load(e) <= alpha * c_e.
  lp::Model model(lp::Sense::kMinimize);
  const std::vector<int> alloc = add_allocation_variables(model, problem);
  const int alpha = model.add_variable(0.0, lp::kInfinity, 1.0);

  for (const net::Flow& flow : *problem.flows) {
    std::vector<lp::Coefficient> coefs;
    for (net::TunnelId t : problem.tunnels->tunnels_for_flow(flow.id)) {
      coefs.push_back({alloc[static_cast<std::size_t>(t)], 1.0});
    }
    model.add_row(std::move(coefs), lp::RowType::kEqual,
                  problem.demand(flow.id));
  }
  // load(e) - alpha * c_e <= 0.
  std::vector<std::vector<lp::Coefficient>> rows(
      static_cast<std::size_t>(problem.network->num_links()));
  for (const net::Tunnel& t : problem.tunnels->tunnels()) {
    for (net::LinkId e : t.path) {
      rows[static_cast<std::size_t>(e)].push_back(
          {alloc[static_cast<std::size_t>(t.id)], 1.0});
    }
  }
  for (net::LinkId e = 0; e < problem.network->num_links(); ++e) {
    if (rows[static_cast<std::size_t>(e)].empty()) continue;
    auto coefs = std::move(rows[static_cast<std::size_t>(e)]);
    coefs.push_back({alpha, -problem.network->link(e).capacity_gbps});
    model.add_row(std::move(coefs), lp::RowType::kLessEqual, 0.0);
  }

  const lp::Solution solution = lp::SimplexSolver().solve(model);
  if (solution.status != lp::SolveStatus::kOptimal) {
    return EcmpScheme().compute(problem, {});  // defensive fallback
  }
  return extract_policy(problem, alloc, solution);
}

}  // namespace prete::te
