// Figure 1: characteristics of fiber cuts.
//  (a) transmission-loss traces of fibers that encounter cuts in a week;
//  (b) CDF of lost IP capacity per cut across three regions;
//  (c) average fraction of flows/tunnels affected by one fiber cut on the
//      B4, IBM and TWAN topologies.
#include "bench_common.h"

#include "net/tunnels.h"
#include "util/stats.h"

using namespace prete;

namespace {

void trace_summary(const bench::Context& ctx) {
  bench::print_header("Figure 1(a): weekly loss traces of fibers with cuts");
  util::Rng rng(7);
  const optical::PlantSimulator sim(ctx.topo.network, ctx.params);
  const auto week = sim.simulate(7LL * 24 * 3600, rng);
  util::Table table({"fiber", "cuts in week", "first cut (h)",
                     "healthy loss (dB)", "loss during cut (dB)"});
  int shown = 0;
  for (net::FiberId f = 0; f < ctx.topo.network.num_fibers() && shown < 4; ++f) {
    int cuts = 0;
    optical::TimeSec first = -1;
    for (const auto& c : week.cuts) {
      if (c.fiber == f) {
        ++cuts;
        if (first < 0) first = c.time_sec;
      }
    }
    if (cuts == 0) continue;
    ++shown;
    util::Rng trace_rng(100 + static_cast<std::uint64_t>(f));
    const auto trace = optical::interpolate_missing(
        sim.loss_trace(week, f, first - 60, first + 60, trace_rng));
    table.add_row({"fiber" + std::to_string(shown), std::to_string(cuts),
                   util::Table::format(static_cast<double>(first) / 3600.0, 3),
                   util::Table::format(trace.front(), 3),
                   util::Table::format(trace.back(), 3)});
  }
  table.print(std::cout);
  std::cout << "(cuts are rare: most fibers see none in a typical week)\n";
}

void lost_capacity_cdf(const bench::Context& ctx) {
  bench::print_header("Figure 1(b): CDF of lost IP capacity per fiber cut (Tbps)");
  // Lost capacity of a cut = IP capacity riding the fiber, split by region.
  util::Table table({"region", "p25 (Tbps)", "median (Tbps)", "p90 (Tbps)",
                     "max (Tbps)", ">=4 Tbps fraction"});
  for (int region = 0; region < 3; ++region) {
    std::vector<double> lost;
    for (net::FiberId f = 0; f < ctx.topo.network.num_fibers(); ++f) {
      if (ctx.topo.network.fiber(f).region != region) continue;
      lost.push_back(ctx.topo.network.fiber_ip_capacity_gbps(f) / 1000.0);
    }
    if (lost.empty()) continue;
    int heavy = 0;
    for (double v : lost) {
      if (v >= 4.0) ++heavy;
    }
    table.add_row({"region " + std::to_string(region + 1),
                   util::Table::format(util::quantile(lost, 0.25), 3),
                   util::Table::format(util::quantile(lost, 0.5), 3),
                   util::Table::format(util::quantile(lost, 0.9), 3),
                   util::Table::format(util::quantile(lost, 1.0), 3),
                   util::Table::format(static_cast<double>(heavy) /
                                           static_cast<double>(lost.size()),
                                       2)});
  }
  table.print(std::cout);
}

void affected_fraction() {
  bench::print_header(
      "Figure 1(c): average % of flows/tunnels affected by one fiber cut");
  util::Table table({"topology", "flows affected (%)", "tunnels affected (%)"});
  for (const char* which : {"B4", "IBM", "TWAN"}) {
    const net::Topology topo = std::string(which) == "B4"    ? net::make_b4()
                               : std::string(which) == "IBM" ? net::make_ibm()
                                                             : net::make_twan();
    const net::TunnelSet tunnels = net::build_tunnels(topo.network, topo.flows);
    double flow_frac = 0.0;
    double tunnel_frac = 0.0;
    for (net::FiberId f = 0; f < topo.network.num_fibers(); ++f) {
      const std::vector<net::FiberId> failed{f};
      int dead_tunnels = 0;
      std::vector<bool> flow_hit(topo.flows.size(), false);
      for (const net::Tunnel& t : tunnels.tunnels()) {
        if (!tunnels.alive(topo.network, t.id, failed)) {
          ++dead_tunnels;
          flow_hit[static_cast<std::size_t>(t.flow)] = true;
        }
      }
      int flows_hit = 0;
      for (bool hit : flow_hit) flows_hit += hit ? 1 : 0;
      flow_frac += static_cast<double>(flows_hit) /
                   static_cast<double>(topo.flows.size());
      tunnel_frac += static_cast<double>(dead_tunnels) /
                     static_cast<double>(tunnels.num_tunnels());
    }
    flow_frac /= static_cast<double>(topo.network.num_fibers());
    tunnel_frac /= static_cast<double>(topo.network.num_fibers());
    table.add_row({which, util::Table::format(100.0 * flow_frac, 3),
                   util::Table::format(100.0 * tunnel_frac, 3)});
  }
  table.print(std::cout);
  std::cout << "(paper: ~33% of flows and ~13% of tunnels on B4)\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  bench::Phase total_phase("total");
  bench::Context ctx(net::make_twan());
  trace_summary(ctx);
  lost_capacity_cdf(ctx);
  affected_fraction();
  return 0;
}
