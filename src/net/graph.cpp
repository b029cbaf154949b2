#include "net/graph.h"

#include <stdexcept>

namespace prete::net {

NodeId Network::add_node(std::string label) {
  if (label.empty()) {
    label = std::to_string(node_labels_.size() + 1);
    label.insert(label.begin(), 's');
  }
  node_labels_.push_back(std::move(label));
  out_links_.emplace_back();
  return num_nodes() - 1;
}

FiberId Network::add_fiber(NodeId a, NodeId b, double length_km, int region,
                           int vendor, double age_years) {
  if (a < 0 || a >= num_nodes() || b < 0 || b >= num_nodes() || a == b) {
    throw std::invalid_argument("bad fiber endpoints");
  }
  Fiber f;
  f.id = num_fibers();
  f.a = a;
  f.b = b;
  f.length_km = length_km;
  f.region = region;
  f.vendor = vendor;
  f.age_years = age_years;
  f.name = node_labels_[static_cast<std::size_t>(a)] +
           node_labels_[static_cast<std::size_t>(b)];
  fibers_.push_back(std::move(f));
  fiber_links_.emplace_back();
  return num_fibers() - 1;
}

LinkId Network::add_ip_link_pair(FiberId fiber_id, double capacity_gbps) {
  const Fiber& f = fiber(fiber_id);
  if (capacity_gbps <= 0) throw std::invalid_argument("capacity must be positive");
  const LinkId forward = num_links();
  links_.push_back({forward, f.a, f.b, fiber_id, capacity_gbps});
  links_.push_back({forward + 1, f.b, f.a, fiber_id, capacity_gbps});
  out_links_[static_cast<std::size_t>(f.a)].push_back(forward);
  out_links_[static_cast<std::size_t>(f.b)].push_back(forward + 1);
  fiber_links_[static_cast<std::size_t>(fiber_id)].push_back(forward);
  fiber_links_[static_cast<std::size_t>(fiber_id)].push_back(forward + 1);
  return forward;
}

double Network::fiber_ip_capacity_gbps(FiberId f) const {
  double total = 0.0;
  for (LinkId e : links_on_fiber(f)) {
    total += link(e).capacity_gbps;
  }
  return total;
}

}  // namespace prete::net
