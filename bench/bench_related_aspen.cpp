/// Substantiates the **Table I / §VI comparison with Aspen tree**: Aspen
/// <f,0> adds fault tolerance only between aggregation and core (f+1
/// parallel links), at the cost of 1/(f+1) of the nodes. A core<->agg
/// failure there recovers via ECMP over the duplicate links, but a
/// ToR<->agg downward failure still waits for the control plane — the
/// paper: "Aspen Tree only has immediate backup links for downward links
/// in the fault-tolerant layer, which may still incur a substantial time
/// for recovery from downward failures at other layers." F²Tree protects
/// every layer and gives up only one ToR per pod.

#include <iostream>

#include "bench_util.hpp"
#include "topo/aspen.hpp"

using namespace f2t;
using namespace f2t::bench;

namespace {

core::Testbed::TopoBuilder aspen_builder(int ports, int f) {
  return [ports, f](net::Network& n) {
    return topo::build_aspen_tree(
        n, topo::AspenOptions{.ports = ports, .fault_tolerance = f,
                              .hosts_per_tor = -1});
  };
}

/// Fails one link of the given kind on a traced flow's path and returns
/// the connectivity loss.
sim::Time measure(const core::Testbed::TopoBuilder& builder, bool core_layer) {
  core::Testbed bed(builder);
  bed.converge();
  const auto condition =
      core_layer ? failure::Condition::kC2 : failure::Condition::kC1;
  const auto plan = failure::build_condition(bed.topo(), condition);
  if (!plan) return -1;
  transport::UdpSink sink(bed.stack_of(*plan->dst), plan->dport);
  transport::UdpCbrSender::Options so;
  so.sport = plan->sport;
  so.dport = plan->dport;
  so.stop = sim::seconds(2);
  transport::UdpCbrSender sender(bed.stack_of(*plan->src), plan->dst->addr(),
                                 so);
  sender.start();
  for (net::Link* link : plan->fail_links) {
    bed.injector().fail_at(*link, sim::millis(380));
  }
  bed.sim().run(sim::seconds(3));
  std::vector<sim::Time> arrivals;
  for (const auto& a : sink.arrivals()) arrivals.push_back(a.at);
  const auto loss = stats::find_connectivity_loss(arrivals, sim::millis(380));
  return loss ? loss->duration() : 0;
}

std::string fmt(sim::Time loss) {
  if (loss < 0) return "(n/a)";
  if (loss == 0) return "none";
  return stats::Table::num(sim::to_millis(loss), 1) + " ms";
}

}  // namespace

int main() {
  std::cout << "F2Tree reproduction - Table I / SecVI: comparison with "
               "Aspen tree <f,0> (8-port, single failure at 380 ms)\n";

  stats::Table table({"Topology", "Hosts", "core<->agg failure loss",
                      "ToR<->agg failure loss"});

  {
    core::Testbed bed(core::topology_builder("fat", 8));
    table.row({"fat tree", std::to_string(bed.topo().hosts.size()),
               fmt(measure(core::topology_builder("fat", 8), true)),
               fmt(measure(core::topology_builder("fat", 8), false))});
  }
  {
    core::Testbed bed(aspen_builder(8, 1));
    table.row({"Aspen <1,0>", std::to_string(bed.topo().hosts.size()),
               fmt(measure(aspen_builder(8, 1), true)),
               fmt(measure(aspen_builder(8, 1), false))});
  }
  {
    core::Testbed bed(aspen_builder(8, 3));
    table.row({"Aspen <3,0>", std::to_string(bed.topo().hosts.size()),
               fmt(measure(aspen_builder(8, 3), true)),
               fmt(measure(aspen_builder(8, 3), false))});
  }
  {
    core::Testbed bed(core::topology_builder("f2", 8));
    table.row({"F2Tree", std::to_string(bed.topo().hosts.size()),
               fmt(measure(core::topology_builder("f2", 8), true)),
               fmt(measure(core::topology_builder("f2", 8), false))});
  }
  table.print(std::cout);
  std::cout << "(expected: Aspen recovers core<->agg failures immediately "
               "via its duplicate links but pays half (resp. 3/4) of the "
               "hosts and still recovers ToR<->agg failures at control-"
               "plane speed; F2Tree is detection-bound at both layers for "
               "a far smaller node cost)\n";
  return 0;
}
