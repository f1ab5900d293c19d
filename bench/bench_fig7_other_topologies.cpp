/// Reproduces **§V / Fig 7**: the F² scheme applied to other multi-rooted
/// topologies. For Leaf-Spine and VL2 we fail a downward link on a probe
/// flow's path and compare recovery with and without the rewiring +
/// backup routes. (The paper presents this qualitatively; the expectation
/// is the same shape as fat tree: control-plane-bound recovery without F²,
/// detection-bound with it. VL2's intermediate->agg downward links already
/// have ECMP backup, so the rewiring targets the agg->ToR layer.)

#include <iostream>

#include "bench_util.hpp"

using namespace f2t;
using namespace f2t::bench;

namespace {

/// Fails the last downward link (last switch -> dst ToR/leaf) on the
/// probe's path — the layer that lacks immediate backup in both original
/// topologies — and measures UDP connectivity loss.
struct Fig7Result {
  bool ok = false;
  sim::Time loss = 0;
  std::uint64_t packets_lost = 0;
};

Fig7Result run_downward_failure(const core::Testbed::TopoBuilder& builder) {
  Fig7Result out;
  core::Testbed bed(builder);
  bed.converge();
  auto& topo = bed.topo();
  const net::Host* src = topo.hosts.front();
  const net::Host* dst = topo.hosts.back();

  // Find a 5-tuple whose path's last-hop switch is an agg/spine with a
  // live downward link to the destination ToR.
  for (std::uint16_t sport = 30000; sport < 30256; ++sport) {
    net::Packet probe;
    probe.src = src->addr();
    probe.dst = dst->addr();
    probe.proto = net::Protocol::kUdp;
    probe.sport = sport;
    probe.dport = 9000;
    const auto path = failure::trace_route(*src, *dst, probe);
    if (path.size() < 5) continue;
    const auto* down_switch =
        dynamic_cast<const net::L3Switch*>(path[path.size() - 3]);
    const auto* dst_tor =
        dynamic_cast<const net::L3Switch*>(path[path.size() - 2]);
    if (down_switch == nullptr || dst_tor == nullptr) continue;
    net::Link* link = bed.network().find_link(*down_switch, *dst_tor);
    if (link == nullptr) continue;

    transport::UdpSink sink(bed.stack_of(*dst), 9000);
    transport::UdpCbrSender::Options so;
    so.sport = sport;
    so.dport = 9000;
    so.stop = sim::millis(2500);
    transport::UdpCbrSender sender(bed.stack_of(*src), dst->addr(), so);
    sender.start();
    bed.injector().fail_at(*link, sim::millis(380));
    bed.sim().run(sim::seconds(3));

    std::vector<sim::Time> arrivals;
    for (const auto& a : sink.arrivals()) arrivals.push_back(a.at);
    const auto loss =
        stats::find_connectivity_loss(arrivals, sim::millis(380));
    out.ok = true;
    out.loss = loss ? loss->duration() : 0;
    out.packets_lost =
        stats::packets_lost(sender.packets_sent(), sink.packets_received());
    return out;
  }
  return out;
}

}  // namespace

int main() {
  std::cout << "F2Tree reproduction - Fig 7 / SecV: the F2 scheme on other "
               "multi-rooted topologies (downward link failure at 380 ms)\n";

  struct Case {
    const char* name;
    core::Testbed::TopoBuilder builder;
  };
  const std::vector<Case> cases = {
      {"Leaf-Spine (original)",
       [](net::Network& n) {
         return topo::build_leaf_spine(n, topo::LeafSpineOptions{.ports = 8});
       }},
      {"Leaf-Spine (F2)",
       [](net::Network& n) {
         return topo::build_leaf_spine(
             n, topo::LeafSpineOptions{.ports = 8, .f2_rewire = true});
       }},
      {"VL2 (original)",
       [](net::Network& n) {
         return topo::build_vl2(n, topo::Vl2Options{.ports = 8});
       }},
      {"VL2 (F2)",
       [](net::Network& n) {
         return topo::build_vl2(
             n, topo::Vl2Options{.ports = 8, .f2_rewire = true});
       }},
      {"Fat tree (original, reference)", core::topology_builder("fat", 8)},
      {"Fat tree (F2, reference)", core::topology_builder("f2", 8)},
  };

  stats::Table table(
      {"Topology", "Connectivity loss (ms)", "UDP packets lost"});
  for (const auto& c : cases) {
    const auto r = run_downward_failure(c.builder);
    if (!r.ok) {
      table.row({c.name, "(no scenario)", "-"});
      continue;
    }
    table.row({c.name, stats::Table::num(sim::to_millis(r.loss), 1),
               std::to_string(r.packets_lost)});
  }
  table.print(std::cout);
  std::cout << "(expected shape: originals are control-plane bound "
               "(~270 ms); F2 variants are detection bound (~60 ms))\n";
  return 0;
}
