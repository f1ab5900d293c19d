#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/f2tree.hpp"
#include "core/runner.hpp"
#include "net/trace.hpp"

namespace f2t::net {
namespace {

TEST(PacketTracer, RecordsForwardingHops) {
  core::Testbed bed([](net::Network& n) { return topo::build_f2tree(n, 4); });
  bed.converge();
  PacketTracer tracer(bed.network());

  auto& topo = bed.topo();
  auto& src = bed.stack_of(*topo.hosts.front());
  transport::UdpSink sink(bed.stack_of(*topo.hosts.back()), 9000);
  transport::UdpCbrSender::Options so;
  so.stop = sim::millis(1);  // a handful of packets
  transport::UdpCbrSender sender(src, topo.hosts.back()->addr(), so);
  sender.start();
  bed.sim().run(sim::millis(10));

  ASSERT_GT(sink.packets_received(), 0u);
  EXPECT_GT(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.packet_count(), sender.packets_sent());
  // Every traced packet crossed tor -> agg -> core(s) -> agg -> tor; in
  // the 4-port rewired prototype inter-pod paths may need one core-ring
  // hop (each core gave up two pod links).
  const auto names = tracer.path_names(1);  // first uid of the run
  ASSERT_GE(names.size(), 5u);
  ASSERT_LE(names.size(), 6u);
  EXPECT_EQ(names.front().substr(0, 3), "tor");
  EXPECT_EQ(names[2].substr(0, 4), "core");
  EXPECT_EQ(names.back().substr(0, 3), "tor");
}

TEST(PacketTracer, ObservesFastRerouteDetour) {
  core::Testbed bed([](net::Network& n) { return topo::build_f2tree(n, 8); });
  bed.converge();
  const auto plan =
      failure::build_condition(bed.topo(), failure::Condition::kC1);
  ASSERT_TRUE(plan.has_value());

  PacketTracer tracer(bed.network());
  auto& src = bed.stack_of(*plan->src);
  transport::UdpSink sink(bed.stack_of(*plan->dst), plan->dport);

  for (net::Link* link : plan->fail_links) {
    bed.injector().fail_at(*link, sim::millis(10));
  }
  // One probe during the fast-reroute window (after 70 ms detection,
  // before ~220 ms convergence).
  net::Packet probe;
  probe.dst = plan->dst->addr();
  probe.proto = Protocol::kUdp;
  probe.sport = plan->sport;
  probe.dport = plan->dport;
  probe.size_bytes = 100;
  bed.sim().at(sim::millis(100), [&] { src.send(probe); });
  bed.sim().run(sim::millis(150));

  ASSERT_EQ(sink.packets_received(), 1u);
  // The data plane actually relayed through the across neighbour: the
  // path contains Sx followed by another agg of the same pod.
  const auto names = tracer.path_names(1);
  ASSERT_EQ(names.size(), 6u);  // tor agg core agg agg tor
  EXPECT_EQ(names[3], plan->sx->name());
  EXPECT_EQ(names[4].substr(0, 3), "agg");
  EXPECT_NE(names[4], plan->sx->name());
}

TEST(PacketTracer, UidsAreUniqueAcrossSendingHosts) {
  // Two hosts each send one packet to the same destination: the tracer,
  // keyed by uid, must see two packets, not one with both hop lists.
  core::Testbed bed([](net::Network& n) { return topo::build_f2tree(n, 4); });
  bed.converge();
  PacketTracer tracer(bed.network());
  const auto& hosts = bed.topo().hosts;
  transport::UdpSink sink(bed.stack_of(*hosts.back()), 9000);
  for (net::Host* src : {hosts[0], hosts[1]}) {
    Packet p;
    p.dst = hosts.back()->addr();
    p.proto = Protocol::kUdp;
    p.sport = 20000;
    p.dport = 9000;
    p.size_bytes = 100;
    bed.sim().after(0, [&bed, src, p] { bed.stack_of(*src).send(p); });
  }
  bed.sim().run(bed.sim().now() + sim::millis(10));

  ASSERT_EQ(sink.packets_received(), 2u);
  EXPECT_EQ(tracer.packet_count(), 2u);
  EXPECT_EQ(tracer.hops_of(1).size() + tracer.hops_of(2).size(),
            tracer.event_count());
  EXPECT_LE(tracer.hops_of(1).size(), 6u);
  EXPECT_LE(tracer.hops_of(2).size(), 6u);
}

TEST(PacketTracer, ClearResets) {
  sim::Simulator sim(1);
  Network net(sim);
  auto& sw = net.add_switch("sw", Ipv4Addr(10, 12, 0, 1));
  auto& h1 = net.add_host("h1", Ipv4Addr(10, 11, 0, 10), &sw);
  net.add_host("h2", Ipv4Addr(10, 11, 0, 11), &sw);
  (void)h1;
  PacketTracer tracer(net);
  Packet p;
  p.uid = 42;
  p.src = Ipv4Addr(10, 11, 0, 10);
  p.dst = Ipv4Addr(10, 11, 0, 11);
  p.ttl = 8;
  sim.at(0, [&] { sw.forward(p); });
  sim.run();
  EXPECT_EQ(tracer.hops_of(42).size(), 1u);
  tracer.clear();
  EXPECT_EQ(tracer.hops_of(42).size(), 0u);
  EXPECT_EQ(tracer.event_count(), 0u);
}

/// A host pair and the UDP 5-tuple of a packet between them.
struct Flow {
  Host* src = nullptr;
  Host* dst = nullptr;
  Packet probe;
};

Flow flow_of(Host& src, Host& dst, std::uint16_t sport) {
  Flow flow{&src, &dst, {}};
  flow.probe.src = src.addr();
  flow.probe.dst = dst.addr();
  flow.probe.proto = Protocol::kUdp;
  flow.probe.sport = sport;
  flow.probe.dport = 9000;
  return flow;
}

/// 16 host pairs × 2 source ports. Every other pair ends at the last host,
/// whose ToR downlink the failure regimes cut; the first flow is the one
/// failure::build_condition starts its search from.
std::vector<Flow> probe_flows(const topo::BuiltTopology& topo) {
  const auto& hosts = topo.hosts;
  const std::size_t n = hosts.size();
  std::vector<Flow> flows;
  for (std::size_t i = 0; flows.size() < 32; ++i) {
    Host* src = hosts[(7 * i) % n];
    Host* dst = i % 2 == 0 ? hosts.back() : hosts[(n / 2 + 3 * i) % n];
    if (src == dst) continue;
    for (const std::size_t base : {20000u, 30000u}) {
      flows.push_back(
          flow_of(*src, *dst, static_cast<std::uint16_t>(base + i)));
    }
  }
  return flows;
}

/// The switch sequence of a predicted node path (hosts stripped).
std::vector<NodeId> switches_of(const std::vector<const Node*>& path) {
  std::vector<NodeId> ids;
  for (std::size_t i = 1; i + 1 < path.size(); ++i) {
    ids.push_back(path[i]->id());
  }
  return ids;
}

/// Sends one real packet of `flow` through the packet engine and checks
/// it against the prediction made just before: delivered exactly when a
/// path is predicted, and forwarded by exactly the predicted switches.
void expect_real_packet_follows_prediction(core::Testbed& bed,
                                           PacketTracer& tracer,
                                           const Flow& flow) {
  const auto predicted =
      failure::trace_route_detailed(*flow.src, *flow.dst, flow.probe).nodes;
  tracer.clear();
  const std::uint64_t delivered_before = flow.dst->delivered();
  Packet packet = flow.probe;
  packet.uid = 1;
  packet.size_bytes = 100;
  const sim::Time now = bed.sim().now();
  bed.sim().at(now, [&] { flow.src->send_up(packet); });
  // Outlives any packet: 64 hops of about 6 µs each.
  bed.sim().run(now + sim::millis(1));

  SCOPED_TRACE(flow.src->name() + " -> " + flow.dst->name() +
               " sport=" + std::to_string(flow.probe.sport));
  EXPECT_EQ(flow.dst->delivered() > delivered_before, !predicted.empty());
  if (predicted.empty()) return;
  std::vector<NodeId> forwarded;
  for (const PacketTracer::Hop& hop : tracer.hops_of(1)) {
    forwarded.push_back(hop.node);
  }
  EXPECT_EQ(forwarded, switches_of(predicted));
}

TEST(PredictedPath, IsThePathARealPacketTakes) {
  for (const char* name : {"fat", "f2", "vl2-f2", "leafspine-f2"}) {
    SCOPED_TRACE(name);
    core::Testbed bed(core::topology_builder(name, 8));
    bed.converge();
    PacketTracer tracer(bed.network());
    const std::vector<Flow> flows = probe_flows(bed.topo());
    for (const Flow& flow : flows) {
      expect_real_packet_follows_prediction(bed, tracer, flow);
    }

    // C1: the first flow's downlink into its destination ToR fails. At
    // fail + 100 ms the port is detected down and SPF has not run, so
    // forwarding falls through to the F² backups (a fat tree has none).
    const Flow& reference = flows.front();
    const failure::TracedPath before = failure::trace_route_detailed(
        *reference.src, *reference.dst, reference.probe);
    ASSERT_GE(before.links.size(), 3u);
    const sim::Time fail_at = bed.sim().now() + sim::millis(10);
    bed.injector().fail_at(*before.links[before.links.size() - 2], fail_at);
    bed.sim().run(fail_at + sim::millis(100));
    const auto rerouted = failure::trace_route(*reference.src, *reference.dst,
                                               reference.probe);
    if (std::string(name) == "fat") {
      EXPECT_TRUE(rerouted.empty());
    } else {
      EXPECT_FALSE(rerouted.empty());
      EXPECT_NE(rerouted, before.nodes);
    }
    for (const Flow& flow : flows) {
      expect_real_packet_follows_prediction(bed, tracer, flow);
    }
  }
}

/// F² C7 during fast reroute: Sx's downlink, its right neighbour's
/// downlink and that neighbour's right across link are down, so the
/// backups hold a forwarding loop until SPF runs. The prediction is
/// empty and the real packet is lost.
TEST(PredictedPath, EmptyExactlyWhenTheRealPacketIsLost) {
  core::Testbed bed(core::topology_builder("f2", 8));
  bed.converge();
  const auto plan =
      failure::build_condition(bed.topo(), failure::Condition::kC7);
  ASSERT_TRUE(plan.has_value());
  PacketTracer tracer(bed.network());
  const sim::Time fail_at = sim::millis(10);
  for (Link* link : plan->fail_links) bed.injector().fail_at(*link, fail_at);
  bed.sim().run(fail_at + sim::millis(100));

  const Flow flow =
      flow_of(*bed.network().find_host(plan->src->name()),
              *bed.network().find_host(plan->dst->name()), plan->sport);
  EXPECT_TRUE(
      failure::trace_route_detailed(*flow.src, *flow.dst, flow.probe).empty());
  expect_real_packet_follows_prediction(bed, tracer, flow);
  for (const Flow& other : probe_flows(bed.topo())) {
    expect_real_packet_follows_prediction(bed, tracer, other);
  }
}

}  // namespace
}  // namespace f2t::net
