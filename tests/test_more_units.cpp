#include <gtest/gtest.h>

#include "core/f2tree.hpp"

namespace f2t {
namespace {

// --- link pipeline ordering --------------------------------------------------

TEST(LinkPipeline, BackToBackPacketsArriveInOrderAndSpaced) {
  sim::Simulator sim(1);
  net::Network net(sim);
  auto& sw = net.add_switch("sw", net::Ipv4Addr(10, 12, 0, 1));
  auto& h = net.add_host("h", net::Ipv4Addr(10, 11, 0, 10), &sw);
  std::vector<std::pair<std::uint32_t, sim::Time>> arrivals;
  h.set_packet_handler([&](net::Packet p) {
    arrivals.emplace_back(p.udp_seq, sim.now());
  });
  // Three 1250-byte packets enqueued at once: 10 us serialization each.
  sim.at(0, [&] {
    for (std::uint32_t i = 0; i < 3; ++i) {
      net::Packet p;
      p.dst = h.addr();
      p.size_bytes = 1250;
      p.udp_seq = i;
      sw.send(0, p);
    }
  });
  sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0].first, 0u);
  EXPECT_EQ(arrivals[1].first, 1u);
  EXPECT_EQ(arrivals[2].first, 2u);
  // Spacing equals the serialization time (10 us at 1 Gbps).
  EXPECT_EQ(arrivals[1].second - arrivals[0].second, sim::micros(10));
  EXPECT_EQ(arrivals[2].second - arrivals[1].second, sim::micros(10));
}

TEST(LinkPipeline, FlapMidSerializationDropsOnlyAffectedPackets) {
  sim::Simulator sim(1);
  net::Network net(sim);
  auto& sw = net.add_switch("sw", net::Ipv4Addr(10, 12, 0, 1));
  auto& h = net.add_host("h", net::Ipv4Addr(10, 11, 0, 10), &sw);
  net::Link* link = net.find_link(sw, h);
  int received = 0;
  h.set_packet_handler([&](net::Packet) { ++received; });
  net::Packet p;
  p.dst = h.addr();
  p.size_bytes = 1250;  // 10 us serialization + 5 us propagation
  sim.at(0, [&] { sw.send(0, p); });
  sim.at(sim::micros(2), [&] { link->set_up(false); });  // mid-serialization
  sim.at(sim::micros(4), [&] { link->set_up(true); });
  sim.at(sim::micros(20), [&] { sw.send(0, p); });  // after recovery
  sim.run();
  EXPECT_EQ(received, 1);
}

// --- traced paths are internally consistent ----------------------------------

TEST(TraceDetail, NodesAndLinksAgree) {
  core::Testbed bed([](net::Network& n) { return topo::build_f2tree(n, 8); });
  bed.converge();
  const auto& hosts = bed.topo().hosts;
  net::Packet probe;
  probe.src = hosts.front()->addr();
  probe.dst = hosts.back()->addr();
  probe.sport = 777;
  const auto traced =
      failure::trace_route_detailed(*hosts.front(), *hosts.back(), probe);
  ASSERT_FALSE(traced.empty());
  ASSERT_EQ(traced.links.size(), traced.nodes.size() - 1);
  for (std::size_t i = 0; i < traced.links.size(); ++i) {
    const net::Link* link = traced.links[i];
    const net::Node* a = traced.nodes[i];
    const net::Node* b = traced.nodes[i + 1];
    EXPECT_TRUE((link->end_a().node == a && link->end_b().node == b) ||
                (link->end_a().node == b && link->end_b().node == a))
        << "hop " << i;
  }
}

// --- random failure generator timing ------------------------------------------

TEST(RandomFailureTiming, RespectsStartAndStop) {
  core::Testbed bed([](net::Network& n) { return topo::build_f2tree(n, 4); });
  bed.converge();
  failure::RandomFailureOptions opts;
  opts.start = sim::seconds(10);
  opts.stop = sim::seconds(20);
  opts.interarrival_median_s = 0.5;
  opts.interarrival_sigma = 0.3;
  opts.duration_median_s = 0.5;
  opts.duration_sigma = 0.3;
  failure::RandomFailureGenerator gen(bed.injector(), sim::Random(3), opts);
  gen.start();
  bed.sim().run(sim::seconds(60));
  ASSERT_GT(gen.failures_injected(), 0);
  for (const auto& event : bed.injector().history()) {
    if (!event.up) {
      EXPECT_GE(event.at, opts.start);
      EXPECT_LE(event.at, opts.stop);
    }
  }
}

// --- forward tap arguments -----------------------------------------------------

TEST(ForwardTap, ReportsIngressAndEgress) {
  sim::Simulator sim(1);
  net::Network net(sim);
  auto& sw = net.add_switch("sw", net::Ipv4Addr(10, 12, 0, 1));
  auto& h1 = net.add_host("h1", net::Ipv4Addr(10, 11, 0, 10), &sw);  // port 0
  auto& h2 = net.add_host("h2", net::Ipv4Addr(10, 11, 0, 11), &sw);  // port 1
  (void)h2;
  net::PortId seen_in = 99, seen_out = 99;
  sw.add_forward_tap(
      [&](const net::Packet&, net::PortId in, net::PortId out) {
        seen_in = in;
        seen_out = out;
      });
  net::Packet p;
  p.src = h1.addr();
  p.dst = net::Ipv4Addr(10, 11, 0, 11);
  p.size_bytes = 100;
  sim.at(0, [&] { h1.send_up(p); });
  sim.run();
  EXPECT_EQ(seen_in, 0);   // arrived from h1's port
  EXPECT_EQ(seen_out, 1);  // left toward h2
}

// --- host stack unmatched counter ----------------------------------------------

TEST(HostStackDemux, CountsUnmatchedPackets) {
  sim::Simulator sim(1);
  net::Network net(sim);
  auto& sw = net.add_switch("sw", net::Ipv4Addr(10, 12, 0, 1));
  auto& h = net.add_host("h", net::Ipv4Addr(10, 11, 0, 10), &sw);
  transport::HostStack stack(h);
  net::Packet p;
  p.dst = h.addr();
  p.proto = net::Protocol::kUdp;
  p.dport = 1234;  // nothing bound
  p.size_bytes = 100;
  sim.at(0, [&] { sw.send(0, p); });
  sim.run();
  EXPECT_EQ(stack.unmatched_packets(), 1u);
}

// --- throughput meter bin alignment --------------------------------------------

TEST(ThroughputMeterAlignment, BinBoundariesExact) {
  stats::ThroughputMeter m(sim::millis(20));
  m.add(sim::millis(20) - 1, 100);  // last ns of bin 0
  m.add(sim::millis(20), 200);      // first ns of bin 1
  const auto series = m.series(0, sim::millis(40));
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].bytes, 100u);
  EXPECT_EQ(series[1].bytes, 200u);
}

// --- CDF randomized vs reference -------------------------------------------------

TEST(CdfProperty, FractionAboveMatchesLinearScan) {
  sim::Random rng(31);
  stats::Cdf cdf;
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform_real(0, 1000);
    cdf.add(v);
    samples.push_back(v);
  }
  for (const double x : {-1.0, 0.0, 123.4, 500.0, 999.9, 1001.0}) {
    int above = 0;
    for (const double s : samples) {
      if (s > x) ++above;
    }
    EXPECT_DOUBLE_EQ(cdf.fraction_above(x),
                     static_cast<double>(above) / samples.size())
        << "x=" << x;
  }
}

// --- partition-aggregate deadline accounting -------------------------------------

TEST(DeadlineAccounting, OutstandingRequestsCountAsMissedAfterDeadline) {
  // Black-hole the whole network right away: requests never complete and
  // must be counted as missed once the deadline passes.
  core::Testbed bed([](net::Network& n) { return topo::build_f2tree(n, 8); });
  bed.converge();
  auto opts = transport::WorkloadOptions::fig6_requests();
  opts.start = sim::millis(10);
  opts.stop = sim::millis(400);
  opts.interarrival = sim::millis(50);
  transport::TcpWorkload requests(bed.stacks(), sim::Random(4), opts);
  requests.start();
  for (auto* link : bed.network().links()) {
    bed.injector().fail_at(*link, sim::millis(5));
  }
  bed.sim().run(sim::seconds(2));
  const auto miss = [&requests](sim::Time horizon) {
    return stats::compute_slo(requests.samples(), 0, 0, horizon)
        .miss_out_window;
  };
  EXPECT_GT(requests.launched(), 0u);
  EXPECT_EQ(requests.completed(), 0u);
  EXPECT_DOUBLE_EQ(miss(sim::seconds(2)), 1.0);
  // Requests younger than the deadline are not yet judged.
  EXPECT_LT(miss(sim::millis(100)), 1.0);
}

}  // namespace
}  // namespace f2t
