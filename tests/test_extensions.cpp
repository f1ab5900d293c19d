#include <gtest/gtest.h>

#include "core/f2tree.hpp"
#include "topo/graphviz.hpp"

namespace f2t {
namespace {

// --- gray failures (silent loss BFD cannot see) -----------------------------

TEST(GrayFailure, DropsConfiguredFraction) {
  sim::Simulator sim(1);
  sim::Random rng(9);
  net::Network net(sim);
  auto& sw = net.add_switch("sw", net::Ipv4Addr(10, 12, 0, 1));
  auto& h = net.add_host("h", net::Ipv4Addr(10, 11, 0, 10), &sw);
  net::Link* link = net.find_link(sw, h);
  link->set_loss_rate(net::Link::Direction::kAToB, 0.3, &rng);

  int received = 0;
  h.set_packet_handler([&](net::Packet) { ++received; });
  for (int i = 0; i < 2000; ++i) {
    sim.at(sim::micros(100 * i), [&] {
      net::Packet p;
      p.dst = h.addr();
      p.size_bytes = 100;
      sw.send(0, p);
    });
  }
  sim.run();
  EXPECT_NEAR(received, 1400, 100);
  EXPECT_NEAR(static_cast<double>(link->dropped_gray()), 600, 100);
  // The link never went "down": no detection-visible event happened.
  EXPECT_TRUE(link->is_up());
}

TEST(GrayFailure, RejectsBadArguments) {
  sim::Simulator sim(1);
  sim::Random rng(9);
  net::Network net(sim);
  auto& a = net.add_switch("a", net::Ipv4Addr(10, 12, 0, 1));
  auto& b = net.add_switch("b", net::Ipv4Addr(10, 12, 1, 1));
  net::Link& link = net.connect_default(a, b);
  EXPECT_THROW(link.set_loss_rate(net::Link::Direction::kAToB, 1.5, &rng),
               std::invalid_argument);
  EXPECT_THROW(link.set_loss_rate(net::Link::Direction::kAToB, 0.5, nullptr),
               std::invalid_argument);
  link.set_loss_rate(net::Link::Direction::kAToB, 0.0, nullptr);  // OK
}

TEST(GrayFailure, FastRerouteDoesNotTrigger) {
  // The honest limitation: a silently lossy downward link never trips
  // detection, so neither ECMP pruning nor the backup statics engage —
  // TCP just suffers the loss rate. (F²Tree targets *detected* failures.)
  core::Testbed bed([](net::Network& n) { return topo::build_f2tree(n, 8); });
  bed.converge();
  const auto plan = failure::build_condition(
      bed.topo(), failure::Condition::kC1, net::Protocol::kTcp);
  ASSERT_TRUE(plan.has_value());
  sim::Random rng(5);
  plan->fail_links.front()->set_loss_rate(net::Link::Direction::kAToB, 0.3,
                                          &rng);
  plan->fail_links.front()->set_loss_rate(net::Link::Direction::kBToA, 0.3,
                                          &rng);

  auto& a = bed.stack_of(*plan->src);
  auto& b = bed.stack_of(*plan->dst);
  transport::TcpConnection conn(a, b, plan->sport, plan->dport,
                                transport::TcpConfig{});
  conn.a().write(500'000);
  bed.sim().run(sim::seconds(30));

  // The transfer limps through on retransmissions over the same path.
  EXPECT_EQ(conn.b().bytes_delivered(), 500'000u);
  EXPECT_GT(conn.a().stats().segments_retransmitted, 0u);
  EXPECT_GT(plan->fail_links.front()->dropped_gray(), 0u);
  // The switch still believes the port is fine.
  const auto port = plan->sx->port_of_link(*plan->fail_links.front());
  EXPECT_TRUE(plan->sx->port_detected_up(port));
}

// --- graphviz export ---------------------------------------------------------

TEST(Graphviz, EmitsNodesEdgesAndAcrossHighlights) {
  sim::Simulator sim(1);
  net::Network net(sim);
  const auto topo = topo::build_f2tree(net, 4);
  const std::string dot = topo::to_graphviz(topo);
  EXPECT_NE(dot.find("graph f2tree {"), std::string::npos);
  EXPECT_NE(dot.find("\"tor0\""), std::string::npos);
  EXPECT_NE(dot.find("\"agg0\""), std::string::npos);
  EXPECT_NE(dot.find("\"core0\""), std::string::npos);
  EXPECT_NE(dot.find("style=dashed, color=red"), std::string::npos);
  // Hosts excluded by default.
  EXPECT_EQ(dot.find("h0_0"), std::string::npos);
}

TEST(Graphviz, IncludeHostsOption) {
  sim::Simulator sim(1);
  net::Network net(sim);
  const auto topo = topo::build_fat_tree(net, topo::FatTreeOptions{.ports = 4});
  topo::GraphvizOptions options;
  options.include_hosts = true;
  const std::string dot = topo::to_graphviz(topo, options);
  EXPECT_NE(dot.find("h0_0"), std::string::npos);
  EXPECT_EQ(dot.find("dashed"), std::string::npos);  // no across links
}

// --- CSV export ---------------------------------------------------------------

TEST(TableCsv, QuotesAndEscapes) {
  stats::Table t({"name", "value"});
  t.row({"plain", "1.5"});
  t.row({"has \"quote\"", "2"});
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("\"name\",\"value\"\n"), std::string::npos);
  EXPECT_NE(csv.find("\"plain\",\"1.5\"\n"), std::string::npos);
  EXPECT_NE(csv.find("\"has \"\"quote\"\"\",\"2\"\n"), std::string::npos);
}

// --- determinism -------------------------------------------------------------

TEST(Determinism, IdenticalSeedsGiveIdenticalRuns) {
  auto run = [](std::uint64_t seed) {
    core::TestbedConfig config;
    config.seed = seed;
    core::Testbed bed(
        [](net::Network& n) { return topo::build_f2tree(n, 8); }, config);
    bed.converge();
    auto pa = transport::WorkloadOptions::fig6_requests();
    pa.stop = sim::seconds(20);
    pa.interarrival = sim::millis(100);
    transport::TcpWorkload requests(bed.stacks(), sim::Random(seed), pa);
    requests.start();
    failure::RandomFailureOptions rf;
    rf.start = sim::seconds(1);
    rf.stop = sim::seconds(20);
    rf.interarrival_median_s = 2.0;
    failure::RandomFailureGenerator gen(bed.injector(), sim::Random(seed + 1),
                                        rf);
    gen.start();
    bed.sim().run(sim::seconds(30));
    // Fingerprint: total completions, event count, injector history.
    std::uint64_t fp = requests.completed();
    fp = fp * 1000003 + bed.sim().scheduler().executed_count();
    for (const auto& e : bed.injector().history()) {
      fp = fp * 1000003 + static_cast<std::uint64_t>(e.at) + e.link;
    }
    return fp;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

}  // namespace
}  // namespace f2t
