#include <gtest/gtest.h>

#include "core/f2tree.hpp"
#include "topo/addressing.hpp"

namespace f2t {
namespace {

TEST(Logging, SinkCapturesAtOrAboveThreshold) {
  sim::Logger logger;
  std::vector<std::string> lines;
  logger.set_sink([&](sim::LogLevel, sim::Time, const std::string& message) {
    lines.push_back(message);
  });
  logger.set_threshold(sim::LogLevel::kInfo);
  F2T_LOG(logger, sim::LogLevel::kDebug, 0, "hidden " << 1);
  F2T_LOG(logger, sim::LogLevel::kInfo, 0, "shown " << 2);
  F2T_LOG(logger, sim::LogLevel::kError, 0, "also " << 3);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "shown 2");
  EXPECT_EQ(lines[1], "also 3");
}

TEST(Logging, LevelNames) {
  EXPECT_STREQ(sim::Logger::level_name(sim::LogLevel::kTrace), "TRACE");
  EXPECT_STREQ(sim::Logger::level_name(sim::LogLevel::kError), "ERROR");
}

TEST(Logging, LazyEvaluationSkipsDisabledLevels) {
  sim::Logger logger;  // default threshold kWarn
  int evaluated = 0;
  auto expensive = [&] {
    ++evaluated;
    return 42;
  };
  F2T_LOG(logger, sim::LogLevel::kDebug, 0, "x " << expensive());
  EXPECT_EQ(evaluated, 0);
}

TEST(TimeFormat, AdaptiveUnits) {
  EXPECT_EQ(sim::format_time(sim::micros(60)), "60us");
  EXPECT_EQ(sim::format_time(sim::millis(1)), "1000us");
  EXPECT_EQ(sim::format_time(sim::millis(272) + sim::micros(847)),
            "272.8ms");
  EXPECT_EQ(sim::format_time(sim::seconds(10)), "10s");
  EXPECT_EQ(sim::format_time(-sim::millis(50)), "-50ms");
}

TEST(PacketDescribe, MentionsKeyFields) {
  net::Packet p;
  p.src = net::Ipv4Addr(10, 11, 0, 10);
  p.dst = net::Ipv4Addr(10, 11, 4, 10);
  p.proto = net::Protocol::kTcp;
  p.sport = 1234;
  p.dport = 80;
  p.tcp.seq = 99;
  p.tcp.payload_bytes = 1448;
  const std::string s = p.describe();
  EXPECT_NE(s.find("tcp"), std::string::npos);
  EXPECT_NE(s.find("10.11.0.10:1234"), std::string::npos);
  EXPECT_NE(s.find("seq=99"), std::string::npos);
}

TEST(RouteDescribe, ShowsSourceAndHops) {
  routing::Route route{net::Prefix::parse("10.11.0.0/16"),
                       {routing::NextHop{3, net::Ipv4Addr(10, 12, 1, 1)}},
                       routing::RouteSource::kStatic};
  const std::string s = route.describe();
  EXPECT_NE(s.find("10.11.0.0/16"), std::string::npos);
  EXPECT_NE(s.find("static"), std::string::npos);
  EXPECT_NE(s.find("port3"), std::string::npos);
}

TEST(LsaDescribe, ShowsOriginAndContent) {
  routing::Lsa lsa;
  lsa.origin = net::Ipv4Addr(10, 12, 0, 1);
  lsa.sequence = 7;
  lsa.links.push_back(net::Ipv4Addr(10, 11, 0, 1));
  lsa.prefixes.push_back(net::Prefix::parse("10.11.0.0/24"));
  const std::string s = lsa.describe();
  EXPECT_NE(s.find("10.12.0.1"), std::string::npos);
  EXPECT_NE(s.find("seq=7"), std::string::npos);
  EXPECT_NE(s.find("10.11.0.0/24"), std::string::npos);
  // 64-byte header, 12 bytes per link, 8 per prefix.
  EXPECT_EQ(lsa.wire_size(), 84u);
}

TEST(AddressPlan, MatchesPaperFig3d) {
  using topo::AddressPlan;
  EXPECT_EQ(AddressPlan::tor_router_id(0).str(), "10.11.0.1");
  EXPECT_EQ(AddressPlan::tor_subnet(0).str(), "10.11.0.0/24");
  EXPECT_EQ(AddressPlan::host_addr(0, 0).str(), "10.11.0.10");
  EXPECT_EQ(AddressPlan::agg_router_id(1).str(), "10.12.1.1");
  EXPECT_EQ(AddressPlan::core_router_id(0).str(), "10.13.0.1");
  EXPECT_EQ(AddressPlan::dcn_prefix().str(), "10.11.0.0/16");
  EXPECT_EQ(AddressPlan::backup_prefix(0).str(), "10.11.0.0/16");
  EXPECT_EQ(AddressPlan::backup_prefix(1).str(), "10.10.0.0/15");
  // The chain nests: each backup prefix covers the previous.
  for (int i = 1; i <= 3; ++i) {
    EXPECT_TRUE(AddressPlan::backup_prefix(i).contains(
        AddressPlan::backup_prefix(i - 1)));
  }
}

TEST(BuiltTopology, HelpersFindStructure) {
  sim::Simulator sim(1);
  net::Network net(sim);
  const auto topo = topo::build_f2tree(net, 8);
  auto* agg = topo.pods[2].aggs[1];
  EXPECT_EQ(topo.pod_of_agg(agg), 2);
  EXPECT_EQ(topo.index_in_pod(agg), 1);
  EXPECT_EQ(topo.pod_of_agg(topo.tors.front()), -1);
  auto* host = topo.hosts.front();
  EXPECT_EQ(topo.tor_of_host(host), topo.tors.front());
  const std::string s = topo.summary();
  EXPECT_NE(s.find("f2tree"), std::string::npos);
  EXPECT_NE(s.find("96 hosts"), std::string::npos);
}

TEST(TopologyKindNames, AllNamed) {
  EXPECT_STREQ(topo::topology_kind_name(topo::TopologyKind::kFatTree),
               "fat-tree");
  EXPECT_STREQ(topo::topology_kind_name(topo::TopologyKind::kF2Tree),
               "f2tree");
  EXPECT_STREQ(topo::topology_kind_name(topo::TopologyKind::kLeafSpine),
               "leaf-spine");
  EXPECT_STREQ(topo::topology_kind_name(topo::TopologyKind::kVl2), "vl2");
}

TEST(ConditionNames, AllNamed) {
  using failure::Condition;
  EXPECT_STREQ(failure::condition_name(Condition::kC1), "C1");
  EXPECT_STREQ(failure::condition_name(Condition::kC7), "C7");
  EXPECT_FALSE(failure::condition_requires_f2(Condition::kC5));
  EXPECT_TRUE(failure::condition_requires_f2(Condition::kC6));
}

TEST(Scalability, MonotoneAndConsistent) {
  using core::Scalability;
  // Larger switches host more nodes, and the relative F²Tree cost shrinks.
  double prev_cost = 1.0;
  for (int n = 8; n <= 128; n *= 2) {
    EXPECT_GT(Scalability::f2tree_nodes(n), 0);
    EXPECT_LT(Scalability::f2tree_nodes(n), Scalability::fat_tree_nodes(n));
    const double cost = Scalability::f2tree_node_cost_fraction(n);
    EXPECT_LT(cost, prev_cost);
    prev_cost = cost;
  }
  // Aspen at f=1 halves the nodes supported.
  EXPECT_DOUBLE_EQ(Scalability::aspen_nodes(8, 1),
                   Scalability::fat_tree_nodes(8) / 2);
}

TEST(SchedulerStats, ExecutedCount) {
  sim::Scheduler s;
  for (int i = 0; i < 5; ++i) s.schedule_at(i, [] {});
  s.run();
  EXPECT_EQ(s.executed_count(), 5u);
}

TEST(HostStack, AllocPortMonotone) {
  sim::Simulator sim(1);
  net::Network net(sim);
  auto& sw = net.add_switch("sw", net::Ipv4Addr(10, 12, 0, 1));
  auto& h = net.add_host("h", net::Ipv4Addr(10, 11, 0, 10), &sw);
  transport::HostStack stack(h);
  const auto p1 = stack.alloc_port();
  const auto p2 = stack.alloc_port();
  EXPECT_EQ(p2, p1 + 1);
  EXPECT_GE(p1, 49152);
}

TEST(HostStack, DuplicateUdpBindThrows) {
  sim::Simulator sim(1);
  net::Network net(sim);
  auto& sw = net.add_switch("sw", net::Ipv4Addr(10, 12, 0, 1));
  auto& h = net.add_host("h", net::Ipv4Addr(10, 11, 0, 10), &sw);
  transport::HostStack stack(h);
  stack.bind_udp(9000, [](const net::Packet&) {});
  EXPECT_THROW(stack.bind_udp(9000, [](const net::Packet&) {}),
               std::invalid_argument);
  stack.unbind_udp(9000);
  stack.bind_udp(9000, [](const net::Packet&) {});  // rebind OK
}

TEST(OspfCounters, DuplicateLsasIgnoredNotReflooded) {
  core::Testbed bed([](net::Network& n) { return topo::build_f2tree(n, 4); });
  bed.converge();
  auto* agg = bed.topo().aggs.front();
  auto* tor = bed.topo().pods[0].tors[0];
  net::Link* link = bed.network().find_link(*agg, *tor);
  bed.injector().fail_at(*link, sim::millis(10));
  bed.sim().run(sim::seconds(2));
  const auto totals = bed.total_ospf_counters();
  // Flooding over a multi-rooted tree necessarily produces duplicates;
  // they must be detected and dropped, not re-flooded forever.
  EXPECT_GT(totals.lsas_ignored, 0u);
  EXPECT_GT(totals.lsas_accepted, 0u);
  EXPECT_LT(totals.lsas_accepted + totals.lsas_ignored, 10'000u);
}

TEST(InjectorHistory, RecordsBothTransitions) {
  core::Testbed bed([](net::Network& n) { return topo::build_f2tree(n, 4); });
  bed.converge();
  auto* link = bed.network().links().front();
  bed.injector().fail_for(*link, sim::millis(5), sim::millis(10));
  bed.sim().run(sim::millis(30));
  ASSERT_EQ(bed.injector().history().size(), 2u);
  EXPECT_FALSE(bed.injector().history()[0].up);
  EXPECT_TRUE(bed.injector().history()[1].up);
  EXPECT_EQ(bed.injector().active_failures(), 0);
}

}  // namespace
}  // namespace f2t
