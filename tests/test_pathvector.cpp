#include <gtest/gtest.h>

#include "core/f2tree.hpp"

namespace f2t::routing {
namespace {

core::TestbedConfig pv_config() {
  core::TestbedConfig config;
  config.control_plane = core::ControlPlane::kPathVector;
  return config;
}

TEST(PathVector, WarmStartInstallsRoutesEverywhere) {
  core::Testbed bed([](net::Network& n) { return topo::build_f2tree(n, 8); },
                    pv_config());
  bed.converge();
  for (auto* sw : bed.topo().all_switches()) {
    for (const auto& [tor, prefix] : bed.topo().subnet_of_tor) {
      if (tor == sw) continue;
      const auto hops = sw->resolve_next_hops(
          net::Ipv4Addr(prefix.address().value() + 10));
      EXPECT_FALSE(hops.empty()) << sw->name() << " -> " << prefix.str();
    }
  }
}

TEST(PathVector, WarmStartAllPairsReachable) {
  core::Testbed bed(
      [](net::Network& n) {
        return topo::build_fat_tree(n, topo::FatTreeOptions{.ports = 8});
      },
      pv_config());
  bed.converge();
  const auto& hosts = bed.topo().hosts;
  for (std::size_t i = 0; i < hosts.size(); i += 7) {
    const std::size_t j = (i + hosts.size() / 2 + 3) % hosts.size();
    if (i == j) continue;
    net::Packet probe;
    probe.src = hosts[i]->addr();
    probe.dst = hosts[j]->addr();
    probe.sport = static_cast<std::uint16_t>(5000 + i);
    const auto path = failure::trace_route(*hosts[i], *hosts[j], probe);
    ASSERT_FALSE(path.empty())
        << hosts[i]->name() << " -> " << hosts[j]->name();
    EXPECT_EQ(path.back(), hosts[j]);
  }
}

TEST(PathVector, MultipathInstallsEcmpSets) {
  core::Testbed bed(
      [](net::Network& n) {
        return topo::build_fat_tree(n, topo::FatTreeOptions{.ports = 8});
      },
      pv_config());
  bed.converge();
  auto* tor = bed.topo().tors.front();
  // Some remote prefix should have several equal-length uplink choices.
  std::size_t widest = 0;
  for (const auto& [remote, prefix] : bed.topo().subnet_of_tor) {
    if (remote == tor) continue;
    const auto hops = tor->resolve_next_hops(
        net::Ipv4Addr(prefix.address().value() + 10));
    widest = std::max(widest, hops.size());
  }
  EXPECT_GE(widest, 2u);
}

TEST(PathVector, SinglePathModeInstallsOneNextHop) {
  auto config = pv_config();
  config.path_vector.multipath = false;
  core::Testbed bed(
      [](net::Network& n) {
        return topo::build_fat_tree(n, topo::FatTreeOptions{.ports = 4});
      },
      config);
  bed.converge();
  for (auto* sw : bed.topo().all_switches()) {
    for (const auto& route : sw->fib().dump()) {
      if (route.source == RouteSource::kOspf) {
        EXPECT_EQ(route.next_hops.size(), 1u) << sw->name();
      }
    }
  }
}

TEST(PathVector, FailureWithdrawsAndReconverges) {
  core::Testbed bed(
      [](net::Network& n) {
        return topo::build_fat_tree(n, topo::FatTreeOptions{.ports = 8});
      },
      pv_config());
  bed.converge();
  auto* sx = bed.topo().pods[0].aggs[0];
  auto* tor = bed.topo().pods[0].tors[0];
  net::Link* link = bed.network().find_link(*sx, *tor);
  ASSERT_NE(link, nullptr);
  bed.injector().fail_at(*link, sim::millis(10));
  bed.sim().run(sim::seconds(10));

  const auto& counters = bed.path_vector_of(*sx).counters();
  EXPECT_GT(counters.updates_sent, 0u);
  EXPECT_GT(counters.routes_withdrawn, 0u);

  // Valley-free BGP: Sx itself has no remaining path to the ToR (every
  // alternative would transit the rack or loop through Sx)...
  const auto prefix = bed.topo().subnet_of_tor.at(tor);
  const auto sx_hops =
      sx->resolve_next_hops(net::Ipv4Addr(prefix.address().value() + 10));
  EXPECT_TRUE(sx_hops.empty());
  // ...but the network as a whole reconverged: hosts in other pods reach
  // the ToR via the other aggregation switches.
  const net::Host* src = bed.topo().hosts_of_tor.at(bed.topo().tors.back())
                             .front();
  const net::Host* dst = bed.topo().hosts_of_tor.at(tor).front();
  net::Packet probe;
  probe.src = src->addr();
  probe.dst = dst->addr();
  probe.sport = 12001;
  const auto path = failure::trace_route(*src, *dst, probe);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.back(), dst);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_FALSE((path[i] == sx && path[i + 1] == tor) ||
                 (path[i] == tor && path[i + 1] == sx));
  }
}

TEST(PathVector, RecoveryReadvertisesFullTable) {
  core::Testbed bed(
      [](net::Network& n) {
        return topo::build_fat_tree(n, topo::FatTreeOptions{.ports = 4});
      },
      pv_config());
  bed.converge();
  auto* sx = bed.topo().pods[0].aggs[0];
  auto* tor = bed.topo().pods[0].tors[0];
  net::Link* link = bed.network().find_link(*sx, *tor);
  bed.injector().fail_for(*link, sim::millis(10), sim::seconds(2));
  bed.sim().run(sim::seconds(20));

  // Direct route restored after the session re-establishes.
  const auto prefix = bed.topo().subnet_of_tor.at(tor);
  const auto hops =
      sx->resolve_next_hops(net::Ipv4Addr(prefix.address().value() + 10));
  ASSERT_FALSE(hops.empty());
  bool direct = false;
  for (const auto& nh : hops) {
    if (sx->port(nh.port).link == link) direct = true;
  }
  EXPECT_TRUE(direct);
}

/// §V's claim under a BGP-like plane: F²Tree's fast reroute keeps the
/// 60 ms detection floor; the original fat tree waits for withdrawal
/// propagation, path hunting and FIB updates.
TEST(PathVector, F2TreeStaysDetectionBoundUnderBgpPlane) {
  auto run = [](bool f2) {
    core::Testbed bed(
        [f2](net::Network& n) {
          return f2 ? topo::build_f2tree(n, 8)
                    : topo::build_fat_tree(n,
                                           topo::FatTreeOptions{.ports = 8});
        },
        pv_config());
    bed.converge();
    const auto plan =
        failure::build_condition(bed.topo(), failure::Condition::kC1);
    EXPECT_TRUE(plan.has_value());
    transport::UdpSink sink(bed.stack_of(*plan->dst), plan->dport);
    transport::UdpCbrSender::Options so;
    so.sport = plan->sport;
    so.dport = plan->dport;
    so.stop = sim::seconds(2);
    transport::UdpCbrSender sender(bed.stack_of(*plan->src),
                                   plan->dst->addr(), so);
    sender.start();
    for (net::Link* link : plan->fail_links) {
      bed.injector().fail_at(*link, sim::millis(380));
    }
    bed.sim().run(sim::seconds(4));
    std::vector<sim::Time> arrivals;
    for (const auto& a : sink.arrivals()) arrivals.push_back(a.at);
    const auto loss = stats::find_connectivity_loss(arrivals, sim::millis(380));
    return loss ? loss->duration() : sim::Time{0};
  };

  const sim::Time fat = run(false);
  const sim::Time f2 = run(true);
  EXPECT_GE(f2, sim::millis(55));
  EXPECT_LE(f2, sim::millis(70));
  EXPECT_GT(fat, f2);  // withdrawal wave + FIB install on top of detection
}

}  // namespace
}  // namespace f2t::routing
