#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/f2tree.hpp"
#include "core/runner.hpp"

namespace f2t::routing {
namespace {

core::TestbedConfig central_config() {
  core::TestbedConfig config;
  config.control_plane = core::ControlPlane::kCentral;
  return config;
}

TEST(Central, ConvergeInstallsRoutesEverywhere) {
  core::Testbed bed([](net::Network& n) { return topo::build_f2tree(n, 8); },
                    central_config());
  bed.converge();
  for (auto* sw : bed.topo().all_switches()) {
    for (const auto& [tor, prefix] : bed.topo().subnet_of_tor) {
      if (tor == sw) continue;
      const auto hops = sw->resolve_next_hops(
          net::Ipv4Addr(prefix.address().value() + 10));
      EXPECT_FALSE(hops.empty()) << sw->name() << " -> " << prefix.str();
    }
  }
  EXPECT_EQ(bed.controller().counters().computations, 1u);
}

TEST(Central, AllPairsReachableAfterConvergence) {
  core::Testbed bed([](net::Network& n) { return topo::build_f2tree(n, 8); },
                    central_config());
  bed.converge();
  const auto& hosts = bed.topo().hosts;
  for (std::size_t i = 0; i < hosts.size(); i += 5) {
    const std::size_t j = (i + hosts.size() / 2 + 1) % hosts.size();
    if (i == j) continue;
    net::Packet probe;
    probe.src = hosts[i]->addr();
    probe.dst = hosts[j]->addr();
    probe.sport = static_cast<std::uint16_t>(4000 + i);
    const auto path = failure::trace_route(*hosts[i], *hosts[j], probe);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.back(), hosts[j]);
  }
}

TEST(Central, FailureReportTriggersRecomputeAndPush) {
  core::Testbed bed(
      [](net::Network& n) {
        return topo::build_fat_tree(n, topo::FatTreeOptions{.ports = 8});
      },
      central_config());
  bed.converge();
  auto* sx = bed.topo().pods[0].aggs[0];
  auto* tor = bed.topo().pods[0].tors[0];
  net::Link* link = bed.network().find_link(*sx, *tor);
  ASSERT_NE(link, nullptr);
  bed.injector().fail_at(*link, sim::millis(10));
  bed.sim().run(sim::seconds(2));
  const auto& counters = bed.controller().counters();
  EXPECT_GE(counters.reports, 2u);  // both endpoints report
  EXPECT_GE(counters.computations, 2u);
  EXPECT_GT(counters.fib_pushes, 0u);
  // The pushed routes avoid the dead link.
  const auto prefix = bed.topo().subnet_of_tor.at(tor);
  const auto hops =
      sx->resolve_next_hops(net::Ipv4Addr(prefix.address().value() + 10));
  ASSERT_FALSE(hops.empty());
  for (const auto& nh : hops) EXPECT_NE(sx->port(nh.port).link, link);
}

/// The §V claim, end-to-end: under a centralized control plane, recovery
/// without F² costs detection + report + batch + compute + push + FIB
/// update; with F² it is detection-bound.
TEST(Central, F2TreeCoversTheControllerWindow) {
  auto run = [](bool f2) {
    core::Testbed bed(
        [f2](net::Network& n) {
          return f2 ? topo::build_f2tree(n, 8)
                    : topo::build_fat_tree(n,
                                           topo::FatTreeOptions{.ports = 8});
        },
        central_config());
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
    bed.sim().run(sim::seconds(3));
    std::vector<sim::Time> arrivals;
    for (const auto& a : sink.arrivals()) arrivals.push_back(a.at);
    const auto loss = stats::find_connectivity_loss(arrivals, sim::millis(380));
    return loss ? loss->duration() : sim::Time{0};
  };

  const sim::Time fat = run(false);
  const sim::Time f2 = run(true);
  // detection 60 + report 2 + batch 10 + compute 30 + push 2 + FIB 10.
  EXPECT_GE(fat, sim::millis(100));
  EXPECT_LE(fat, sim::millis(130));
  EXPECT_GE(f2, sim::millis(55));
  EXPECT_LE(f2, sim::millis(70));
}

TEST(Central, OspfAccessorThrowsOnCentralPlane) {
  core::Testbed bed([](net::Network& n) { return topo::build_f2tree(n, 4); },
                    central_config());
  EXPECT_THROW(bed.ospf_of(*bed.topo().aggs.front()), std::invalid_argument);
  core::Testbed ospf_bed(
      [](net::Network& n) { return topo::build_f2tree(n, 4); });
  EXPECT_THROW(ospf_bed.controller(), std::logic_error);
}

/// Rows are keyed by switch and routes by prefix origin, so a switch
/// managed twice or a prefix with two origins, or named twice by one, is
/// rejected, and a rejected call registers nothing.
TEST(Central, ManageRejectsDuplicateSwitchOrPrefix) {
  sim::Simulator sim;
  net::Network network(sim);
  const auto topo =
      topo::build_fat_tree(network, topo::FatTreeOptions{.ports = 4});
  CentralController controller;
  net::L3Switch& first = *topo.tors[0];
  net::L3Switch& second = *topo.tors[1];
  controller.manage(first, {topo.subnet_of_tor.at(&first)});
  EXPECT_THROW(controller.manage(first), std::invalid_argument);
  EXPECT_THROW(controller.manage(second, {topo.subnet_of_tor.at(&first)}),
               std::invalid_argument);
  EXPECT_NO_THROW(controller.manage(second, {topo.subnet_of_tor.at(&second)}));
  net::L3Switch& third = *topo.tors[2];
  const net::Prefix own = topo.subnet_of_tor.at(&third);
  EXPECT_THROW(controller.manage(third, {own, own}), std::invalid_argument);
  EXPECT_NO_THROW(controller.manage(third, {own}));
}

/// The controller's view rebuilt from the public per-switch surface: one
/// LSA per switch with its live_links and its rack prefix.
Lsdb reference_view(const topo::BuiltTopology& topo) {
  Lsdb view;
  for (net::L3Switch* sw : topo.all_switches()) {
    auto lsa = std::make_shared<Lsa>();
    lsa->origin = sw->router_id();
    lsa->sequence = 1;
    lsa->links = live_links(*sw);
    if (const auto it = topo.subnet_of_tor.find(sw);
        it != topo.subnet_of_tor.end()) {
      lsa->prefixes.push_back(it->second);
    }
    view.consider(lsa);
  }
  return view;
}

/// compute_spf for `sw` on `view` minus the switch's own prefixes, sorted
/// by prefix as the FIB dumps them.
std::vector<Route> reference_routes(const topo::BuiltTopology& topo,
                                    const Lsdb& view, net::L3Switch& sw) {
  auto routes = compute_spf(view, sw.router_id(), live_adjacency(sw));
  if (const auto it = topo.subnet_of_tor.find(&sw);
      it != topo.subnet_of_tor.end()) {
    std::erase_if(routes,
                  [&](const Route& r) { return r.prefix == it->second; });
  }
  std::sort(routes.begin(), routes.end(),
            [](const Route& a, const Route& b) { return a.prefix < b.prefix; });
  return routes;
}

std::vector<Route> ospf_entries(const Fib& fib) {
  auto routes = fib.dump();
  std::erase_if(routes,
                [](const Route& r) { return r.source != RouteSource::kOspf; });
  return routes;
}

/// Asserts that every switch's OSPF FIB entries equal its reference
/// routes, and returns those, one set per switch in all_switches() order.
std::vector<std::vector<Route>> expect_fibs_follow_spf(
    const topo::BuiltTopology& topo) {
  const Lsdb view = reference_view(topo);
  std::vector<std::vector<Route>> routes;
  for (net::L3Switch* sw : topo.all_switches()) {
    routes.push_back(reference_routes(topo, view, *sw));
    EXPECT_TRUE(ospf_entries(sw->fib()) == routes.back()) << sw->name();
  }
  return routes;
}

/// The number of prefixes whose route was added, removed or given other
/// next hops from `from` to `to`, each with one route per prefix.
std::size_t changed_routes(const std::vector<Route>& from,
                           const std::vector<Route>& to) {
  std::map<net::Prefix, NextHopGroup> old;
  for (const Route& r : from) old.emplace(r.prefix, r.next_hops);
  std::size_t changed = 0;
  for (const Route& r : to) {
    const auto it = old.find(r.prefix);
    if (it == old.end()) {
      ++changed;
      continue;
    }
    if (!(it->second == r.next_hops)) ++changed;
    old.erase(it);
  }
  return changed + old.size();
}

net::L3Switch* switch_at(const net::Link::End& end) {
  return dynamic_cast<net::L3Switch*>(end.node);
}

bool detected_up(const net::Link::End& end) {
  return switch_at(end)->port_detected_up(end.port);
}

/// Property: after converge and after every batched recompute has landed,
/// each switch's OSPF FIB entries are exactly compute_spf's routes on the
/// controller's view, under seeded churn of link failures and repairs,
/// one-way cuts, one-sided detection (a one-way edge in the view) and a
/// switch failure. Every computation pushes to every switch, and a switch
/// whose routes did not change keeps its FIB generation. After a step with
/// one computation, each switch's FIB wrote exactly one slot, with one
/// generation bump and one change-hook call, per route that changed.
void check_routes_follow_spf(const std::string& label,
                             const core::Testbed::TopoBuilder& builder,
                             std::uint32_t seed) {
  SCOPED_TRACE(label);
  core::Testbed bed(builder, central_config());
  const auto& topo = bed.topo();
  const auto switches = topo.all_switches();
  std::size_t hook_calls = 0;
  bed.controller().set_push_hook([&](net::L3Switch&) { ++hook_calls; });
  std::vector<std::size_t> fib_writes(switches.size(), 0);
  for (std::size_t i = 0; i < switches.size(); ++i) {
    switches[i]->fib().add_change_hook([&fib_writes, i] { ++fib_writes[i]; });
  }
  bed.converge();

  std::vector<net::Link*> links;
  for (net::Link* link : bed.network().links()) {
    if (switch_at(link->end_a()) && switch_at(link->end_b())) {
      links.push_back(link);
    }
  }
  std::mt19937 rng(seed);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };

  std::vector<std::vector<Route>> expected = expect_fibs_follow_spf(topo);

  struct Cut {
    net::Link* link;
    net::Node* from;
  };
  struct Deaf {
    net::L3Switch* sw;
    net::PortId port;
  };
  std::vector<Cut> cuts;
  std::vector<Deaf> deaf;
  sim::Time t = sim::millis(10);
  for (int step = 0; step < 24; ++step) {
    std::vector<std::uint64_t> generations;
    for (net::L3Switch* sw : switches) {
      generations.push_back(sw->fib().generation());
    }
    const auto computations = bed.controller().counters().computations;
    const auto pushes = bed.controller().counters().fib_pushes;
    const std::size_t hooks = hook_calls;
    const std::vector<std::size_t> writes = fib_writes;

    // Clean links are up with both ends detecting them up.
    std::vector<net::Link*> clean;
    std::vector<net::Link*> down;
    for (net::Link* link : links) {
      if (!link->is_up()) {
        down.push_back(link);
      } else if (detected_up(link->end_a()) && detected_up(link->end_b())) {
        clean.push_back(link);
      }
    }
    // A cut is repairable while only its own direction is down.
    std::erase_if(cuts, [](const Cut& c) {
      const net::Link::End& a = c.link->end_a();
      const net::Node& to = a.node == c.from ? *c.link->end_b().node : *a.node;
      return c.link->direction_up(c.link->direction_from(*c.from)) ||
             !c.link->direction_up(c.link->direction_from(to));
    });
    std::erase_if(deaf, [](const Deaf& d) {
      return d.sw->port_detected_up(d.port);
    });
    enum Action { kFail, kRepair, kCut, kUncut, kDeafen, kHear, kSwitch };
    auto action = step == 12 ? kSwitch : static_cast<Action>(pick(6));
    if ((action == kRepair && down.empty()) ||
        (action == kUncut && cuts.empty()) ||
        (action == kHear && deaf.empty())) {
      action = kFail;
    }
    if (clean.empty() && action != kRepair && action != kUncut &&
        action != kHear) {
      action = down.empty() ? kHear : kRepair;
    }
    switch (action) {
      case kFail:
        bed.injector().fail_at(*clean[pick(clean.size())], t);
        break;
      case kRepair:
        bed.injector().recover_at(*down[pick(down.size())], t);
        break;
      case kCut: {
        net::Link* link = clean[pick(clean.size())];
        net::Node* from =
            pick(2) == 0 ? link->end_a().node : link->end_b().node;
        bed.injector().fail_direction_at(*link, *from, t);
        cuts.push_back(Cut{link, from});
        break;
      }
      case kUncut: {
        const Cut c = cuts[pick(cuts.size())];
        bed.injector().recover_direction_at(*c.link, *c.from, t);
        break;
      }
      case kDeafen: {
        // Only one end detects the link down while the other still
        // advertises it: the view holds a one-way edge.
        net::Link* link = clean[pick(clean.size())];
        const net::Link::End& end =
            pick(2) == 0 ? link->end_a() : link->end_b();
        const Deaf d{switch_at(end), end.port};
        bed.sim().at(t, [d] { d.sw->set_port_detected(d.port, false); });
        deaf.push_back(d);
        break;
      }
      case kHear: {
        const Deaf d = deaf[pick(deaf.size())];
        bed.sim().at(t, [d] { d.sw->set_port_detected(d.port, true); });
        break;
      }
      case kSwitch: {
        // Leaf-spine has no aggregation layer; fail a core there.
        const auto& layer = topo.aggs.empty() ? topo.cores : topo.aggs;
        bed.injector().fail_switch_at(*layer[pick(layer.size())], t);
        break;
      }
    }
    t += sim::millis(300);
    bed.sim().run(t);

    SCOPED_TRACE("step " + std::to_string(step));
    const std::vector<std::vector<Route>> before = std::move(expected);
    expected = expect_fibs_follow_spf(topo);
    const auto& counters = bed.controller().counters();
    for (std::size_t i = 0; i < switches.size(); ++i) {
      if (expected[i] == before[i]) {
        EXPECT_EQ(switches[i]->fib().generation(), generations[i])
            << switches[i]->name();
      }
      if (counters.computations - computations == 1) {
        const std::size_t changed = changed_routes(before[i], expected[i]);
        EXPECT_EQ(switches[i]->fib().generation() - generations[i], changed)
            << switches[i]->name();
        EXPECT_EQ(fib_writes[i] - writes[i], changed) << switches[i]->name();
      }
    }
    EXPECT_GT(counters.computations, computations);
    EXPECT_EQ(counters.fib_pushes - pushes,
              (counters.computations - computations) * switches.size());
    EXPECT_EQ(hook_calls - hooks, counters.fib_pushes - pushes);
  }
}

TEST(Central, RoutesEqualComputeSpfUnderChurn) {
  std::uint32_t seed = 0xC0FFEE;
  for (const std::string topology : {"fat", "f2", "vl2-f2", "leafspine-f2"}) {
    for (const int ports : {4, 8}) {
      check_routes_follow_spf(topology + " k=" + std::to_string(ports),
                              core::topology_builder(topology, ports), seed++);
    }
  }
  // A spine's 136 live ports span five 32-bit mask words of the read-off,
  // and the 136 leaves' columns take three 64-column passes of the rows.
  check_routes_follow_spf(
      "leafspine k=136",
      [](net::Network& n) {
        return topo::build_leaf_spine(
            n, topo::LeafSpineOptions{.ports = 136, .hosts_per_leaf = 1});
      },
      seed++);
}

/// converge() while a recompute's pushes are in flight: they land over
/// the fresh routes, so the next recompute must rebuild every switch
/// instead of trusting the rows converge() left behind.
TEST(Central, RecomputeAfterConvergeDuringPushesRebuildsAll) {
  core::Testbed bed(core::topology_builder("fat", 4), central_config());
  bed.converge();
  const auto& topo = bed.topo();
  net::Link* first = bed.network().find_link(*topo.pods[0].aggs[0],
                                             *topo.pods[0].tors[0]);
  net::Link* second = bed.network().find_link(*topo.pods[1].aggs[0],
                                              *topo.pods[1].tors[0]);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  // first: detected at 70 ms, recomputed at 112 ms, pushes land at 124 ms.
  // second: detected at 115 ms, recomputed at 157 ms. A core switch's
  // routes change with both, so its 124 ms push undoes converge()'s view
  // of the second failure.
  bed.injector().fail_at(*first, sim::millis(10));
  bed.injector().fail_at(*second, sim::millis(55));
  bed.sim().at(sim::millis(120), [&bed] { bed.controller().converge(); });
  bed.sim().run(sim::millis(400));
  EXPECT_EQ(bed.controller().counters().computations, 4u);
  expect_fibs_follow_spf(topo);
}

/// Route producers build one next-hop group per distinct hop set: after
/// the controller's converge() and after OSPF's warm start, no two
/// distinct group objects in a switch's OSPF entries hold the same hops.
TEST(NextHopGroups, OneGroupPerDistinctSetAfterConvergence) {
  for (const char* topology : {"fat", "f2"}) {
    for (const auto plane :
         {core::ControlPlane::kCentral, core::ControlPlane::kOspf}) {
      SCOPED_TRACE(std::string(topology) +
                   (plane == core::ControlPlane::kCentral ? " central"
                                                          : " ospf"));
      core::TestbedConfig config;
      config.control_plane = plane;
      core::Testbed bed(core::topology_builder(topology, 8), config);
      bed.converge();
      std::size_t shared = 0;
      for (net::L3Switch* sw : bed.topo().all_switches()) {
        std::map<std::vector<NextHop>, const NextHop*> group_of;
        for (const Route& r : ospf_entries(sw->fib())) {
          const std::vector<NextHop> hops(r.next_hops.begin(),
                                          r.next_hops.end());
          const auto [it, fresh] = group_of.emplace(hops, r.next_hops.data());
          EXPECT_EQ(it->second, r.next_hops.data())
              << sw->name() << ": " << r.describe();
          if (!fresh) ++shared;
        }
      }
      EXPECT_GT(shared, 0u);
    }
  }
}

}  // namespace
}  // namespace f2t::routing
