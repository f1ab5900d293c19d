#include <gtest/gtest.h>

#include "core/f2tree.hpp"

namespace f2t::routing {
namespace {

TEST(Flooding, LsaReachesEverySwitchWithinMilliseconds) {
  // The paper: "the OSPF LSA messages take very little time to get
  // propagated from S16 to the rest of the network". Measure it: after a
  // detected failure, every switch should hold the new LSA within a few
  // per-hop processing delays (~300 us x diameter), far below the 200 ms
  // SPF timer that dominates recovery.
  core::Testbed bed([](net::Network& n) {
    return topo::build_fat_tree(n, topo::FatTreeOptions{.ports = 8});
  });
  bed.converge();
  auto* sx = bed.topo().pods[0].aggs[0];
  auto* tor = bed.topo().pods[0].tors[0];
  net::Link* link = bed.network().find_link(*sx, *tor);
  bed.injector().fail_at(*link, sim::millis(100));
  // Detection at 160 ms; check LSDBs shortly after.
  bed.sim().run(sim::millis(165));
  int updated = 0;
  const auto switches = bed.topo().all_switches();
  for (auto* sw : switches) {
    if (bed.ospf_of(*sw).lsdb().sequence_of(sx->router_id()) >= 2) ++updated;
  }
  EXPECT_EQ(updated, static_cast<int>(switches.size()));
  // ...and nobody has recomputed routes yet (the SPF timer is pending).
  const auto counters = bed.total_ospf_counters();
  EXPECT_EQ(counters.spf_runs, switches.size());  // only the warm start
}

TEST(Flooding, SelfLsaDeduplicatesParallelRingLinks) {
  // The 4-port prototype has doubled across links; the router-level LSA
  // must list the neighbour once while SPF still uses both ports.
  core::Testbed bed([](net::Network& n) { return topo::build_f2tree(n, 4); });
  bed.converge();
  auto* agg = bed.topo().aggs.front();
  const auto lsa = bed.ospf_of(*agg).make_self_lsa();
  std::set<net::Ipv4Addr> unique;
  for (const net::Ipv4Addr peer : lsa->links) {
    EXPECT_TRUE(unique.insert(peer).second)
        << "duplicate adjacency to " << peer.str();
  }
  // And the FIB's static backups still use two distinct ports.
  const auto r16 = agg->fib().find(net::Prefix::parse("10.11.0.0/16"),
                                   RouteSource::kStatic);
  const auto r15 = agg->fib().find(net::Prefix::parse("10.10.0.0/15"),
                                   RouteSource::kStatic);
  ASSERT_TRUE(r16 && r15);
  EXPECT_NE(r16->next_hops.front().port, r15->next_hops.front().port);
}

TEST(Flooding, PvUpdateWireSizeGrowsWithContent) {
  PvUpdate update;
  const auto empty = update.wire_size();
  PvRoute route;
  route.prefix = net::Prefix::parse("10.11.0.0/24");
  route.path = {net::Ipv4Addr(10, 12, 0, 1), net::Ipv4Addr(10, 11, 0, 1)};
  update.routes.push_back(route);
  EXPECT_GT(update.wire_size(), empty);
}

TEST(Flooding, ControlPacketsShareLinksWithData) {
  // Control-plane packets traverse the same links (in-band): the paper's
  // production DCNs run routing over the fabric itself.
  core::Testbed bed([](net::Network& n) { return topo::build_f2tree(n, 4); });
  bed.converge();
  auto* agg = bed.topo().aggs.front();
  auto* tor = bed.topo().pods[0].tors[0];
  net::Link* link = bed.network().find_link(*agg, *tor);
  const auto delivered_before = link->delivered();
  // Flap a *different* link: the resulting LSAs flood across this one.
  auto* other = bed.topo().pods[1].aggs[0];
  auto* other_tor = bed.topo().pods[1].tors[0];
  bed.injector().fail_at(*bed.network().find_link(*other, *other_tor),
                         sim::millis(10));
  bed.sim().run(sim::millis(200));
  EXPECT_GT(link->delivered(), delivered_before);
}

}  // namespace
}  // namespace f2t::routing
