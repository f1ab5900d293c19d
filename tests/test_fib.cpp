#include <gtest/gtest.h>

#include <initializer_list>
#include <stdexcept>

#include "routing/fib.hpp"

namespace f2t::routing {
namespace {

using net::Ipv4Addr;
using net::Prefix;

Route make(const char* prefix, std::vector<NextHop> hops,
           RouteSource source = RouteSource::kOspf) {
  return Route{Prefix::parse(prefix), std::move(hops), source};
}

/// The usable next hops for `dst` with the ports in `down` detected down.
std::vector<NextHop> lookup(const Fib& fib, Ipv4Addr dst,
                            std::initializer_list<net::PortId> down = {}) {
  std::vector<bool> up(16, true);
  for (const net::PortId p : down) up[p] = false;
  Fib::HopVec hops;
  fib.lookup_into(dst, Fib::PortStateView{&up}, hops);
  return {hops.begin(), hops.end()};
}

TEST(Fib, LongestPrefixWins) {
  Fib fib;
  fib.install(make("10.11.0.0/16", {{1, Ipv4Addr(1, 1, 1, 1)}}));
  fib.install(make("10.11.3.0/24", {{2, Ipv4Addr(2, 2, 2, 2)}}));
  const auto hops = lookup(fib, Ipv4Addr(10, 11, 3, 9));
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].port, 2);
}

TEST(Fib, NoMatchReturnsEmpty) {
  Fib fib;
  fib.install(make("10.11.0.0/16", {{1, {}}}));
  EXPECT_TRUE(lookup(fib, Ipv4Addr(10, 12, 0, 1)).empty());
}

TEST(Fib, DeadNextHopFallsThroughToShorterPrefix) {
  // The F²Tree mechanism: /24 from OSPF dies, /16 static takes over,
  // then the /15.
  Fib fib;
  fib.install(make("10.11.3.0/24", {{0, {}}}, RouteSource::kOspf));
  fib.install(make("10.11.0.0/16", {{1, {}}}, RouteSource::kStatic));
  fib.install(make("10.10.0.0/15", {{2, {}}}, RouteSource::kStatic));

  const Ipv4Addr dst(10, 11, 3, 9);

  auto hops = lookup(fib, dst);
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].port, 0);

  hops = lookup(fib, dst, {0});
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].port, 1);

  hops = lookup(fib, dst, {0, 1});
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].port, 2);

  EXPECT_TRUE(lookup(fib, dst, {0, 1, 2}).empty());
}

TEST(Fib, EcmpFiltersDeadMembers) {
  Fib fib;
  fib.install(make("10.11.0.0/24", {{0, {}}, {1, {}}, {2, {}}}));
  const auto hops = lookup(fib, Ipv4Addr(10, 11, 0, 5), {1});
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[0].port, 0);
  EXPECT_EQ(hops[1].port, 2);
}

TEST(Fib, AdminDistancePrefersConnectedThenStatic) {
  Fib fib;
  fib.install(make("10.11.3.0/24", {{5, {}}}, RouteSource::kOspf));
  fib.install(make("10.11.3.0/24", {{6, {}}}, RouteSource::kConnected));
  fib.install(make("10.11.3.0/24", {{7, {}}}, RouteSource::kStatic));
  const auto hops = lookup(fib, Ipv4Addr(10, 11, 3, 1));
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].port, 6);
}

TEST(Fib, BestSourceDeadDoesNotFallToWorseSourceSamePrefix) {
  // Real FIBs install only the best source per prefix; a dead connected
  // route must not resurrect an OSPF route under the same prefix.
  Fib fib;
  fib.install(make("10.11.3.0/24", {{5, {}}}, RouteSource::kOspf));
  fib.install(make("10.11.3.0/24", {{6, {}}}, RouteSource::kConnected));
  const auto hops = lookup(fib, Ipv4Addr(10, 11, 3, 1), {6});
  EXPECT_TRUE(hops.empty());
}

TEST(Fib, ReplaceSourceSwapsAtomically) {
  Fib fib;
  fib.install(make("10.11.1.0/24", {{1, {}}}, RouteSource::kOspf));
  fib.install(make("10.11.2.0/24", {{2, {}}}, RouteSource::kOspf));
  fib.install(make("10.10.0.0/15", {{9, {}}}, RouteSource::kStatic));

  fib.apply_source_delta(RouteSource::kOspf,
                         {make("10.11.3.0/24", {{3, {}}})});
  EXPECT_TRUE(fib.find(Prefix::parse("10.11.1.0/24"), RouteSource::kOspf) ==
              std::nullopt);
  EXPECT_TRUE(fib.find(Prefix::parse("10.11.3.0/24"), RouteSource::kOspf)
                  .has_value());
  // Statics untouched.
  EXPECT_TRUE(fib.find(Prefix::parse("10.10.0.0/15"), RouteSource::kStatic)
                  .has_value());
  EXPECT_EQ(fib.size(), 2u);
}

TEST(Fib, InstallReplacesSamePrefixSameSource) {
  Fib fib;
  fib.install(make("10.11.1.0/24", {{1, {}}}));
  fib.install(make("10.11.1.0/24", {{2, {}}}));
  EXPECT_EQ(fib.size(), 1u);
  const auto hops = lookup(fib, Ipv4Addr(10, 11, 1, 1));
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].port, 2);
}

TEST(Fib, RemoveAndClear) {
  Fib fib;
  fib.install(make("10.11.1.0/24", {{1, {}}}));
  fib.install(make("10.11.2.0/24", {{2, {}}}));
  fib.remove(Prefix::parse("10.11.1.0/24"), RouteSource::kOspf);
  EXPECT_EQ(fib.size(), 1u);
  fib.remove(Prefix::parse("10.11.1.0/24"), RouteSource::kOspf);  // no-op
  fib.apply_source_delta(RouteSource::kOspf, {});  // clears the source
  EXPECT_EQ(fib.size(), 0u);
}

TEST(Fib, RejectsEmptyNextHops) {
  Fib fib;
  EXPECT_THROW(fib.install(Route{Prefix::parse("10.0.0.0/8"), {}, {}}),
               std::invalid_argument);
}

TEST(Fib, NextHopsSortedForDeterministicEcmp) {
  Fib fib;
  fib.install(make("10.11.0.0/24", {{3, {}}, {1, {}}, {2, {}}}));
  const auto hops = lookup(fib, Ipv4Addr(10, 11, 0, 1));
  ASSERT_EQ(hops.size(), 3u);
  EXPECT_EQ(hops[0].port, 1);
  EXPECT_EQ(hops[1].port, 2);
  EXPECT_EQ(hops[2].port, 3);
}

/// A group sorts once, at construction; copies and the FIB share its
/// array, and equality looks at the hops, not only the array.
TEST(NextHopGroups, CanonicalAtConstructionAndShared) {
  const NextHopGroup group{{3, {}}, {1, {}}, {2, {}}};
  ASSERT_EQ(group.size(), 3u);
  EXPECT_EQ(group[0].port, 1);
  EXPECT_EQ(group[2].port, 3);
  EXPECT_THROW(group.at(3), std::out_of_range);

  const NextHopGroup copy = group;
  EXPECT_EQ(copy.data(), group.data());
  const NextHopGroup rebuilt{{1, {}}, {2, {}}, {3, {}}};
  EXPECT_NE(rebuilt.data(), group.data());
  EXPECT_EQ(rebuilt, group);
  const NextHopGroup other{NextHop{1, {}}};
  EXPECT_NE(other, group);

  Fib fib;
  fib.install(Route{Prefix::parse("10.11.0.0/24"), group, RouteSource::kOspf});
  EXPECT_EQ(fib.find(Prefix::parse("10.11.0.0/24"), RouteSource::kOspf)
                ->next_hops.data(),
            group.data());
}

TEST(Fib, DefaultRouteMatchesEverything) {
  Fib fib;
  fib.install(make("0.0.0.0/0", {{7, {}}}));
  const auto hops = lookup(fib, Ipv4Addr(192, 168, 1, 1));
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].port, 7);
}

TEST(Fib, DumpIsSortedAndComplete) {
  Fib fib;
  fib.install(make("10.11.2.0/24", {{2, {}}}));
  fib.install(make("10.11.0.0/16", {{9, {}}}, RouteSource::kStatic));
  fib.install(make("10.11.1.0/24", {{1, {}}}));
  const auto routes = fib.dump();
  ASSERT_EQ(routes.size(), 3u);
  EXPECT_EQ(routes[0].prefix.str(), "10.11.0.0/16");
  EXPECT_EQ(routes[1].prefix.str(), "10.11.1.0/24");
  EXPECT_EQ(routes[2].prefix.str(), "10.11.2.0/24");
}

}  // namespace
}  // namespace f2t::routing
