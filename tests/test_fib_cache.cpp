/// The forwarding fast path: SmallVec, the allocation-free lookup, and
/// the resolved-route cache. The property test is the load-bearing one —
/// it asserts that the cached resolution is *observably identical* to the
/// uncached walk under randomized interleavings of installs, removals,
/// whole-source deltas, port flaps and queries, i.e. that generation-based
/// invalidation never serves a stale answer. Staleness here would not be
/// a perf bug but a correctness bug: the paper's backup fall-through
/// (§II-B) must engage on the first lookup after detection, with zero FIB
/// writes.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "routing/fib.hpp"
#include "routing/route_cache.hpp"
#include "routing/smallvec.hpp"
#include "sim/random.hpp"

namespace f2t::routing {
namespace {

std::vector<NextHop> to_vector(const Fib::HopVec& hops) {
  return std::vector<NextHop>(hops.begin(), hops.end());
}

Route make_route(net::Prefix prefix, std::vector<NextHop> hops,
                 RouteSource source) {
  Route r;
  r.prefix = prefix;
  r.next_hops = std::move(hops);
  r.source = source;
  return r;
}

TEST(SmallVec, StaysInlineUpToCapacityThenSpills) {
  SmallVec<int, 4> v;
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_FALSE(v.on_heap());
  EXPECT_EQ(v.size(), 4u);
  v.push_back(4);
  EXPECT_TRUE(v.on_heap());
  EXPECT_EQ(v.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(v[i], i);
  // clear keeps the spilled capacity so reuse stays allocation-free.
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_GE(v.capacity(), 5u);
}

TEST(SmallVec, CopyAndMoveSemantics) {
  SmallVec<int, 2> a;
  for (int i = 0; i < 5; ++i) a.push_back(i);
  SmallVec<int, 2> b = a;  // copy
  EXPECT_EQ(a, b);
  SmallVec<int, 2> c = std::move(a);  // steals the heap buffer
  EXPECT_EQ(b, c);
  a = c;  // reuse after move
  EXPECT_EQ(a, b);
  SmallVec<int, 2> inline_src;
  inline_src.push_back(7);
  SmallVec<int, 2> d = std::move(inline_src);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], 7);
}

TEST(FibGeneration, BumpsOnEveryWrite) {
  Fib fib;
  const auto g0 = fib.generation();
  fib.install(make_route(net::Prefix::parse("10.11.3.0/24"),
                         {NextHop{0, {}}}, RouteSource::kOspf));
  const auto g1 = fib.generation();
  EXPECT_GT(g1, g0);
  fib.install(make_route(net::Prefix::parse("10.11.0.0/16"),
                         {NextHop{1, {}}}, RouteSource::kStatic));
  const auto g2 = fib.generation();
  EXPECT_GT(g2, g1);
  fib.remove(net::Prefix::parse("10.11.3.0/24"), RouteSource::kOspf);
  const auto g3 = fib.generation();
  EXPECT_GT(g3, g2);
  fib.apply_source_delta(
      RouteSource::kOspf,
      {make_route(net::Prefix::parse("10.11.4.0/24"), {NextHop{2, {}}},
                  RouteSource::kOspf)});
  const auto g4 = fib.generation();
  EXPECT_GT(g4, g3);
  fib.apply_source_delta(RouteSource::kOspf, {});
  EXPECT_GT(fib.generation(), g4);
}

TEST(FibLookupInto, FiltersDeadMembersAndFallsThrough) {
  Fib fib;
  fib.install(make_route(net::Prefix::parse("10.11.3.0/24"),
                         {NextHop{0, {}}, NextHop{1, {}}},
                         RouteSource::kOspf));
  fib.install(make_route(net::Prefix::parse("10.11.0.0/16"),
                         {NextHop{2, {}}}, RouteSource::kStatic));
  const net::Ipv4Addr dst(10, 11, 3, 9);

  std::vector<bool> ports(8, true);
  Fib::HopVec hops;
  fib.lookup_into(dst, Fib::PortStateView{&ports}, hops);
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[0].port, 0);
  EXPECT_EQ(hops[1].port, 1);

  ports[0] = false;  // one ECMP member dead: filtered, no fall-through
  hops.clear();
  fib.lookup_into(dst, Fib::PortStateView{&ports}, hops);
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].port, 1);

  ports[1] = false;  // whole /24 dead: falls through to the /16 static
  hops.clear();
  fib.lookup_into(dst, Fib::PortStateView{&ports}, hops);
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].port, 2);

  // Ports beyond the vector's size count as up (lazily-grown state).
  Fib::HopVec far;
  Fib fib2;
  fib2.install(make_route(net::Prefix::parse("10.11.3.0/24"),
                          {NextHop{200, {}}}, RouteSource::kOspf));
  fib2.lookup_into(dst, Fib::PortStateView{&ports}, far);
  ASSERT_EQ(far.size(), 1u);
  EXPECT_EQ(far[0].port, 200);
}

// Generation-invalidation correctness: port-down → lookup → port-up must
// return the pre-failure next hops again, and the backup fall-through
// must engage *through the cache* with zero FIB writes.
TEST(ResolvedRouteCache, PortFlapInvalidatesAndRestores) {
  Fib fib;
  fib.install(make_route(net::Prefix::parse("10.11.3.0/24"),
                         {NextHop{0, {}}, NextHop{1, {}}},
                         RouteSource::kOspf));
  fib.install(make_route(net::Prefix::parse("10.11.0.0/16"),
                         {NextHop{4, {}}}, RouteSource::kStatic));
  const net::Ipv4Addr dst(10, 11, 3, 9);

  ResolvedRouteCache cache;
  std::vector<bool> ports(8, true);
  const Fib::PortStateView view{&ports};
  std::uint64_t epoch = 0;

  const auto healthy = to_vector(cache.resolve(fib, dst, view, epoch));
  ASSERT_EQ(healthy.size(), 2u);
  // Second resolve with unchanged state is a pure cache hit.
  const auto hits_before = cache.hits();
  EXPECT_EQ(to_vector(cache.resolve(fib, dst, view, epoch)), healthy);
  EXPECT_EQ(cache.hits(), hits_before + 1);

  // Detection: both /24 members dead. No FIB write — only the epoch
  // moves — yet the very next resolve must serve the /16 backup.
  const auto generation_before = fib.generation();
  ports[0] = false;
  ports[1] = false;
  ++epoch;
  const auto rerouted = to_vector(cache.resolve(fib, dst, view, epoch));
  EXPECT_EQ(fib.generation(), generation_before) << "fall-through wrote FIB";
  ASSERT_EQ(rerouted.size(), 1u);
  EXPECT_EQ(rerouted[0].port, 4);

  // Recovery: ports come back; the pre-failure hops come back with them.
  ports[0] = true;
  ports[1] = true;
  ++epoch;
  EXPECT_EQ(to_vector(cache.resolve(fib, dst, view, epoch)), healthy);
}

TEST(ResolvedRouteCache, FibWriteInvalidates) {
  Fib fib;
  fib.install(make_route(net::Prefix::parse("10.11.3.0/24"),
                         {NextHop{0, {}}}, RouteSource::kOspf));
  const net::Ipv4Addr dst(10, 11, 3, 9);
  ResolvedRouteCache cache;
  const Fib::PortStateView view{nullptr};

  ASSERT_EQ(to_vector(cache.resolve(fib, dst, view, 0)).size(), 1u);
  // A longer prefix arrives: the cached /24 answer must not survive.
  fib.install(make_route(net::Prefix::parse("10.11.3.0/25"),
                         {NextHop{6, {}}}, RouteSource::kOspf));
  const auto hops = to_vector(cache.resolve(fib, dst, view, 0));
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].port, 6);
}

// The tentpole property: cached and uncached lookups agree under
// randomized interleavings of installs, removals, whole-source
// replacements, port flaps and queries.
TEST(ResolvedRouteCacheProperty, CachedEqualsUncachedUnderChurn) {
  sim::Random rng(20260807);
  Fib fib;
  ResolvedRouteCache cache;
  std::vector<bool> ports(8, true);
  std::uint64_t epoch = 0;

  auto random_prefix = [&] {
    const int length = static_cast<int>(rng.uniform_int(8, 32));
    const net::Ipv4Addr addr(
        10, static_cast<std::uint8_t>(rng.uniform_int(10, 13)),
        static_cast<std::uint8_t>(rng.uniform_int(0, 7)),
        static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
    return net::Prefix(addr, length);
  };
  auto random_source = [&] {
    switch (rng.uniform_int(0, 2)) {
      case 0: return RouteSource::kConnected;
      case 1: return RouteSource::kStatic;
      default: return RouteSource::kOspf;
    }
  };
  auto random_route = [&](RouteSource source) {
    Route route;
    route.prefix = random_prefix();
    route.source = source;
    const int count = static_cast<int>(rng.uniform_int(1, 6));
    std::vector<NextHop> hops;
    for (int h = 0; h < count; ++h) {
      hops.push_back(
          NextHop{static_cast<net::PortId>(rng.uniform_int(0, 7)), {}});
    }
    std::sort(hops.begin(), hops.end());
    hops.erase(std::unique(hops.begin(), hops.end()), hops.end());
    route.next_hops = std::move(hops);
    return route;
  };

  int queries = 0;
  for (int step = 0; step < 5000; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 11));
    if (op < 5) {  // install
      fib.install(random_route(random_source()));
    } else if (op < 7) {  // remove
      fib.remove(random_prefix(), random_source());
    } else if (op == 7) {  // whole-source replacement (SPF reinstall)
      std::vector<Route> routes;
      const int n = static_cast<int>(rng.uniform_int(0, 5));
      for (int i = 0; i < n; ++i) routes.push_back(random_route(RouteSource::kOspf));
      // A source's routes are keyed by prefix; drop duplicates.
      std::sort(routes.begin(), routes.end(),
                [](const Route& a, const Route& b) { return a.prefix < b.prefix; });
      routes.erase(std::unique(routes.begin(), routes.end(),
                               [](const Route& a, const Route& b) {
                                 return a.prefix == b.prefix;
                               }),
                   routes.end());
      fib.apply_source_delta(RouteSource::kOspf, routes);
    } else if (op == 8) {  // port flap (detection event: epoch only)
      const auto p = static_cast<std::size_t>(rng.uniform_int(0, 7));
      ports[p] = !ports[p];
      ++epoch;
    } else {  // query: cached must equal a fresh uncached walk
      ++queries;
      const net::Ipv4Addr dst(
          10, static_cast<std::uint8_t>(rng.uniform_int(10, 13)),
          static_cast<std::uint8_t>(rng.uniform_int(0, 7)),
          static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
      Fib::HopVec walked;
      fib.lookup_into(dst, Fib::PortStateView{&ports}, walked);
      const auto uncached = to_vector(walked);
      const auto cached = to_vector(
          cache.resolve(fib, dst, Fib::PortStateView{&ports}, epoch));
      ASSERT_EQ(cached, uncached)
          << "step " << step << " dst " << dst.str() << " epoch " << epoch;
      // Immediate re-query: served from the cache (a hit) and still equal.
      const auto re_cached = to_vector(
          cache.resolve(fib, dst, Fib::PortStateView{&ports}, epoch));
      ASSERT_EQ(re_cached, uncached) << "hit path diverged at step " << step;
    }
  }
  ASSERT_GT(queries, 500);
  // The churn must actually have exercised both cache paths.
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
}

}  // namespace
}  // namespace f2t::routing
