#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "reference_fib.hpp"
#include "routing/fib.hpp"
#include "sim/random.hpp"

namespace f2t::routing {
namespace {

TEST(FibProperty, MatchesReferenceModelUnderRandomOps) {
  sim::Random rng(20260706);
  Fib fib;
  ReferenceFib reference;

  auto random_prefix = [&] {
    // Cluster prefixes so lookups actually overlap.
    const int length = static_cast<int>(rng.uniform_int(8, 32));
    const net::Ipv4Addr addr(10, static_cast<std::uint8_t>(rng.uniform_int(10, 13)),
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

  for (int step = 0; step < 3000; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 9));
    if (op < 6) {  // install
      Route route;
      route.prefix = random_prefix();
      route.source = random_source();
      const int count = static_cast<int>(rng.uniform_int(1, 4));
      std::vector<NextHop> hops;
      for (int h = 0; h < count; ++h) {
        hops.push_back(
            NextHop{static_cast<net::PortId>(rng.uniform_int(0, 7)), {}});
      }
      // Deduplicate ports; FIB and model share the group, hence its order.
      std::sort(hops.begin(), hops.end());
      hops.erase(std::unique(hops.begin(), hops.end()), hops.end());
      route.next_hops = std::move(hops);
      fib.install(route);
      reference.install(route);
    } else if (op < 8) {  // remove
      const auto prefix = random_prefix();
      const auto source = random_source();
      fib.remove(prefix, source);
      reference.remove(prefix, source);
    } else {  // lookup with a random subset of dead ports
      const std::uint64_t dead_mask =
          static_cast<std::uint64_t>(rng.uniform_int(0, 255));
      std::vector<bool> ports(8);
      for (std::size_t p = 0; p < ports.size(); ++p) {
        ports[p] = ((dead_mask >> p) & 1) == 0;
      }
      const Fib::PortStateView up{&ports};
      const net::Ipv4Addr dst(
          10, static_cast<std::uint8_t>(rng.uniform_int(10, 13)),
          static_cast<std::uint8_t>(rng.uniform_int(0, 7)),
          static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
      EXPECT_EQ(lookup(fib, dst, up), reference.lookup(dst, up))
          << "step " << step << " dst " << dst.str();
    }
  }
}

TEST(FibProperty, ReplaceSourceMatchesRemoveAllPlusInstalls) {
  sim::Random rng(77);
  Fib a;
  Fib b;
  // Seed both with identical statics.
  for (int i = 0; i < 10; ++i) {
    Route route;
    route.prefix = net::Prefix(
        net::Ipv4Addr(10, 11, static_cast<std::uint8_t>(i), 0), 24);
    route.source = RouteSource::kStatic;
    route.next_hops = {NextHop{static_cast<net::PortId>(i % 4), {}}};
    a.install(route);
    b.install(route);
  }
  // Fill with OSPF routes.
  std::vector<Route> ospf;
  for (int i = 0; i < 20; ++i) {
    Route route;
    route.prefix = net::Prefix(
        net::Ipv4Addr(10, 11, static_cast<std::uint8_t>(i), 0), 25);
    route.source = RouteSource::kOspf;
    route.next_hops = {NextHop{static_cast<net::PortId>(i % 8), {}}};
    ospf.push_back(route);
    a.install(route);
  }
  // a: installed one by one; b: the whole source in one delta.
  b.apply_source_delta(RouteSource::kOspf, ospf);
  EXPECT_EQ(a.size(), b.size());
  const Fib::PortStateView up{nullptr};  // every port up
  for (int i = 0; i < 20; ++i) {
    const net::Ipv4Addr dst(10, 11, static_cast<std::uint8_t>(i), 1);
    EXPECT_EQ(lookup(a, dst, up), lookup(b, dst, up));
  }
}

}  // namespace
}  // namespace f2t::routing
