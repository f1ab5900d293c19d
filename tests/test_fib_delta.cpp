#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <vector>

#include "core/runner.hpp"
#include "reference_fib.hpp"
#include "routing/fib.hpp"

namespace f2t::routing {
namespace {

using net::Ipv4Addr;
using net::Prefix;

Route make(const char* prefix, std::vector<NextHop> hops,
           RouteSource source = RouteSource::kOspf) {
  return Route{Prefix::parse(prefix), std::move(hops), source};
}

void install_all(Fib& fib, std::vector<Route> routes) {
  for (Route& route : routes) fib.install(std::move(route));
}

TEST(FibDelta, IdenticalSetIsANoopAndKeepsGeneration) {
  Fib fib;
  install_all(fib, {make("10.11.0.0/24", {{0, Ipv4Addr(1, 1, 1, 1)}}),
                    make("10.11.1.0/24", {{1, Ipv4Addr(2, 2, 2, 2)},
                                          {2, Ipv4Addr(3, 3, 3, 3)}})});
  const std::uint64_t generation = fib.generation();
  const auto before = fib.dump();

  // Same set, different route order and unsorted next hops: still a no-op
  // after canonicalization.
  const std::size_t touched = fib.apply_source_delta(
      RouteSource::kOspf,
      {make("10.11.1.0/24",
            {{2, Ipv4Addr(3, 3, 3, 3)}, {1, Ipv4Addr(2, 2, 2, 2)}}),
       make("10.11.0.0/24", {{0, Ipv4Addr(1, 1, 1, 1)}})});
  EXPECT_EQ(touched, 0u);
  EXPECT_EQ(fib.generation(), generation)
      << "a no-op delta must not invalidate resolved-route caches";
  EXPECT_TRUE(fib.dump() == before);
}

TEST(FibDelta, InstallsChangesAndRemovesStale) {
  Fib fib;
  install_all(fib, {make("10.11.0.0/24", {{0, Ipv4Addr(1, 1, 1, 1)}}),
                    make("10.11.1.0/24", {{1, Ipv4Addr(2, 2, 2, 2)}}),
                    make("10.11.2.0/24", {{2, Ipv4Addr(3, 3, 3, 3)}})});
  const std::uint64_t generation = fib.generation();

  // Keep /24#0 unchanged, rehome /24#1, drop /24#2, add /24#3.
  const std::size_t touched = fib.apply_source_delta(
      RouteSource::kOspf,
      {make("10.11.0.0/24", {{0, Ipv4Addr(1, 1, 1, 1)}}),
       make("10.11.1.0/24", {{3, Ipv4Addr(4, 4, 4, 4)}}),
       make("10.11.3.0/24", {{4, Ipv4Addr(5, 5, 5, 5)}})});
  EXPECT_EQ(touched, 3u);  // one reinstall, one removal, one new install
  EXPECT_GT(fib.generation(), generation);

  Fib want;
  install_all(want, {make("10.11.0.0/24", {{0, Ipv4Addr(1, 1, 1, 1)}}),
                     make("10.11.1.0/24", {{3, Ipv4Addr(4, 4, 4, 4)}}),
                     make("10.11.3.0/24", {{4, Ipv4Addr(5, 5, 5, 5)}})});
  EXPECT_TRUE(fib.dump() == want.dump());
}

TEST(FibDelta, OtherSourcesAreUntouched) {
  Fib fib;
  fib.install(make("10.11.0.0/16", {{7, Ipv4Addr(9, 9, 9, 9)}},
                   RouteSource::kStatic));
  fib.install(make("10.11.0.0/24", {{0, Ipv4Addr(1, 1, 1, 1)}}));

  // The OSPF set empties out; the static backup must survive.
  const std::size_t touched =
      fib.apply_source_delta(RouteSource::kOspf, {});
  EXPECT_EQ(touched, 1u);
  const auto dump = fib.dump();
  ASSERT_EQ(dump.size(), 1u);
  EXPECT_EQ(dump[0].source, RouteSource::kStatic);
  EXPECT_EQ(dump[0].prefix, Prefix::parse("10.11.0.0/16"));
}

TEST(FibDelta, RejectsEmptyNextHopsLikeInstall) {
  Fib fib;
  EXPECT_THROW(fib.apply_source_delta(RouteSource::kOspf,
                                      {make("10.11.0.0/24", {})}),
               std::invalid_argument);

  // A rejected set writes nothing, not even the valid routes ahead of the
  // bad one: no install, no generation bump, no change hook.
  fib.install(make("10.11.0.0/24", {{0, Ipv4Addr(1, 1, 1, 1)}}));
  const auto before = fib.dump();
  const std::uint64_t generation = fib.generation();
  int hook_calls = 0;
  fib.add_change_hook([&] { ++hook_calls; });
  EXPECT_THROW(
      fib.apply_source_delta(
          RouteSource::kOspf,
          {make("10.11.1.0/24", {{1, Ipv4Addr(2, 2, 2, 2)}}),
           make("10.11.2.0/24", {})}),
      std::invalid_argument);
  EXPECT_TRUE(fib.dump() == before);
  EXPECT_EQ(fib.generation(), generation);
  EXPECT_EQ(hook_calls, 0);
}

/// The slots, one per (prefix, source), that one dump has and the other
/// lacks, or that hold other next hops in each.
std::size_t differing_slots(const std::vector<Route>& a,
                            const std::vector<Route>& b) {
  std::map<std::pair<Prefix, RouteSource>, NextHopGroup> slots;
  for (const Route& r : a) {
    slots.emplace(std::pair(r.prefix, r.source), r.next_hops);
  }
  std::size_t differ = 0;
  for (const Route& r : b) {
    const auto it = slots.find(std::pair(r.prefix, r.source));
    if (it == slots.end()) {
      ++differ;
      continue;
    }
    if (!(it->second == r.next_hops)) ++differ;
    slots.erase(it);
  }
  return differ + slots.size();
}

// Property: after any sequence of deltas, each for one of the three
// sources, the FIB is indistinguishable from a fresh one holding every
// source's latest full set — in its dump, its size and its lookups — and
// it writes exactly the slots that differ between its dumps before and
// after, each bumping the generation and firing the hooks once. About
// one round in four re-applies a source's previous prefixes with a few
// groups redrawn: a delta that changes groups only.
TEST(FibDelta, EquivalentToReplaceSourceUnderChurn) {
  std::mt19937 rng(0xD17Au);
  const RouteSource sources[] = {RouteSource::kConnected,
                                 RouteSource::kStatic, RouteSource::kOspf};
  // Every length 0..32, with nested prefixes of one address so lookups
  // fall through, drawn by every source: one prefix often carries a
  // static and an OSPF route at once.
  std::vector<Prefix> pool;
  for (int length = 0; length <= 32; ++length) {
    pool.push_back(Prefix(Ipv4Addr(10, 20, 3, 77), length));
    pool.push_back(Prefix(Ipv4Addr(10, 20, std::uint8_t(rng() % 8),
                                   std::uint8_t(rng())),
                          length));
  }
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  const auto random_hops = [&] {
    std::vector<NextHop> hops;
    const int width = 1 + static_cast<int>(rng() % 3);
    for (int hop = 0; hop < width; ++hop) {
      const auto port = static_cast<net::PortId>(rng() % 4);
      hops.push_back(NextHop{port, Ipv4Addr(10, 250, 0, port)});
    }
    return hops;
  };

  Fib delta_fib;
  int hook_calls = 0;
  delta_fib.add_change_hook([&] { ++hook_calls; });
  std::map<RouteSource, std::vector<Route>> latest;
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE(round);
    const RouteSource source = sources[rng() % 3];
    std::vector<Route> desired;
    if (const auto it = latest.find(source);
        it != latest.end() && !it->second.empty() && rng() % 4 == 0) {
      desired = it->second;
      for (int redraw = 0; redraw < 3; ++redraw) {
        desired[rng() % desired.size()].next_hops = random_hops();
      }
    } else {
      for (const Prefix& prefix : pool) {
        if (rng() % 3 != 0) continue;  // prefix absent this round
        desired.push_back(Route{prefix, random_hops(), source});
      }
    }
    if (!desired.empty() && rng() % 4 == 0) {
      // A prefix named twice: the later route must win.
      Route twice{desired[rng() % desired.size()].prefix, random_hops(),
                  source};
      desired.insert(desired.begin() + static_cast<std::ptrdiff_t>(
                                           rng() % (desired.size() + 1)),
                     std::move(twice));
    }
    latest[source] = desired;

    Fib replace_fib;
    ReferenceFib reference;
    for (const auto& [s, routes] : latest) {
      for (const Route& route : routes) {
        replace_fib.install(route);
        reference.install(route);
      }
    }
    const std::uint64_t generation = delta_fib.generation();
    const int hooks_before = hook_calls;
    const std::vector<Route> dump_before = delta_fib.dump();
    const std::size_t touched =
        delta_fib.apply_source_delta(source, std::move(desired));
    ASSERT_EQ(touched, differing_slots(dump_before, delta_fib.dump()));
    ASSERT_TRUE(delta_fib.dump() == replace_fib.dump());
    ASSERT_EQ(delta_fib.size(), replace_fib.size());
    ASSERT_EQ(delta_fib.generation() - generation, touched);
    ASSERT_EQ(static_cast<std::size_t>(hook_calls - hooks_before), touched);

    for (int probe = 0; probe < 16; ++probe) {
      std::vector<bool> ports(4);
      for (std::size_t p = 0; p < ports.size(); ++p) ports[p] = rng() % 4 != 0;
      const Fib::PortStateView up{&ports};
      const Ipv4Addr dst = probe % 2 == 0
                               ? Ipv4Addr(10, 20, 3, 77)
                               : Ipv4Addr(10, 20, std::uint8_t(rng() % 8),
                                          std::uint8_t(rng()));
      ASSERT_EQ(lookup(delta_fib, dst, up), reference.lookup(dst, up))
          << "dst " << dst.str();
    }
  }
}

// ---------------------------------------------------------------------------
// Install-churn regression: a recompute that does not change the route set
// must not count as a FIB install (pinned counter semantics) on any of the
// three control planes.
// ---------------------------------------------------------------------------

TEST(InstallChurn, OspfNoopRecomputeCountsAsNoop) {
  core::TestbedConfig config;
  core::Testbed bed(core::topology_builder("fat", 4), config);
  bed.converge();

  net::L3Switch* sw = bed.topo().tors.front();
  Ospf& ospf = bed.ospf_of(*sw);
  const auto converged = ospf.counters();
  EXPECT_GT(converged.fib_installs, 0u);

  const std::uint64_t generation = sw->fib().generation();
  ospf.run_spf_now();  // nothing changed since convergence
  const auto after = ospf.counters();
  EXPECT_EQ(after.fib_installs, converged.fib_installs)
      << "a no-op recompute must not count as an install";
  EXPECT_EQ(after.fib_noop_installs, converged.fib_noop_installs + 1);
  EXPECT_EQ(after.spf_runs, converged.spf_runs + 1);
  EXPECT_EQ(sw->fib().generation(), generation)
      << "a no-op recompute must not rewrite the FIB";
}

TEST(InstallChurn, PathVectorNoopReconvergeCountsAsNoop) {
  core::TestbedConfig config;
  config.control_plane = core::ControlPlane::kPathVector;
  core::Testbed bed(core::topology_builder("fat", 4), config);
  bed.converge();

  net::L3Switch* sw = bed.topo().tors.front();
  const auto converged = bed.path_vector_of(*sw).counters();
  const std::uint64_t generation = sw->fib().generation();

  bed.converge();  // identical fixed point: every install is a no-op
  const auto after = bed.path_vector_of(*sw).counters();
  EXPECT_EQ(after.fib_installs, converged.fib_installs);
  EXPECT_EQ(after.fib_noop_installs, converged.fib_noop_installs + 1);
  EXPECT_EQ(sw->fib().generation(), generation);
}

TEST(InstallChurn, CentralNoopConvergeLeavesFibAlone) {
  core::TestbedConfig config;
  config.control_plane = core::ControlPlane::kCentral;
  core::Testbed bed(core::topology_builder("fat", 4), config);
  bed.converge();

  net::L3Switch* sw = bed.topo().tors.front();
  const std::uint64_t generation = sw->fib().generation();
  bed.converge();
  EXPECT_EQ(sw->fib().generation(), generation)
      << "an unchanged central recompute must not rewrite switch FIBs";
}

}  // namespace
}  // namespace f2t::routing
