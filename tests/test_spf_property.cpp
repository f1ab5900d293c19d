#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "core/runner.hpp"
#include "net/network.hpp"
#include "reference_spf.hpp"
#include "routing/spf.hpp"
#include "sim/simulator.hpp"

namespace f2t::routing {
namespace {

using net::Ipv4Addr;
using net::Prefix;

// ---------------------------------------------------------------------------
// Churn harness: a control-plane-only model of a real topology. Per-router
// directed adjacency sets drive synthetic LSAs into one Lsdb; every
// mutation is followed by a check of compute_spf against reference_spf.
// ---------------------------------------------------------------------------

struct Harness {
  // Physical (as-built) neighbor sets, the superset churn toggles within.
  std::map<Ipv4Addr, std::set<Ipv4Addr>> physical;
  // What each router's current LSA advertises (directed).
  std::map<Ipv4Addr, std::set<Ipv4Addr>> advertised;
  std::map<Ipv4Addr, std::vector<Prefix>> prefixes;
  std::map<Ipv4Addr, bool> extra_prefix;
  std::map<Ipv4Addr, std::uint64_t> sequence;
  std::vector<Ipv4Addr> routers;
  std::vector<std::pair<Ipv4Addr, Ipv4Addr>> links;  // undirected, u < v
  Lsdb lsdb;
  Ipv4Addr self;
  std::vector<LocalAdjacency> self_ports;  // physical router-facing ports
  std::vector<bool> port_up;
  std::uint64_t checks = 0;

  void emit(Ipv4Addr origin) {
    std::vector<Prefix> origin_prefixes = prefixes[origin];
    if (extra_prefix[origin]) {
      origin_prefixes.push_back(
          Prefix::host(Ipv4Addr(origin.value() | 0xE0000000u)));
    }
    lsdb.consider(make_lsa(
        origin,
        std::vector<Ipv4Addr>(advertised[origin].begin(),
                              advertised[origin].end()),
        std::move(origin_prefixes), ++sequence[origin]));
  }

  std::vector<LocalAdjacency> live_adjacency() const {
    std::vector<LocalAdjacency> out;
    for (std::size_t i = 0; i < self_ports.size(); ++i) {
      if (port_up[i]) out.push_back(self_ports[i]);
    }
    return out;
  }
};

Harness make_harness(const std::string& topo_name, int ports) {
  sim::Simulator sim(1);
  net::Network network(sim);
  const topo::BuiltTopology topo =
      core::topology_builder(topo_name, ports)(network);

  Harness h;
  for (const net::L3Switch* sw : const_cast<topo::BuiltTopology&>(topo)
                                     .all_switches()) {
    const Ipv4Addr id = sw->router_id();
    h.routers.push_back(id);
    auto& neighbors = h.physical[id];
    for (net::PortId p = 0; p < sw->port_count(); ++p) {
      const auto& info = sw->port(p);
      if (info.peer_is_switch) neighbors.insert(info.peer_addr);
    }
  }
  for (const auto& [sw, subnet] : topo.subnet_of_tor) {
    h.prefixes[sw->router_id()].push_back(subnet);
  }
  std::sort(h.routers.begin(), h.routers.end());
  for (const auto& [u, neighbors] : h.physical) {
    for (const Ipv4Addr v : neighbors) {
      if (u < v && h.physical[v].contains(u)) h.links.emplace_back(u, v);
    }
  }
  h.advertised = h.physical;

  // Compute from the first (lowest-id) ToR: it has both a rack prefix and
  // the deepest view of the tree.
  const net::L3Switch* self_sw = topo.tors.front();
  h.self = self_sw->router_id();
  for (net::PortId p = 0; p < self_sw->port_count(); ++p) {
    const auto& info = self_sw->port(p);
    if (info.peer_is_switch) {
      h.self_ports.push_back(LocalAdjacency{p, info.peer_addr});
    }
  }
  h.port_up.assign(h.self_ports.size(), true);

  for (const Ipv4Addr r : h.routers) h.emit(r);
  return h;  // the Testbed-free Network dies here; only value state remains
}

void check_equivalence(Harness& h) {
  ++h.checks;
  const auto adjacency = h.live_adjacency();
  const auto dense = sorted(compute_spf(h.lsdb, h.self, adjacency));
  const auto reference = sorted(reference_spf(h.lsdb, h.self, adjacency));
  ASSERT_EQ(dense.size(), reference.size()) << "check #" << h.checks;
  ASSERT_TRUE(dense == reference)
      << "compute_spf diverged from the reference at check #" << h.checks;
}

void churn(Harness& h, std::uint32_t seed, int iterations) {
  std::mt19937 rng(seed);
  const auto pick_link = [&] {
    return h.links[rng() % h.links.size()];
  };
  const auto pick_router = [&] {
    return h.routers[rng() % h.routers.size()];
  };
  for (int i = 0; i < iterations; ++i) {
    switch (rng() % 10) {
      case 0:
      case 1:
      case 2:
      case 3: {  // clean bidirectional link toggle, checked per direction
        const auto [a, b] = pick_link();
        if (h.advertised[a].contains(b) && h.advertised[b].contains(a)) {
          h.advertised[a].erase(b);
          h.emit(a);
          check_equivalence(h);
          h.advertised[b].erase(a);
        } else {
          h.advertised[a].insert(b);
          h.emit(a);
          check_equivalence(h);
          h.advertised[b].insert(a);
        }
        h.emit(b);
        check_equivalence(h);
        break;
      }
      case 4: {  // one-way toggle: asymmetric advertisement
        const auto [a, b] = pick_link();
        if (h.advertised[a].contains(b)) {
          h.advertised[a].erase(b);
        } else {
          h.advertised[a].insert(b);
        }
        h.emit(a);
        check_equivalence(h);
        break;
      }
      case 5: {  // prefix-only churn: no graph event
        const Ipv4Addr r = pick_router();
        h.extra_prefix[r] = !h.extra_prefix[r];
        h.emit(r);
        check_equivalence(h);
        break;
      }
      case 6: {  // computing-router port flap (adjacency-only change)
        if (!h.port_up.empty()) {
          const std::size_t p = rng() % h.port_up.size();
          h.port_up[p] = !h.port_up[p];
        }
        check_equivalence(h);
        break;
      }
      case 7: {  // partition / heal one router wholesale
        const Ipv4Addr r = pick_router();
        if (h.advertised[r].empty()) {
          h.advertised[r] = h.physical[r];
        } else {
          h.advertised[r].clear();
        }
        h.emit(r);
        check_equivalence(h);
        break;
      }
      default: {  // recompute with nothing changed at all
        check_equivalence(h);
        break;
      }
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

void run_churn(Harness& h, std::uint32_t seed, int iterations) {
  check_equivalence(h);  // initial build
  if (::testing::Test::HasFatalFailure()) return;
  churn(h, seed, iterations);
}

void run_property(const std::string& topo_name, int ports, std::uint32_t seed,
                  int iterations) {
  Harness h = make_harness(topo_name, ports);
  run_churn(h, seed, iterations);
}

TEST(SpfProperty, FatTreeChurn) { run_property("fat", 4, 0xF2A51u, 140); }

TEST(SpfProperty, Vl2Churn) { run_property("vl2", 4, 0x51E9u, 140); }

TEST(SpfProperty, LeafSpineChurn) {
  run_property("leafspine", 4, 0xBEEFu, 140);
}

TEST(SpfProperty, AspenChurn) { run_property("aspen", 4, 0xA59Eu, 140); }

// A computing router wider than one 64-bit first-hop word: self S has
// kWide neighbors N_i (every tenth over two parallel ports, and ports
// numbered against address order), middle routers M_j each reach the
// N_i with i % kWideMid == j, and every destination D_k reaches every
// M_j. Each D_k's route therefore fans out over all kWide neighbors,
// built by unions that span every word of the set.
constexpr int kWide = 100;
constexpr int kWideMid = 4;
constexpr int kWideDst = 3;

Ipv4Addr wide_addr(int block, int i) {
  return Ipv4Addr(10, static_cast<std::uint8_t>(block), 0,
                  static_cast<std::uint8_t>(i));
}
Ipv4Addr wide_n(int i) { return wide_addr(14, i); }
Ipv4Addr wide_m(int j) { return wide_addr(15, j); }
Prefix wide_prefix(int k) {
  return Prefix(Ipv4Addr(10, 11, static_cast<std::uint8_t>(k), 0), 24);
}

Harness make_wide_harness() {
  Harness h;
  h.self = wide_addr(13, 1);
  const auto connect = [&](Ipv4Addr a, Ipv4Addr b) {
    h.physical[a].insert(b);
    h.physical[b].insert(a);
    h.links.emplace_back(std::min(a, b), std::max(a, b));
  };
  net::PortId port = 0;
  for (int i = kWide - 1; i >= 0; --i) {
    connect(h.self, wide_n(i));
    h.self_ports.push_back(LocalAdjacency{port++, wide_n(i)});
    if (i % 10 == 0) {
      h.self_ports.push_back(LocalAdjacency{port++, wide_n(i)});
    }
    connect(wide_n(i), wide_m(i % kWideMid));
  }
  for (int k = 0; k < kWideDst; ++k) {
    const Ipv4Addr d = wide_addr(16, k);
    for (int j = 0; j < kWideMid; ++j) connect(d, wide_m(j));
    h.prefixes[d].push_back(wide_prefix(k));
  }
  for (const auto& [router, neighbors] : h.physical) {
    h.routers.push_back(router);
  }
  h.advertised = h.physical;
  h.port_up.assign(h.self_ports.size(), true);
  for (const Ipv4Addr r : h.routers) h.emit(r);
  return h;
}

std::size_t fan_out(const Harness& h, const Prefix& prefix) {
  for (const Route& r : compute_spf(h.lsdb, h.self, h.live_adjacency())) {
    if (r.prefix == prefix) return r.next_hops.size();
  }
  return 0;
}

TEST(SpfProperty, FanOutBeyondOneFirstHopWord) {
  Harness h = make_wide_harness();
  check_equivalence(h);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  const std::size_t all_ports = h.self_ports.size();
  for (int k = 0; k < kWideDst; ++k) {
    EXPECT_EQ(fan_out(h, wide_prefix(k)), all_ports);
  }

  // Cut N_70 - M_2, one direction per LSA. It is N_70's only link onward
  // (N_70 sits behind two parallel ports, in the set's second word), so
  // every destination loses those next hops, then regains them.
  const Ipv4Addr n = wide_n(70);
  const Ipv4Addr m = wide_m(70 % kWideMid);
  const auto toggle = [&](Ipv4Addr from, Ipv4Addr to, bool up) {
    if (up) {
      h.advertised[from].insert(to);
    } else {
      h.advertised[from].erase(to);
    }
    h.emit(from);
    check_equivalence(h);
  };
  toggle(n, m, false);
  toggle(m, n, false);
  EXPECT_EQ(fan_out(h, wide_prefix(0)), all_ports - 2);
  toggle(n, m, true);
  toggle(m, n, true);
  EXPECT_EQ(fan_out(h, wide_prefix(0)), all_ports);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  run_churn(h, 0x64B17u, 140);
}

/// compute_spf from every router of seeded random databases of 20–200
/// routers, with one-way links, an isolated router and a hub (router 0)
/// that lists three in four of the others, equals reference_spf. A
/// router's adjacency is its LSA's links, one port each, so above about
/// 90 routers the hub's first-hop sets span two words.
TEST(SpfProperty, BfsMatchesReferenceOnRandomDatabases) {
  std::mt19937 rng(0xBF5u);
  int wide_hubs = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 20 + static_cast<int>(rng() % 181);
    SCOPED_TRACE("trial " + std::to_string(trial) + ", " + std::to_string(n) +
                 " routers");
    const RandomDb random(rng, n, /*hub=*/true);
    for (int x = 0; x < n; ++x) {
      const Ipv4Addr self = random.routers[x];
      std::vector<LocalAdjacency> adjacency;
      for (const Ipv4Addr peer : random.db.find(self)->links) {
        adjacency.push_back(
            LocalAdjacency{static_cast<net::PortId>(adjacency.size()), peer});
      }
      if (x == 0 && adjacency.size() > 64) ++wide_hubs;
      ASSERT_TRUE(sorted(compute_spf(random.db, self, adjacency)) ==
                  sorted(reference_spf(random.db, self, adjacency)))
          << "from router " << x;
    }
  }
  EXPECT_GT(wide_hubs, 0);
}

// ---------------------------------------------------------------------------
// Directed unit test for the dense graph's two-way flags.
// ---------------------------------------------------------------------------

const Ipv4Addr A(10, 12, 0, 1);
const Ipv4Addr B(10, 12, 1, 1);
const Ipv4Addr C(10, 12, 2, 1);
const Prefix kDst = Prefix::parse("10.11.9.0/24");

TEST(LinkStateGraph, AsymmetricLinkIsNotTwoWay) {
  // B advertises C but C does not advertise B: the precomputed edge exists
  // one-way only, and SPF must not route through it.
  Lsdb db;
  db.consider(make_lsa(A, {B}));
  db.consider(make_lsa(B, {A, C}));
  db.consider(make_lsa(C, {}, {kDst}));

  const LinkStateGraph& g = db.graph();
  const RouterIndex bi = g.index_of(B);
  const RouterIndex ci = g.index_of(C);
  ASSERT_NE(bi, kNoRouter);
  ASSERT_NE(ci, kNoRouter);
  const DenseEdge* bc = g.find_edge(bi, ci);
  ASSERT_NE(bc, nullptr);
  EXPECT_FALSE(bc->two_way);
  EXPECT_EQ(g.find_edge(ci, bi), nullptr);

  const std::vector<LocalAdjacency> adjacency{{0, B}};
  EXPECT_TRUE(compute_spf(db, A, adjacency).empty());
  EXPECT_FALSE(lsdb_reachable(db, A, C));

  // C answering back completes the pair: the same edge flips to two-way
  // and the route appears.
  db.consider(make_lsa(C, {B}, {kDst}, 2));
  const DenseEdge* bc2 = g.find_edge(bi, ci);
  ASSERT_NE(bc2, nullptr);
  EXPECT_TRUE(bc2->two_way);
  const auto routes = compute_spf(db, A, adjacency);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_EQ(routes[0].prefix, kDst);
  EXPECT_TRUE(lsdb_reachable(db, A, C));
}

}  // namespace
}  // namespace f2t::routing
