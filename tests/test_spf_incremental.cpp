#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <queue>
#include <random>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/runner.hpp"
#include "net/network.hpp"
#include "routing/smallvec.hpp"
#include "routing/spf.hpp"
#include "sim/simulator.hpp"

namespace f2t::routing {
namespace {

using net::Ipv4Addr;
using net::Prefix;

// ---------------------------------------------------------------------------
// Reference implementation: the original hash-based compute_spf, copied
// verbatim from before the dense-graph rewrite. The property suite below
// checks three-way agreement on every churn step:
//
//   SpfSolver::run  ==  compute_spf (dense)  ==  reference_spf (this)
//
// so a regression in either the dense rewrite or the incremental repair
// shows up as a route-set divergence from this known-good baseline.
// ---------------------------------------------------------------------------

using RefFirstHopSet = SmallVec<std::uint16_t, 8>;

void ref_insert_first_hop(RefFirstHopSet& set, std::uint16_t index) {
  const auto it = std::lower_bound(set.begin(), set.end(), index);
  if (it != set.end() && *it == index) return;
  const auto pos = static_cast<std::size_t>(it - set.begin());
  set.push_back(index);
  std::rotate(set.begin() + pos, set.end() - 1, set.end());
}

void ref_union_first_hops(RefFirstHopSet& into, const RefFirstHopSet& from) {
  for (const std::uint16_t index : from) ref_insert_first_hop(into, index);
}

struct RefNodeState {
  int dist = std::numeric_limits<int>::max();
  RefFirstHopSet first_hops;
};

bool ref_two_way(const Lsdb& lsdb, Ipv4Addr u, Ipv4Addr v) {
  const Lsa* lv = lsdb.find(v);
  if (lv == nullptr) return false;
  return std::any_of(lv->links.begin(), lv->links.end(),
                     [&](const LsaLink& l) { return l.neighbor == u; });
}

std::vector<Route> reference_spf(const Lsdb& lsdb, Ipv4Addr self,
                                 const std::vector<LocalAdjacency>& adjacency) {
  std::unordered_map<Ipv4Addr, std::vector<net::PortId>> ports_of;
  for (const LocalAdjacency& adj : adjacency) {
    ports_of[adj.neighbor].push_back(adj.port);
  }

  std::vector<Ipv4Addr> self_neighbors;
  self_neighbors.reserve(ports_of.size());
  for (const auto& [neighbor, ports] : ports_of) {
    self_neighbors.push_back(neighbor);
  }
  std::sort(self_neighbors.begin(), self_neighbors.end());
  std::unordered_map<Ipv4Addr, std::uint16_t> neighbor_index;
  neighbor_index.reserve(self_neighbors.size());
  for (std::size_t i = 0; i < self_neighbors.size(); ++i) {
    neighbor_index[self_neighbors[i]] = static_cast<std::uint16_t>(i);
  }

  std::unordered_map<Ipv4Addr, RefNodeState> state;
  state[self].dist = 0;

  using QueueItem = std::pair<int, Ipv4Addr>;
  auto cmp = [](const QueueItem& a, const QueueItem& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second > b.second;
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>, decltype(cmp)> queue(
      cmp);
  queue.push({0, self});
  std::unordered_set<Ipv4Addr> done;

  while (!queue.empty()) {
    const auto [dist, u] = queue.top();
    queue.pop();
    if (!done.insert(u).second) continue;
    const Lsa* lsa = lsdb.find(u);
    if (lsa == nullptr) continue;
    for (const LsaLink& edge : lsa->links) {
      const Ipv4Addr v = edge.neighbor;
      if (u == self) {
        if (!ports_of.contains(v)) continue;
      } else if (!ref_two_way(lsdb, u, v)) {
        continue;
      }
      const int ndist = dist + edge.cost;
      RefNodeState& sv = state[v];
      if (ndist < sv.dist) {
        sv.dist = ndist;
        sv.first_hops.clear();
      }
      if (ndist == sv.dist) {
        if (u == self) {
          ref_insert_first_hop(sv.first_hops, neighbor_index.at(v));
        } else {
          ref_union_first_hops(sv.first_hops, state[u].first_hops);
        }
        queue.push({ndist, v});
      }
    }
  }

  std::vector<Route> routes;
  for (const auto& [router, node_state] : state) {
    if (router == self || node_state.first_hops.empty()) continue;
    const Lsa* lsa = lsdb.find(router);
    if (lsa == nullptr || lsa->prefixes.empty()) continue;
    std::vector<NextHop> next_hops;
    for (const std::uint16_t hop_index : node_state.first_hops) {
      const Ipv4Addr hop = self_neighbors[hop_index];
      const auto it = ports_of.find(hop);
      if (it == ports_of.end()) continue;
      for (const net::PortId port : it->second) {
        next_hops.push_back(NextHop{port, hop});
      }
    }
    if (next_hops.empty()) continue;
    for (const Prefix& prefix : lsa->prefixes) {
      routes.push_back(Route{prefix, next_hops, RouteSource::kOspf});
    }
  }
  return routes;
}

// ---------------------------------------------------------------------------
// Churn harness: a control-plane-only model of a real topology. Per-router
// directed adjacency sets drive synthetic LSAs into one Lsdb; every
// mutation is followed by a three-way equivalence check.
// ---------------------------------------------------------------------------

bool route_less(const Route& a, const Route& b) {
  if (a.prefix != b.prefix) return a.prefix < b.prefix;
  if (a.source != b.source) return a.source < b.source;
  return a.next_hops < b.next_hops;
}

std::vector<Route> sorted(std::vector<Route> routes) {
  std::sort(routes.begin(), routes.end(), route_less);
  return routes;
}

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
  SpfSolver solver;
  Ipv4Addr self;
  std::vector<LocalAdjacency> self_ports;  // physical router-facing ports
  std::vector<bool> port_up;
  std::uint64_t incremental_runs = 0;
  std::uint64_t full_runs = 0;
  std::uint64_t checks = 0;

  void emit(Ipv4Addr origin) {
    auto lsa = std::make_shared<Lsa>();
    lsa->origin = origin;
    lsa->sequence = ++sequence[origin];
    for (const Ipv4Addr n : advertised[origin]) lsa->links.push_back({n, 1});
    lsa->prefixes = prefixes[origin];
    if (extra_prefix[origin]) {
      lsa->prefixes.push_back(
          Prefix::host(Ipv4Addr(origin.value() | 0xE0000000u)));
    }
    lsdb.consider(std::move(lsa));
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
  const auto incremental = sorted(h.solver.run(h.lsdb, h.self, adjacency));
  if (h.solver.last_run_incremental()) {
    ++h.incremental_runs;
  } else {
    ++h.full_runs;
  }
  const auto dense = sorted(compute_spf(h.lsdb, h.self, adjacency));
  const auto reference = sorted(reference_spf(h.lsdb, h.self, adjacency));
  ASSERT_EQ(dense.size(), reference.size()) << "check #" << h.checks;
  ASSERT_TRUE(dense == reference)
      << "dense compute_spf diverged from the reference at check #"
      << h.checks;
  ASSERT_EQ(incremental.size(), dense.size()) << "check #" << h.checks;
  ASSERT_TRUE(incremental == dense)
      << "SpfSolver diverged from compute_spf at check #" << h.checks;
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
      case 5: {  // prefix-only churn: no graph event, tree reuse path
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

void run_churn(Harness& h, const std::string& label, std::uint32_t seed,
               int iterations) {
  check_equivalence(h);  // initial full build
  if (::testing::Test::HasFatalFailure()) return;
  churn(h, seed, iterations);
  // The suite is only meaningful if both solver paths were exercised.
  EXPECT_GT(h.incremental_runs, 0u) << label;
  EXPECT_GT(h.full_runs, 0u) << label;
}

void run_property(const std::string& topo_name, int ports, std::uint32_t seed,
                  int iterations) {
  Harness h = make_harness(topo_name, ports);
  run_churn(h, topo_name, seed, iterations);
}

TEST(SpfIncrementalProperty, FatTreeChurn) {
  run_property("fat", 4, 0xF2A51u, 140);
}

TEST(SpfIncrementalProperty, Vl2Churn) { run_property("vl2", 4, 0x51E9u, 140); }

TEST(SpfIncrementalProperty, LeafSpineChurn) {
  run_property("leafspine", 4, 0xBEEFu, 140);
}

TEST(SpfIncrementalProperty, AspenChurn) {
  run_property("aspen", 4, 0xA59Eu, 140);
}

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

TEST(SpfIncrementalProperty, FanOutBeyondOneFirstHopWord) {
  Harness h = make_wide_harness();
  check_equivalence(h);  // full run
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  EXPECT_FALSE(h.solver.last_run_incremental());
  const std::size_t all_ports = h.self_ports.size();
  for (int k = 0; k < kWideDst; ++k) {
    EXPECT_EQ(fan_out(h, wide_prefix(k)), all_ports);
  }

  // Cut N_70 - M_2, one direction per LSA. It is N_70's only link onward
  // (N_70 sits behind two parallel ports, in the set's second word), so
  // every destination loses those next hops through the subtree repair,
  // then regains them through the label-correcting one.
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
    EXPECT_TRUE(h.solver.last_run_incremental());
  };
  toggle(n, m, false);
  toggle(m, n, false);
  EXPECT_EQ(fan_out(h, wide_prefix(0)), all_ports - 2);
  toggle(n, m, true);
  toggle(m, n, true);
  EXPECT_EQ(fan_out(h, wide_prefix(0)), all_ports);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  run_churn(h, "wide", 0x64B17u, 140);
}

// ---------------------------------------------------------------------------
// Directed unit tests for the dense graph and the repair paths.
// ---------------------------------------------------------------------------

const Ipv4Addr A(10, 12, 0, 1);
const Ipv4Addr B(10, 12, 1, 1);
const Ipv4Addr C(10, 12, 2, 1);
const Ipv4Addr D(10, 12, 3, 1);
const Prefix kDst = Prefix::parse("10.11.9.0/24");

LsaPtr make_lsa(Ipv4Addr origin, std::vector<Ipv4Addr> neighbors,
                std::vector<Prefix> prefixes = {}, std::uint64_t seq = 1) {
  auto lsa = std::make_shared<Lsa>();
  lsa->origin = origin;
  lsa->sequence = seq;
  for (const auto& n : neighbors) lsa->links.push_back({n, 1});
  lsa->prefixes = std::move(prefixes);
  return lsa;
}

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

TEST(SpfSolver, RemoteLinkFailureRunsIncrementally) {
  // Square A-B-D-C-A with the prefix at D: cutting the far link B-D is a
  // single remote structural event, so the solver repairs the subtree.
  Lsdb db;
  db.consider(make_lsa(A, {B, C}));
  db.consider(make_lsa(B, {A, D}));
  db.consider(make_lsa(C, {A, D}));
  db.consider(make_lsa(D, {B, C}, {kDst}));
  const std::vector<LocalAdjacency> adjacency{{0, B}, {1, C}};

  SpfSolver solver;
  auto routes = solver.run(db, A, adjacency);
  EXPECT_FALSE(solver.last_run_incremental());  // first run is always full
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_EQ(routes[0].next_hops.size(), 2u);

  // First direction of the cut: B stops advertising D.
  db.consider(make_lsa(B, {A}, {}, 2));
  routes = solver.run(db, A, adjacency);
  EXPECT_TRUE(solver.last_run_incremental());
  ASSERT_EQ(routes.size(), 1u);
  ASSERT_EQ(routes[0].next_hops.size(), 1u);
  EXPECT_EQ(routes[0].next_hops[0].via, C);
  EXPECT_TRUE(sorted(routes) == sorted(compute_spf(db, A, adjacency)));

  // Second direction: origin-only from A's perspective, still incremental.
  db.consider(make_lsa(D, {C}, {kDst}, 2));
  routes = solver.run(db, A, adjacency);
  EXPECT_TRUE(solver.last_run_incremental());
  EXPECT_TRUE(sorted(routes) == sorted(compute_spf(db, A, adjacency)));

  // Recovery: both directions come back, each step stays incremental and
  // equivalent, and ECMP over B and C is restored.
  db.consider(make_lsa(B, {A, D}, {}, 3));
  routes = solver.run(db, A, adjacency);
  EXPECT_TRUE(solver.last_run_incremental());
  EXPECT_TRUE(sorted(routes) == sorted(compute_spf(db, A, adjacency)));

  db.consider(make_lsa(D, {B, C}, {kDst}, 3));
  routes = solver.run(db, A, adjacency);
  EXPECT_TRUE(solver.last_run_incremental());
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_EQ(routes[0].next_hops.size(), 2u);
  EXPECT_TRUE(sorted(routes) == sorted(compute_spf(db, A, adjacency)));
}

TEST(SpfSolver, LocalEventsAndAdjacencyChangesFallBackToFull) {
  Lsdb db;
  db.consider(make_lsa(A, {B, C}));
  db.consider(make_lsa(B, {A, D}));
  db.consider(make_lsa(C, {A, D}));
  db.consider(make_lsa(D, {B, C}, {kDst}));
  std::vector<LocalAdjacency> adjacency{{0, B}, {1, C}};

  SpfSolver solver;
  (void)solver.run(db, A, adjacency);

  // An event touching the computing router itself must not be repaired:
  // self relaxation trusts local adjacency, not the two-way flags.
  db.consider(make_lsa(A, {B}, {}, 2));
  auto routes = solver.run(db, A, adjacency);
  EXPECT_FALSE(solver.last_run_incremental());
  EXPECT_TRUE(sorted(routes) == sorted(compute_spf(db, A, adjacency)));

  db.consider(make_lsa(A, {B, C}, {}, 3));
  (void)solver.run(db, A, adjacency);

  // A local port flap changes the adjacency argument only: no LSA moved,
  // but the cached tree's first-hop mapping is stale, so full run.
  adjacency.pop_back();
  routes = solver.run(db, A, adjacency);
  EXPECT_FALSE(solver.last_run_incremental());
  EXPECT_TRUE(sorted(routes) == sorted(compute_spf(db, A, adjacency)));
}

TEST(SpfSolver, PrefixOnlyChurnReusesTree) {
  Lsdb db;
  db.consider(make_lsa(A, {B}));
  db.consider(make_lsa(B, {A}, {kDst}));
  const std::vector<LocalAdjacency> adjacency{{0, B}};

  SpfSolver solver;
  (void)solver.run(db, A, adjacency);

  // B re-originates with a second prefix: zero structural events, the
  // cached tree is reused and only emission re-runs.
  const Prefix extra = Prefix::parse("10.11.10.0/24");
  db.consider(make_lsa(B, {A}, {kDst, extra}, 2));
  const auto routes = solver.run(db, A, adjacency);
  EXPECT_TRUE(solver.last_run_incremental());
  ASSERT_EQ(routes.size(), 2u);
  EXPECT_TRUE(sorted(routes) == sorted(compute_spf(db, A, adjacency)));
}

}  // namespace
}  // namespace f2t::routing
