#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>

#include "routing/spf.hpp"

namespace f2t::routing {
namespace {

using net::Ipv4Addr;
using net::Prefix;

LsaPtr make_lsa(Ipv4Addr origin, std::vector<Ipv4Addr> neighbors,
                std::vector<Prefix> prefixes = {}, std::uint64_t seq = 1) {
  auto lsa = std::make_shared<Lsa>();
  lsa->origin = origin;
  lsa->sequence = seq;
  for (const auto& n : neighbors) lsa->links.push_back({n, 1});
  lsa->prefixes = std::move(prefixes);
  return lsa;
}

const Ipv4Addr A(10, 12, 0, 1);
const Ipv4Addr B(10, 12, 1, 1);
const Ipv4Addr C(10, 12, 2, 1);
const Ipv4Addr D(10, 12, 3, 1);
const Prefix kDst = Prefix::parse("10.11.9.0/24");

TEST(Spf, DiamondProducesEcmpFirstHops) {
  // A - {B, C} - D, destination prefix at D: both first hops retained.
  Lsdb db;
  db.consider(make_lsa(A, {B, C}));
  db.consider(make_lsa(B, {A, D}));
  db.consider(make_lsa(C, {A, D}));
  db.consider(make_lsa(D, {B, C}, {kDst}));

  const std::vector<LocalAdjacency> adjacency{{0, B}, {1, C}};
  const auto routes = compute_spf(db, A, adjacency);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_EQ(routes[0].prefix, kDst);
  ASSERT_EQ(routes[0].next_hops.size(), 2u);
}

TEST(Spf, ShorterPathBeatsLonger) {
  // A - B - D and A - C - X(->D longer): only B is a first hop.
  const Ipv4Addr X(10, 12, 4, 1);
  Lsdb db;
  db.consider(make_lsa(A, {B, C}));
  db.consider(make_lsa(B, {A, D}));
  db.consider(make_lsa(C, {A, X}));
  db.consider(make_lsa(X, {C, D}));
  db.consider(make_lsa(D, {B, X}, {kDst}));

  const std::vector<LocalAdjacency> adjacency{{0, B}, {1, C}};
  const auto routes = compute_spf(db, A, adjacency);
  ASSERT_EQ(routes.size(), 1u);
  ASSERT_EQ(routes[0].next_hops.size(), 1u);
  EXPECT_EQ(routes[0].next_hops[0].via, B);
}

TEST(Spf, OneWayAdjacencyIsIgnored) {
  // B claims a link to D, but D does not claim B: the edge must not be
  // used (OSPF two-way check), so D is reachable only via C.
  Lsdb db;
  db.consider(make_lsa(A, {B, C}));
  db.consider(make_lsa(B, {A, D}));
  db.consider(make_lsa(C, {A, D}));
  db.consider(make_lsa(D, {C}, {kDst}));  // no B!

  const std::vector<LocalAdjacency> adjacency{{0, B}, {1, C}};
  const auto routes = compute_spf(db, A, adjacency);
  ASSERT_EQ(routes.size(), 1u);
  ASSERT_EQ(routes[0].next_hops.size(), 1u);
  EXPECT_EQ(routes[0].next_hops[0].via, C);
}

TEST(Spf, UnreachableDestinationYieldsNoRoute) {
  Lsdb db;
  db.consider(make_lsa(A, {B}));
  db.consider(make_lsa(B, {A}));
  db.consider(make_lsa(D, {}, {kDst}));  // isolated
  const std::vector<LocalAdjacency> adjacency{{0, B}};
  EXPECT_TRUE(compute_spf(db, A, adjacency).empty());
}

TEST(Spf, ParallelLinksToSameNeighborAllBecomeNextHops) {
  Lsdb db;
  db.consider(make_lsa(A, {B}));
  db.consider(make_lsa(B, {A}, {kDst}));
  // Two local ports both facing B (the testbed's doubled across links).
  const std::vector<LocalAdjacency> adjacency{{0, B}, {1, B}};
  const auto routes = compute_spf(db, A, adjacency);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_EQ(routes[0].next_hops.size(), 2u);
}

TEST(Spf, DeadLocalPortExcludedByAdjacencyList) {
  // The caller passes only live adjacencies; a dead one simply isn't
  // offered, and the destination resolves via the remaining port.
  Lsdb db;
  db.consider(make_lsa(A, {B, C}));
  db.consider(make_lsa(B, {A, D}));
  db.consider(make_lsa(C, {A, D}));
  db.consider(make_lsa(D, {B, C}, {kDst}));
  const std::vector<LocalAdjacency> only_c{{1, C}};
  const auto routes = compute_spf(db, A, only_c);
  ASSERT_EQ(routes.size(), 1u);
  ASSERT_EQ(routes[0].next_hops.size(), 1u);
  EXPECT_EQ(routes[0].next_hops[0].via, C);
}

TEST(Spf, MultiplePrefixesPerRouter) {
  const Prefix kDst2 = Prefix::parse("10.11.10.0/24");
  Lsdb db;
  db.consider(make_lsa(A, {B}));
  db.consider(make_lsa(B, {A}, {kDst, kDst2}));
  const std::vector<LocalAdjacency> adjacency{{0, B}};
  const auto routes = compute_spf(db, A, adjacency);
  EXPECT_EQ(routes.size(), 2u);
}

TEST(Spf, ReachabilityProbe) {
  Lsdb db;
  db.consider(make_lsa(A, {B}));
  db.consider(make_lsa(B, {A, C}));
  db.consider(make_lsa(C, {B}));
  db.consider(make_lsa(D, {C}));  // one-way: C doesn't list D
  EXPECT_TRUE(lsdb_reachable(db, A, C));
  EXPECT_TRUE(lsdb_reachable(db, A, A));
  EXPECT_FALSE(lsdb_reachable(db, A, D));
  EXPECT_FALSE(lsdb_reachable(db, D, A));  // D->C edge fails two-way check
}

/// reverse_spf_rows against Floyd–Warshall on seeded random link-state
/// databases of 20–60 routers with costs 0–7, one-way links and one
/// isolated router: every entry is the shortest distance over the two-way
/// edges, an edge x→y costing x's advertised cost, or kUnreached.
TEST(ReverseSpfRows, MatchFloydWarshallOnRandomCosts) {
  std::mt19937 rng(0x0D1A1);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 20 + static_cast<int>(rng() % 41);
    SCOPED_TRACE("trial " + std::to_string(trial) + ", " + std::to_string(n) +
                 " routers");
    std::vector<Ipv4Addr> routers;
    for (int i = 0; i < n; ++i) {
      routers.push_back(Ipv4Addr(10, 12, static_cast<std::uint8_t>(i), 1));
    }
    // advertised[x][y]: x's cost to y, or -1 when x does not list y. The
    // last router lists no one and no one lists it.
    std::vector<std::vector<int>> advertised(n, std::vector<int>(n, -1));
    for (int x = 0; x + 1 < n; ++x) {
      for (int y = x + 1; y + 1 < n; ++y) {
        if (rng() % 8 != 0) continue;
        const int kind = static_cast<int>(rng() % 4);  // 0, 1: one-way
        if (kind != 1) advertised[x][y] = static_cast<int>(rng() % 8);
        if (kind != 0) advertised[y][x] = static_cast<int>(rng() % 8);
      }
    }
    Lsdb db;
    for (int x = 0; x < n; ++x) {
      auto lsa = std::make_shared<Lsa>();
      lsa->origin = routers[x];
      lsa->sequence = 1;
      for (int y = 0; y < n; ++y) {
        if (advertised[x][y] >= 0) {
          lsa->links.push_back({routers[y], advertised[x][y]});
        }
      }
      db.consider(lsa);
    }

    constexpr long kInf = 1L << 40;
    std::vector<std::vector<long>> dist(n, std::vector<long>(n, kInf));
    for (int x = 0; x < n; ++x) {
      dist[x][x] = 0;
      for (int y = 0; y < n; ++y) {
        if (advertised[x][y] >= 0 && advertised[y][x] >= 0) {
          dist[x][y] = std::min<long>(dist[x][y], advertised[x][y]);
        }
      }
    }
    for (int k = 0; k < n; ++k) {
      for (int x = 0; x < n; ++x) {
        for (int y = 0; y < n; ++y) {
          dist[x][y] = std::min(dist[x][y], dist[x][k] + dist[k][y]);
        }
      }
    }

    const LinkStateGraph& g = db.graph();
    std::vector<RouterIndex> all;
    for (const Ipv4Addr r : routers) all.push_back(g.index_of(r));
    // Every router as a destination, in an order unlike the rows'.
    std::vector<int> order(n);
    for (int i = 0; i < n; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<RouterIndex> destinations;
    for (const int d : order) destinations.push_back(all[d]);

    std::vector<int> rows;
    reverse_spf_rows(g, all, destinations, rows);
    ASSERT_EQ(rows.size(), static_cast<std::size_t>(n * n));
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < n; ++c) {
        const long want = dist[r][order[c]];
        EXPECT_EQ(rows[static_cast<std::size_t>(r * n + c)],
                  want == kInf ? SpfArrays::kUnreached : want)
            << r << " -> " << order[c];
      }
    }
  }
}

TEST(ReverseSpfRows, RejectNegativeCost) {
  auto a = std::make_shared<Lsa>();
  a->origin = A;
  a->sequence = 1;
  a->links.push_back({B, -1});
  Lsdb db;
  db.consider(a);
  db.consider(make_lsa(B, {A}));
  const LinkStateGraph& g = db.graph();
  const std::vector<RouterIndex> routers{g.index_of(A), g.index_of(B)};
  std::vector<int> rows;
  EXPECT_THROW(reverse_spf_rows(g, routers, {g.index_of(B)}, rows),
               std::invalid_argument);
}

}  // namespace
}  // namespace f2t::routing
