#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
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

/// A seeded random link-state database: `n` routers, about one pair in
/// eight linked, half of those links one-way, costs drawn from
/// [min_cost, max_cost]. advertised[x][y] is x's cost to y, or -1 when x
/// does not list y; the last router lists no one and no one lists it.
struct RandomDb {
  std::vector<Ipv4Addr> routers;
  std::vector<std::vector<int>> advertised;
  Lsdb db;
  std::uint64_t sequence = 1;

  RandomDb(std::mt19937& rng, int n, int min_cost, int max_cost)
      : advertised(n, std::vector<int>(n, -1)) {
    for (int i = 0; i < n; ++i) {
      routers.push_back(Ipv4Addr(10, 12, static_cast<std::uint8_t>(i), 1));
    }
    const auto cost = [&] {
      return min_cost + static_cast<int>(rng() % (max_cost - min_cost + 1));
    };
    for (int x = 0; x + 1 < n; ++x) {
      for (int y = x + 1; y + 1 < n; ++y) {
        if (rng() % 8 != 0) continue;
        const int kind = static_cast<int>(rng() % 4);  // 0, 1: one-way
        if (kind != 1) advertised[x][y] = cost();
        if (kind != 0) advertised[y][x] = cost();
      }
    }
    for (int x = 0; x < n; ++x) readvertise(x);
  }

  int size() const { return static_cast<int>(routers.size()); }
  bool two_way(int x, int y) const {
    return advertised[x][y] >= 0 && advertised[y][x] >= 0;
  }

  /// Floods x's current links as a newer LSA.
  void readvertise(int x) {
    auto lsa = std::make_shared<Lsa>();
    lsa->origin = routers[x];
    lsa->sequence = sequence++;
    for (int y = 0; y < size(); ++y) {
      if (advertised[x][y] >= 0) {
        lsa->links.push_back({routers[y], advertised[x][y]});
      }
    }
    db.consider(lsa);
  }
};

std::vector<std::size_t> every_column(std::size_t width) {
  std::vector<std::size_t> columns(width);
  std::iota(columns.begin(), columns.end(), std::size_t{0});
  return columns;
}

/// reverse_spf_rows against Floyd–Warshall on seeded random link-state
/// databases of 20–200 routers with costs 0–7, one-way links and one
/// isolated router: every entry is the shortest distance over the two-way
/// edges, an edge x→y costing x's advertised cost, or kUnreached. Above
/// 64 routers a fill takes several 64-column passes, the last one
/// partial. A fill of a shuffled subset of the columns over rows preset
/// to a sentinel writes exactly the listed columns.
TEST(ReverseSpfRows, MatchFloydWarshallOnRandomCosts) {
  std::mt19937 rng(0x0D1A1);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 20 + static_cast<int>(rng() % 181);
    SCOPED_TRACE("trial " + std::to_string(trial) + ", " + std::to_string(n) +
                 " routers");
    const RandomDb random(rng, n, 0, 7);
    const std::vector<Ipv4Addr>& routers = random.routers;
    const std::vector<std::vector<int>>& advertised = random.advertised;
    const Lsdb& db = random.db;

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

    const auto expect_column = [&](const std::vector<int>& rows, int c) {
      for (int r = 0; r < n; ++r) {
        const long want = dist[r][order[c]];
        EXPECT_EQ(rows[static_cast<std::size_t>(r * n + c)],
                  want == kInf ? SpfArrays::kUnreached : want)
            << r << " -> " << order[c];
      }
    };
    std::vector<int> rows;
    reverse_spf_rows(g, all, destinations, every_column(destinations.size()),
                     rows);
    ASSERT_EQ(rows.size(), static_cast<std::size_t>(n * n));
    for (int c = 0; c < n; ++c) expect_column(rows, c);

    constexpr int kSentinel = -7;
    std::vector<std::size_t> subset = every_column(destinations.size());
    std::shuffle(subset.begin(), subset.end(), rng);
    subset.resize(1 + rng() % subset.size());
    std::vector<int> partial(rows.size(), kSentinel);
    reverse_spf_rows(g, all, destinations, subset, partial);
    std::vector<bool> listed(n, false);
    for (const std::size_t c : subset) listed[c] = true;
    for (int c = 0; c < n; ++c) {
      if (listed[c]) {
        expect_column(partial, c);
        continue;
      }
      for (int r = 0; r < n; ++r) {
        EXPECT_EQ(partial[static_cast<std::size_t>(r * n + c)], kSentinel)
            << r << " -> " << order[c];
      }
    }
  }
}

/// Property: stale_columns plus a refill of the columns it lists equals
/// a fresh fill of every column, after seeded churn batches on random
/// databases with costs 1–7 and one-way links: one link down, several
/// down at once (among them every link of one router), one link up, and
/// one pair down and back up (at a new cost) in one batch. Destinations
/// are a random half of the routers, in shuffled order.
TEST(StaleColumns, RefillEqualsFullFillUnderChurn) {
  std::mt19937 rng(0x57A1E);
  std::size_t refilled = 0;
  std::size_t moved = 0;
  std::size_t columns_seen = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 20 + static_cast<int>(rng() % 181);
    SCOPED_TRACE("trial " + std::to_string(trial) + ", " + std::to_string(n) +
                 " routers");
    RandomDb random(rng, n, 1, 7);
    const LinkStateGraph& g = random.db.graph();
    std::vector<RouterIndex> all;
    for (const Ipv4Addr r : random.routers) all.push_back(g.index_of(r));
    std::vector<RouterIndex> destinations = all;
    std::shuffle(destinations.begin(), destinations.end(), rng);
    destinations.resize(destinations.size() / 2);
    const std::vector<std::size_t> full = every_column(destinations.size());
    std::vector<int> rows;
    reverse_spf_rows(g, all, destinations, full, rows);

    const auto pick = [&](int bound) {
      return static_cast<int>(rng() % static_cast<unsigned>(bound));
    };
    // A random pair, two-way or not as asked; false when none is found.
    const auto find_pair = [&](bool linked, int& x, int& y) {
      for (int attempt = 0; attempt < 1000; ++attempt) {
        x = pick(n);
        y = pick(n);
        if (x != y && random.two_way(x, y) == linked) return true;
      }
      return false;
    };
    // Takes the pair down: one end or both stop listing the other.
    const auto unlink = [&](int x, int y) {
      random.advertised[x][y] = -1;
      random.readvertise(x);
      if (pick(2) == 0) {
        random.advertised[y][x] = -1;
        random.readvertise(y);
      }
    };
    // Brings the pair up: each end lists the other, a missing direction
    // at a random cost.
    const auto link = [&](int x, int y) {
      for (const auto& [a, b] : {std::pair(x, y), std::pair(y, x)}) {
        if (random.advertised[a][b] < 0) {
          random.advertised[a][b] = 1 + pick(7);
          random.readvertise(a);
        }
      }
    };
    for (int batch = 0; batch < 12; ++batch) {
      const int kind = batch % 4;
      SCOPED_TRACE("batch " + std::to_string(batch) + ", kind " +
                   std::to_string(kind));
      const std::uint64_t since = g.version();
      int x = 0;
      int y = 0;
      switch (kind) {
        case 0:  // one link down
          if (!find_pair(true, x, y)) continue;
          unlink(x, y);
          break;
        case 1: {  // every link of one router, and two more links, down
          const int r = pick(n);
          for (int z = 0; z < n; ++z) {
            random.advertised[r][z] = -1;
            if (random.advertised[z][r] >= 0) {
              random.advertised[z][r] = -1;
              random.readvertise(z);
            }
          }
          random.readvertise(r);
          for (int more = 0; more < 2; ++more) {
            if (find_pair(true, x, y)) unlink(x, y);
          }
          break;
        }
        case 2:  // one link up
          if (!find_pair(false, x, y)) continue;
          link(x, y);
          break;
        case 3:  // one pair down and back up, at a new cost
          if (!find_pair(true, x, y)) continue;
          random.advertised[x][y] = -1;
          random.readvertise(x);
          random.advertised[x][y] = 1 + pick(7);
          random.readvertise(x);
          break;
      }
      std::vector<std::size_t> columns;
      stale_columns(g, since, all, destinations, rows, columns);
      ASSERT_TRUE(std::is_sorted(columns.begin(), columns.end()));
      ASSERT_TRUE(std::adjacent_find(columns.begin(), columns.end()) ==
                  columns.end());
      std::vector<int> fresh;
      reverse_spf_rows(g, all, destinations, full, fresh);
      for (std::size_t d = 0; d < destinations.size(); ++d) {
        for (std::size_t r = 0; r < all.size(); ++r) {
          const std::size_t at = r * destinations.size() + d;
          if (rows[at] != fresh[at]) {
            ++moved;
            break;
          }
        }
      }
      refilled += columns.size();
      columns_seen += destinations.size();
      reverse_spf_rows(g, all, destinations, columns, rows);
      ASSERT_EQ(rows, fresh);
    }
  }
  // The rule is exact on these batches: each listed column moves. A lost
  // hop is only listed when no tight hop is left, so that distance grows,
  // and a new hop only when it is shorter. Most columns stay.
  EXPECT_EQ(refilled, moved);
  EXPECT_LT(refilled, columns_seen / 2);
}

/// The rule on a diamond A - {B, C} - D with every router a destination:
/// taking A - B down moves only the columns of A and B. A's hop to B was
/// tight for D too, but C is as close, and B keeps its hop to D for C.
TEST(StaleColumns, KeepColumnsWithAnotherTightHop) {
  Lsdb db;
  db.consider(make_lsa(A, {B, C}));
  db.consider(make_lsa(B, {A, D}));
  db.consider(make_lsa(C, {A, D}));
  db.consider(make_lsa(D, {B, C}));
  const LinkStateGraph& g = db.graph();
  const std::vector<RouterIndex> routers{g.index_of(A), g.index_of(B),
                                         g.index_of(C), g.index_of(D)};
  // Columns in the order D, C, B, A.
  const std::vector<RouterIndex> destinations(routers.rbegin(),
                                              routers.rend());
  std::vector<int> rows;
  reverse_spf_rows(g, routers, destinations, every_column(4), rows);
  const std::uint64_t since = g.version();
  db.consider(make_lsa(A, {C}, {}, 2));
  db.consider(make_lsa(B, {D}, {}, 2));
  std::vector<std::size_t> columns;
  stale_columns(g, since, routers, destinations, rows, columns);
  EXPECT_EQ(columns, (std::vector<std::size_t>{2, 3}));

  // Bringing it back up moves the same two columns back.
  reverse_spf_rows(g, routers, destinations, columns, rows);
  const std::uint64_t down = g.version();
  db.consider(make_lsa(A, {B, C}, {}, 3));
  db.consider(make_lsa(B, {A, D}, {}, 3));
  stale_columns(g, down, routers, destinations, rows, columns);
  EXPECT_EQ(columns, (std::vector<std::size_t>{2, 3}));

  // Prefix-only churn and a one-way link change no column.
  reverse_spf_rows(g, routers, destinations, columns, rows);
  const std::uint64_t up = g.version();
  db.consider(make_lsa(D, {B, C}, {kDst}, 2));
  db.consider(make_lsa(C, {A, D, B}, {}, 2));
  stale_columns(g, up, routers, destinations, rows, columns);
  EXPECT_TRUE(columns.empty());
}

/// Where the rule does not apply, every column is listed: a cost change,
/// a cost-0 link, a log trimmed past `since`, a router without a row and
/// rows of another shape.
TEST(StaleColumns, FallbacksListEveryColumn) {
  const auto check = [](const char* what, auto&& change) {
    SCOPED_TRACE(what);
    Lsdb db;
    db.consider(make_lsa(A, {B, C}));
    db.consider(make_lsa(B, {A, D}));
    db.consider(make_lsa(C, {A, D}));
    db.consider(make_lsa(D, {B, C}));
    const LinkStateGraph& g = db.graph();
    std::vector<RouterIndex> routers{g.index_of(A), g.index_of(B),
                                     g.index_of(C), g.index_of(D)};
    const std::vector<RouterIndex> destinations = routers;
    std::vector<int> rows;
    reverse_spf_rows(g, routers, destinations, every_column(4), rows);
    const std::uint64_t since = g.version();
    change(db, routers, rows);
    std::vector<std::size_t> columns;
    stale_columns(g, since, routers, destinations, rows, columns);
    EXPECT_EQ(columns, every_column(4));
  };
  using Routers = std::vector<RouterIndex>;
  // A's LSA at sequence 2 with the given links.
  const auto advertise_a = [](Lsdb& db, std::vector<LsaLink> links) {
    auto lsa = std::make_shared<Lsa>();
    lsa->origin = A;
    lsa->sequence = 2;
    lsa->links = std::move(links);
    db.consider(lsa);
  };
  check("cost change", [&](Lsdb& db, Routers&, std::vector<int>&) {
    advertise_a(db, {{B, 2}, {C, 1}});
  });
  check("cost-0 link", [&](Lsdb& db, Routers&, std::vector<int>&) {
    advertise_a(db, {{B, 1}, {C, 1}, {D, 0}});
    db.consider(make_lsa(D, {A, B, C}, {}, 2));
  });
  check("trimmed log", [](Lsdb& db, Routers&, std::vector<int>&) {
    // A one-way link from A to D flaps: each flap is one kOriginOnly
    // event, which alone would move no column.
    for (std::uint64_t seq = 2; seq < 2 + 600; ++seq) {
      db.consider(make_lsa(A, seq % 2 == 0 ? std::vector{B, C, D}
                                           : std::vector{B, C},
                           {}, seq));
    }
  });
  check("router without a row", [](Lsdb&, Routers& routers,
                                   std::vector<int>& rows) {
    routers.pop_back();
    rows.resize(rows.size() - 4);
  });
  check("rows of another shape", [](Lsdb&, Routers&, std::vector<int>& rows) {
    rows.pop_back();
  });
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
  EXPECT_THROW(reverse_spf_rows(g, routers, {g.index_of(B)}, {0}, rows),
               std::invalid_argument);
}

/// Distances are written into each router's row as the router is reached,
/// so a router listed twice, whose second row would never be written, is
/// rejected.
TEST(ReverseSpfRows, RejectRouterListedTwice) {
  Lsdb db;
  db.consider(make_lsa(A, {B}));
  db.consider(make_lsa(B, {A}));
  const LinkStateGraph& g = db.graph();
  const std::vector<RouterIndex> routers{g.index_of(A), g.index_of(B),
                                         g.index_of(A)};
  std::vector<int> rows;
  EXPECT_THROW(reverse_spf_rows(g, routers, {g.index_of(B)}, {0}, rows),
               std::invalid_argument);
}

}  // namespace
}  // namespace f2t::routing
