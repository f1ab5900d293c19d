#pragma once

#include <algorithm>
#include <limits>
#include <memory>
#include <queue>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "routing/smallvec.hpp"
#include "routing/spf.hpp"

namespace f2t::routing {

/// An LSA from `origin` listing `neighbors`, at sequence `seq`.
inline LsaPtr make_lsa(net::Ipv4Addr origin,
                       std::vector<net::Ipv4Addr> neighbors,
                       std::vector<net::Prefix> prefixes = {},
                       std::uint64_t seq = 1) {
  auto lsa = std::make_shared<Lsa>();
  lsa->origin = origin;
  lsa->sequence = seq;
  lsa->links = std::move(neighbors);
  lsa->prefixes = std::move(prefixes);
  return lsa;
}

/// Routes in a canonical order, so two route sets compare as sets.
inline std::vector<Route> sorted(std::vector<Route> routes) {
  std::sort(routes.begin(), routes.end(), [](const Route& a, const Route& b) {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    if (a.source != b.source) return a.source < b.source;
    return a.next_hops < b.next_hops;
  });
  return routes;
}

/// Reference model: the original hash-based compute_spf, a Dijkstra over
/// the LSAs themselves (every link costing 1) with the two-way check
/// rescanned per edge. Ground truth for the dense graph's breadth-first
/// search.
inline std::vector<Route> reference_spf(
    const Lsdb& lsdb, net::Ipv4Addr self,
    const std::vector<LocalAdjacency>& adjacency) {
  using FirstHops = SmallVec<std::uint16_t, 8>;
  const auto insert_hop = [](FirstHops& set, std::uint16_t index) {
    const auto it = std::lower_bound(set.begin(), set.end(), index);
    if (it != set.end() && *it == index) return;
    const auto pos = static_cast<std::size_t>(it - set.begin());
    set.push_back(index);
    std::rotate(set.begin() + pos, set.end() - 1, set.end());
  };
  const auto two_way = [&](net::Ipv4Addr u, net::Ipv4Addr v) {
    const Lsa* lv = lsdb.find(v);
    return lv != nullptr &&
           std::find(lv->links.begin(), lv->links.end(), u) != lv->links.end();
  };

  std::unordered_map<net::Ipv4Addr, std::vector<net::PortId>> ports_of;
  for (const LocalAdjacency& adj : adjacency) {
    ports_of[adj.neighbor].push_back(adj.port);
  }
  std::vector<net::Ipv4Addr> self_neighbors;
  self_neighbors.reserve(ports_of.size());
  for (const auto& [neighbor, ports] : ports_of) {
    self_neighbors.push_back(neighbor);
  }
  std::sort(self_neighbors.begin(), self_neighbors.end());
  std::unordered_map<net::Ipv4Addr, std::uint16_t> neighbor_index;
  for (std::size_t i = 0; i < self_neighbors.size(); ++i) {
    neighbor_index[self_neighbors[i]] = static_cast<std::uint16_t>(i);
  }

  struct NodeState {
    int dist = std::numeric_limits<int>::max();
    FirstHops first_hops;
  };
  std::unordered_map<net::Ipv4Addr, NodeState> state;
  state[self].dist = 0;

  using QueueItem = std::pair<int, net::Ipv4Addr>;
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> queue;
  queue.push({0, self});
  std::unordered_set<net::Ipv4Addr> done;
  while (!queue.empty()) {
    const auto [dist, u] = queue.top();
    queue.pop();
    if (!done.insert(u).second) continue;
    const Lsa* lsa = lsdb.find(u);
    if (lsa == nullptr) continue;
    for (const net::Ipv4Addr v : lsa->links) {
      if (u == self) {
        if (!ports_of.contains(v)) continue;
      } else if (!two_way(u, v)) {
        continue;
      }
      const int ndist = dist + 1;
      NodeState& sv = state[v];
      if (ndist < sv.dist) {
        sv.dist = ndist;
        sv.first_hops.clear();
      }
      if (ndist == sv.dist) {
        if (u == self) {
          insert_hop(sv.first_hops, neighbor_index.at(v));
        } else {
          for (const std::uint16_t hop : state[u].first_hops) {
            insert_hop(sv.first_hops, hop);
          }
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
      const net::Ipv4Addr hop = self_neighbors[hop_index];
      for (const net::PortId port : ports_of.at(hop)) {
        next_hops.push_back(NextHop{port, hop});
      }
    }
    for (const net::Prefix& prefix : lsa->prefixes) {
      routes.push_back(Route{prefix, next_hops, RouteSource::kOspf});
    }
  }
  return routes;
}

/// A seeded random link-state database: `n` routers, about one pair in
/// eight linked, half of those links one-way. advertised[x][y] is true
/// when x lists y; the last router lists no one and no one lists it.
/// With `hub`, router 0 also lists three in four of the others, and most
/// of them list it back, so from above about 90 routers its first-hop
/// sets span two words. Router i redistributes 10.11.i.0/24.
struct RandomDb {
  std::vector<net::Ipv4Addr> routers;
  std::vector<std::vector<bool>> advertised;
  Lsdb db;
  std::uint64_t sequence = 1;

  RandomDb(std::mt19937& rng, int n, bool hub = false)
      : advertised(n, std::vector<bool>(n, false)) {
    for (int i = 0; i < n; ++i) {
      routers.push_back(net::Ipv4Addr(10, 12, static_cast<std::uint8_t>(i), 1));
    }
    for (int x = 0; x + 1 < n; ++x) {
      for (int y = x + 1; y + 1 < n; ++y) {
        if (rng() % 8 != 0) continue;
        const int kind = static_cast<int>(rng() % 4);  // 0, 1: one-way
        if (kind != 1) advertised[x][y] = true;
        if (kind != 0) advertised[y][x] = true;
      }
    }
    if (hub) {
      for (int y = 1; y + 1 < n; ++y) {
        if (rng() % 4 == 0) continue;
        advertised[0][y] = true;
        advertised[y][0] = rng() % 8 != 0;
      }
    }
    for (int x = 0; x < n; ++x) readvertise(x);
  }

  int size() const { return static_cast<int>(routers.size()); }
  bool two_way(int x, int y) const {
    return advertised[x][y] && advertised[y][x];
  }

  /// Floods x's current links as a newer LSA.
  void readvertise(int x) {
    std::vector<net::Ipv4Addr> links;
    for (int y = 0; y < size(); ++y) {
      if (advertised[x][y]) links.push_back(routers[y]);
    }
    db.consider(make_lsa(
        routers[x], std::move(links),
        {net::Prefix(net::Ipv4Addr(10, 11, static_cast<std::uint8_t>(x), 0),
                     24)},
        sequence++));
  }
};

}  // namespace f2t::routing
