#include "routing/spf.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

#include "net/l3switch.hpp"
#include "routing/smallvec.hpp"

namespace f2t::routing {

namespace {

/// The computing router's own attachment points, pre-sorted: neighbor
/// addresses ascending with the local ports reaching each one. First-hop
/// sets are bitsets over indices into `neighbors`, so emission in bit
/// order matches the former std::set<Ipv4Addr> iteration exactly.
struct SelfView {
  std::vector<net::Ipv4Addr> neighbors;
  std::vector<SmallVec<net::PortId, 4>> ports;  // parallel to neighbors

  int index_of(net::Ipv4Addr addr) const {
    const auto it = std::lower_bound(neighbors.begin(), neighbors.end(), addr);
    if (it == neighbors.end() || *it != addr) return -1;
    return static_cast<int>(it - neighbors.begin());
  }
};

SelfView build_self_view(const std::vector<LocalAdjacency>& adjacency) {
  SelfView view;
  view.neighbors.reserve(adjacency.size());
  for (const LocalAdjacency& adj : adjacency) {
    view.neighbors.push_back(adj.neighbor);
  }
  std::sort(view.neighbors.begin(), view.neighbors.end());
  view.neighbors.erase(
      std::unique(view.neighbors.begin(), view.neighbors.end()),
      view.neighbors.end());
  view.ports.resize(view.neighbors.size());
  // Parallel links to the same neighbor keep their adjacency (port-id)
  // order, matching the former ports_of map construction.
  for (const LocalAdjacency& adj : adjacency) {
    view.ports[static_cast<std::size_t>(view.index_of(adj.neighbor))]
        .push_back(adj.port);
  }
  return view;
}

/// Breadth-first search from `self` into `a` (starts a fresh epoch).
/// Edge rules mirror OSPF: from `self`, trust only live local adjacencies
/// (the SelfView gate); from anyone else, require the precomputed two-way
/// flag. Every link costs 1, so the FIFO queue holds nodes in distance
/// order. A node is queued once, when first reached, and every tight edge
/// into it (from a node one hop closer) ORs the source's first hops into
/// its set. All those sources are dequeued before the node is, so its set
/// is complete when it is read, as under Dijkstra.
void bfs(const LinkStateGraph& g, RouterIndex self, const SelfView& view,
         SpfArrays& a) {
  a.begin(g.node_count(), view.neighbors.size());
  a.touch(self);
  a.dist[self] = 0;
  a.queue.push_back(self);
  for (std::size_t head = 0; head < a.queue.size(); ++head) {
    const RouterIndex u = a.queue[head];
    const int next = a.dist[u] + 1;
    for (const DenseEdge& e : g.edges(u)) {
      const RouterIndex v = e.to;
      int hop_index = -1;
      if (u == self) {
        hop_index = view.index_of(g.router_of(v));
        if (hop_index < 0) continue;
      } else if (!e.two_way) {
        continue;
      }
      a.touch(v);
      if (a.dist[v] == SpfArrays::kUnreached) {
        a.dist[v] = next;
        a.queue.push_back(v);
      } else if (a.dist[v] != next) {
        continue;
      }
      if (u == self) {
        a.add_hop(v, static_cast<std::size_t>(hop_index));
      } else {
        a.unite_hops(v, u);
      }
    }
  }
}

/// Emits routes from the tree in `a`: one route per (reachable
/// destination, redistributed prefix), with the first-hop indices mapped
/// back to local ports, in one O(nodes) pass. Destinations with the same
/// first-hop bitset share one next-hop group.
std::vector<Route> emit_routes(const LinkStateGraph& g, RouterIndex self,
                               const SelfView& view, const SpfArrays& a) {
  NextHopGroupMemo memo(a.hop_words);
  std::vector<Route> routes;
  const std::size_t n = g.node_count();
  for (RouterIndex i = 0; i < n; ++i) {
    if (i == self || !a.reached(i)) continue;
    const Lsa* lsa = g.lsa_of(i);
    if (lsa == nullptr || lsa->prefixes.empty()) continue;
    const NextHopGroup& group = memo.get(a.hops_of(i), [&] {
      std::vector<NextHop> next_hops;
      for (std::size_t w = 0; w < a.hop_words; ++w) {
        for (std::uint64_t bits = a.hops_of(i)[w]; bits != 0;
             bits &= bits - 1) {
          const std::size_t hop =
              w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          for (const net::PortId port : view.ports[hop]) {
            next_hops.push_back(NextHop{port, view.neighbors[hop]});
          }
        }
      }
      return next_hops;
    });
    if (group.empty()) continue;
    for (const net::Prefix& prefix : lsa->prefixes) {
      routes.push_back(Route{prefix, group, RouteSource::kOspf});
    }
  }
  return routes;
}

}  // namespace

std::vector<LocalAdjacency> live_adjacency(const net::L3Switch& sw) {
  std::vector<LocalAdjacency> adjacency;
  for (net::PortId p = 0; p < sw.port_count(); ++p) {
    const auto& info = sw.port(p);
    if (info.peer_is_switch && sw.port_detected_up(p)) {
      adjacency.push_back(LocalAdjacency{p, info.peer_addr});
    }
  }
  return adjacency;
}

std::vector<net::Ipv4Addr> live_links(const net::L3Switch& sw) {
  std::vector<net::Ipv4Addr> links;
  for (const LocalAdjacency& adj : live_adjacency(sw)) {
    if (std::find(links.begin(), links.end(), adj.neighbor) == links.end()) {
      links.push_back(adj.neighbor);
    }
  }
  return links;
}

std::vector<Route> compute_spf(const Lsdb& lsdb, net::Ipv4Addr self,
                               const std::vector<LocalAdjacency>& adjacency) {
  const LinkStateGraph& g = lsdb.graph();
  const RouterIndex self_index = g.index_of(self);
  if (self_index == kNoRouter) return {};
  const SelfView view = build_self_view(adjacency);
  SpfArrays& a = g.scratch();
  bfs(g, self_index, view, a);
  return emit_routes(g, self_index, view, a);
}

void reverse_spf_rows(const LinkStateGraph& g,
                      const std::vector<RouterIndex>& routers,
                      const std::vector<RouterIndex>& destinations,
                      const std::vector<std::size_t>& columns,
                      std::vector<int>& rows) {
  constexpr std::size_t kNoRow = ~std::size_t{0};
  std::vector<std::size_t> row_of(g.node_count(), kNoRow);
  for (std::size_t r = 0; r < routers.size(); ++r) {
    if (row_of[routers[r]] != kNoRow) {
      throw std::invalid_argument("reverse_spf_rows: router listed twice: " +
                                  g.router_of(routers[r]).str());
    }
    row_of[routers[r]] = r;
  }
  // A breadth-first search run for up to 64 columns at once. Every hop
  // costs 1, so two frontiers suffice: the routers settled at distance d,
  // being drained, and those they reach at d + 1. An entry carries the set
  // of this pass's columns (bit b: pass[b]) that reached its router at the
  // frontier's distance; rows hold distances only, so the order within a
  // frontier does not matter.
  struct Entry {
    RouterIndex node;
    std::uint64_t columns;
  };
  std::vector<Entry> frontier;
  std::vector<Entry> next;
  std::vector<std::uint64_t> settled(g.node_count());
  // A router's entry in `next`: columns pushed to it join that entry, so a
  // frontier holds one entry per router and the router's edges are walked
  // once per distance.
  constexpr std::uint32_t kNotNext = ~std::uint32_t{0};
  std::vector<std::uint32_t> next_slot(g.node_count(), kNotNext);
  const auto push = [&](RouterIndex x, std::uint64_t columns) {
    if (next_slot[x] != kNotNext) {
      next[next_slot[x]].columns |= columns;
      return;
    }
    next_slot[x] = static_cast<std::uint32_t>(next.size());
    next.push_back(Entry{x, columns});
  };
  const std::size_t width = destinations.size();
  rows.resize(routers.size() * width, SpfArrays::kUnreached);
  std::vector<std::size_t> sorted = columns;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t first = 0; first < sorted.size(); first += 64) {
    const std::size_t* const pass = sorted.data() + first;
    const std::size_t count = std::min<std::size_t>(64, sorted.size() - first);
    std::fill(settled.begin(), settled.end(), std::uint64_t{0});
    for (std::size_t b = 0; b < count; ++b) {
      push(destinations[pass[b]], std::uint64_t{1} << b);
    }
    for (int dist = 0; !next.empty(); ++dist) {
      frontier.swap(next);
      next.clear();
      for (const Entry& entry : frontier) next_slot[entry.node] = kNotNext;
      for (const Entry& entry : frontier) {
        const RouterIndex y = entry.node;
        const std::uint64_t fresh = entry.columns & ~settled[y];
        if (fresh == 0) continue;
        settled[y] |= fresh;
        if (row_of[y] != kNoRow) {
          int* const row = rows.data() + row_of[y] * width;
          for (std::uint64_t bits = fresh; bits != 0; bits &= bits - 1) {
            row[pass[std::countr_zero(bits)]] = dist;
          }
        }
        // Walking y's edges finds each x with a two-way x→y edge.
        for (const DenseEdge& e : g.edges(y)) {
          if (!e.two_way) continue;
          const std::uint64_t lacking = fresh & ~settled[e.to];
          if (lacking != 0) push(e.to, lacking);
        }
      }
    }
    const std::uint64_t all =
        count == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << count) - 1;
    for (std::size_t r = 0; r < routers.size(); ++r) {
      for (std::uint64_t bits = all & ~settled[routers[r]]; bits != 0;
           bits &= bits - 1) {
        rows[r * width + pass[std::countr_zero(bits)]] = SpfArrays::kUnreached;
      }
    }
  }
}

/// Let D be the rows on the graph at `since` and D' those on the graph
/// now; every hop x→y costs 1, as in reverse_spf_rows. Column d is stale
/// when an event since `since` can move it:
///
///  - a pair went down (kLinkDown), either direction x→y:
///    D[x][d] = D[y][d] + 1 (the hop was on a shortest path) and x has no
///    two-way hop left to a z with D[z][d] + 1 = D[x][d];
///  - a pair came up (kLinkUp), either direction x→y: D[y][d] is reached
///    and D[x][d] is unreached or above D[y][d] + 1.
///
/// kOriginOnly events change no two-way edge and make nothing stale.
///
/// Why a column d that no event makes stale has D' = D. D' ≤ D: every
/// reached x ≠ d had a hop x→y with D[x] = D[y] + 1. If that hop is still
/// there, or its pair went down but x kept another such hop to a z, x has
/// a hop now to a node one hop closer under D whose D it tightly extends.
/// By induction on D, every node keeps a path of length D, so D' ≤ D.
/// D' ≥ D: D satisfies D[x] ≤ 1 + D[y] on every hop of the graph now, on
/// the hops it held on at `since` and, by the second rule, on every hop
/// that came up, so no path is shorter than D. A pair that went down and
/// came back up in one batch is one removal and one addition, each
/// checked by its rule. A trimmed log or a router without a row makes
/// every column stale.
void stale_columns(const LinkStateGraph& g, std::uint64_t since,
                   const std::vector<RouterIndex>& routers,
                   const std::vector<RouterIndex>& destinations,
                   const std::vector<int>& rows,
                   std::vector<std::size_t>& columns) {
  constexpr int kUnreached = SpfArrays::kUnreached;
  constexpr std::size_t kNoRow = ~std::size_t{0};
  const std::size_t width = destinations.size();
  columns.clear();
  std::vector<std::size_t> row_of(g.node_count(), kNoRow);
  for (std::size_t r = 0; r < routers.size(); ++r) row_of[routers[r]] = r;
  std::vector<GraphEvent> events;
  if (rows.size() != routers.size() * width ||
      !g.changes_since(since, events) ||
      std::find(row_of.begin(), row_of.end(), kNoRow) != row_of.end()) {
    columns.resize(width);
    std::iota(columns.begin(), columns.end(), std::size_t{0});
    return;
  }
  const auto row = [&](RouterIndex x) {
    return rows.data() + row_of[x] * width;
  };
  std::vector<bool> stale(width, false);
  // Applies the rule for the hop x→y, which went down or came up.
  const auto mark = [&](bool down, RouterIndex x, RouterIndex y) {
    const int* dx = row(x);
    const int* dy = row(y);
    // True when x still has a two-way hop that is tight for column d.
    const auto keeps_tight_hop = [&](std::size_t d) {
      for (const DenseEdge& e : g.edges(x)) {
        if (!e.two_way) continue;
        const int dz = row(e.to)[d];
        if (dz != kUnreached && dz + 1 == dx[d]) return true;
      }
      return false;
    };
    for (std::size_t d = 0; d < width; ++d) {
      if (stale[d] || dy[d] == kUnreached) continue;
      stale[d] = down ? dx[d] == dy[d] + 1 && !keeps_tight_hop(d)
                      : dx[d] == kUnreached || dx[d] > dy[d] + 1;
    }
  };
  for (const GraphEvent& ev : events) {
    if (ev.kind == GraphEventKind::kOriginOnly) continue;
    const bool down = ev.kind == GraphEventKind::kLinkDown;
    mark(down, ev.u, ev.v);
    mark(down, ev.v, ev.u);
  }
  for (std::size_t d = 0; d < width; ++d) {
    if (stale[d]) columns.push_back(d);
  }
}

bool lsdb_reachable(const Lsdb& lsdb, net::Ipv4Addr from, net::Ipv4Addr to) {
  if (from == to) return true;
  const LinkStateGraph& g = lsdb.graph();
  const RouterIndex src = g.index_of(from);
  const RouterIndex dst = g.index_of(to);
  if (src == kNoRouter || dst == kNoRouter) return false;
  // Depth-first search over the precomputed two-way edge set, using the
  // shared scratch's stamps as the visited set and its queue as the stack.
  SpfArrays& a = g.scratch();
  a.begin(g.node_count(), 0);
  a.touch(src);
  a.queue.push_back(src);
  while (!a.queue.empty()) {
    const RouterIndex u = a.queue.back();
    a.queue.pop_back();
    for (const DenseEdge& e : g.edges(u)) {
      if (!e.two_way) continue;
      if (e.to == dst) return true;
      if (a.stamp[e.to] != a.epoch) {
        a.touch(e.to);
        a.queue.push_back(e.to);
      }
    }
  }
  return false;
}

}  // namespace f2t::routing
