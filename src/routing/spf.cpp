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

void heap_push(SpfArrays& a, int dist, std::uint32_t addr, RouterIndex node) {
  a.heap.push_back(SpfArrays::HeapItem{dist, addr, node});
  std::push_heap(a.heap.begin(), a.heap.end());
}

SpfArrays::HeapItem heap_pop(SpfArrays& a) {
  std::pop_heap(a.heap.begin(), a.heap.end());
  const SpfArrays::HeapItem item = a.heap.back();
  a.heap.pop_back();
  return item;
}

/// Full Dijkstra from `self` into `a` (starts a fresh epoch). Edge rules
/// mirror OSPF: from `self`, trust only live local adjacencies (the
/// SelfView gate) with costs from self's own LSA; from anyone else,
/// require the precomputed two-way flag.
///
/// A node enters the heap only when its distance strictly improves; an
/// equal-cost relaxation just unions first hops into the node's set. A
/// pushed tie would carry the (dist, address) key of an entry already
/// queued and pop as a no-op after it, so settle order and first-hop
/// sets are the same as with one push per relaxation, while the heap
/// holds one entry per distance improvement instead of one per ECMP
/// parent.
void dijkstra_full(const LinkStateGraph& g, RouterIndex self,
                   const SelfView& view, SpfArrays& a) {
  a.begin(g.node_count(), view.neighbors.size());
  a.touch(self);
  a.dist[self] = 0;
  heap_push(a, 0, g.router_of(self).value(), self);
  while (!a.heap.empty()) {
    const SpfArrays::HeapItem item = heap_pop(a);
    const RouterIndex u = item.node;
    if (a.is_settled(u)) continue;
    a.settle(u);
    const int du = a.dist[u];
    for (const DenseEdge& e : g.edges(u)) {
      const RouterIndex v = e.to;
      int hop_index = -1;
      if (u == self) {
        hop_index = view.index_of(g.router_of(v));
        if (hop_index < 0) continue;
      } else if (!e.two_way) {
        continue;
      }
      const int nd = du + e.cost;
      a.touch(v);
      if (nd < a.dist[v]) {
        a.dist[v] = nd;
        a.clear_hops(v);
        heap_push(a, nd, g.router_of(v).value(), v);
      } else if (nd != a.dist[v]) {
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
/// back to local ports. Always a full O(nodes) pass — which is what lets
/// prefix-only LSA churn reuse the cached tree untouched. Destinations
/// with the same first-hop bitset share one next-hop group.
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

/// Starts a fresh epoch on a mark vector sized for `n` nodes.
void begin_marks(std::vector<std::uint32_t>& marks, std::uint32_t& epoch,
                 std::size_t n) {
  if (marks.size() < n) marks.resize(n, 0u);
  if (++epoch == 0) {
    std::fill(marks.begin(), marks.end(), 0u);
    epoch = 1;
  }
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

std::vector<LsaLink> live_links(const net::L3Switch& sw) {
  std::vector<LsaLink> links;
  for (const LocalAdjacency& adj : live_adjacency(sw)) {
    const LsaLink link{adj.neighbor, 1};
    if (std::find(links.begin(), links.end(), link) == links.end()) {
      links.push_back(link);
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
  dijkstra_full(g, self_index, view, a);
  return emit_routes(g, self_index, view, a);
}

void reverse_spf_rows(const LinkStateGraph& g,
                      const std::vector<RouterIndex>& routers,
                      const std::vector<RouterIndex>& destinations,
                      const std::vector<std::size_t>& columns,
                      std::vector<int>& rows) {
  // Dial's bucket queue, run for up to 64 columns at once. While distance
  // d is being settled every queued distance lies in [d, d + max_cost], so
  // max_cost + 1 circular buckets indexed by distance keep them apart. An
  // entry carries the set of this pass's columns (bit b: pass[b]) that
  // reached its router at the bucket's distance; rows hold distances
  // only, so the order within a bucket does not matter.
  int max_cost = 0;
  for (RouterIndex y = 0; y < g.node_count(); ++y) {
    for (const DenseEdge& e : g.edges(y)) {
      if (!e.two_way) continue;
      if (e.rev_cost < 0) {
        throw std::invalid_argument(
            "reverse_spf_rows: negative link cost advertised by " +
            g.router_of(e.to).str());
      }
      max_cost = std::max(max_cost, e.rev_cost);
    }
  }
  constexpr std::size_t kNoRow = ~std::size_t{0};
  std::vector<std::size_t> row_of(g.node_count(), kNoRow);
  for (std::size_t r = 0; r < routers.size(); ++r) {
    if (row_of[routers[r]] != kNoRow) {
      throw std::invalid_argument("reverse_spf_rows: router listed twice: " +
                                  g.router_of(routers[r]).str());
    }
    row_of[routers[r]] = r;
  }
  struct Entry {
    RouterIndex node;
    std::uint64_t columns;
  };
  std::vector<std::vector<Entry>> buckets(static_cast<std::size_t>(max_cost) +
                                          1);
  std::vector<Entry> draining;
  std::vector<std::uint64_t> settled(g.node_count());
  // A router's newest queued entry: its distance (-1 once drained) and
  // its index in that distance's bucket. Columns pushed to the router at
  // that distance join the entry, so a bucket holds one entry per router
  // for unit costs and the router's edges are walked once per distance.
  std::vector<int> queued_at(g.node_count(), -1);
  std::vector<std::uint32_t> queued_slot(g.node_count());
  std::size_t queued = 0;
  const auto push = [&](RouterIndex x, int dist, std::uint64_t columns) {
    auto& bucket = buckets[static_cast<std::size_t>(dist) % buckets.size()];
    if (queued_at[x] == dist) {
      bucket[queued_slot[x]].columns |= columns;
      return;
    }
    queued_at[x] = dist;
    queued_slot[x] = static_cast<std::uint32_t>(bucket.size());
    bucket.push_back(Entry{x, columns});
    ++queued;
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
      push(destinations[pass[b]], 0, std::uint64_t{1} << b);
    }
    for (int dist = 0; queued > 0; ++dist) {
      auto& bucket = buckets[static_cast<std::size_t>(dist) % buckets.size()];
      // A zero-cost hop appends to the bucket being drained, so it is
      // drained in rounds until it stays empty.
      while (!bucket.empty()) {
        draining.swap(bucket);
        queued -= draining.size();
        for (const Entry& entry : draining) queued_at[entry.node] = -1;
        for (const Entry& entry : draining) {
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
          // Walking y's edges finds each x with a two-way x→y edge; that
          // hop costs x's advertised cost, the rev_cost of y's edge.
          for (const DenseEdge& e : g.edges(y)) {
            if (!e.two_way) continue;
            const std::uint64_t lacking = fresh & ~settled[e.to];
            if (lacking != 0) push(e.to, dist + e.rev_cost, lacking);
          }
        }
        draining.clear();
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
/// now; a hop x→y costs x's advertised cost c, as in reverse_spf_rows.
/// Column d is stale when an event since `since` can move it:
///
///  - a pair went down (kLinkDown), either direction x→y with its removed
///    cost c: D[x][d] = D[y][d] + c (the hop was on a shortest path) and
///    x has no two-way hop left to a z with D[z][d] + cost(x→z) = D[x][d];
///  - a pair came up (kLinkUp), either direction x→y with its new cost c:
///    D[y][d] is reached and D[x][d] is unreached or above D[y][d] + c.
///
/// kOriginOnly events change no two-way edge and make nothing stale.
///
/// Why a column d that no event makes stale has D' = D, for positive
/// costs. D' ≤ D: every reached x ≠ d had a hop x→y with D[x] = D[y] + c.
/// If that hop is still there, or its pair went down but x kept another
/// such hop to a z, x has a hop now to a node strictly closer under D
/// (costs are positive) whose D it tightly extends. By induction on D,
/// every node keeps a path of length D, so D' ≤ D. D' ≥ D: D satisfies
/// D[x] ≤ cost(x→y) + D[y] on every hop of the graph now, on the hops it
/// was exact on and, by the second rule, on every hop that came up, so
/// no path is shorter than D. A pair that went down and came back up in
/// one batch is one removal and one addition, each checked with the
/// costs its event carries: a pair two-way at `since` carries its costs
/// then on its first kLinkDown, and a pair two-way now its costs now on
/// its last kLinkUp.
/// Without positive costs a tight hop can lead back to x, so a
/// non-positive cost anywhere, in the graph or on a pair's event, or a
/// cost change (whose event carries no old cost for the second rule),
/// makes every column stale, as does a trimmed log or a router without a
/// row. These mirror `SpfSolver`'s fallbacks.
void stale_columns(const LinkStateGraph& g, std::uint64_t since,
                   const std::vector<RouterIndex>& routers,
                   const std::vector<RouterIndex>& destinations,
                   const std::vector<int>& rows,
                   std::vector<std::size_t>& columns) {
  constexpr int kUnreached = SpfArrays::kUnreached;
  constexpr std::size_t kNoRow = ~std::size_t{0};
  const std::size_t width = destinations.size();
  columns.clear();
  const auto every_column = [&] {
    columns.resize(width);
    std::iota(columns.begin(), columns.end(), std::size_t{0});
  };
  std::vector<std::size_t> row_of(g.node_count(), kNoRow);
  for (std::size_t r = 0; r < routers.size(); ++r) row_of[routers[r]] = r;
  std::vector<GraphEvent> events;
  if (rows.size() != routers.size() * width || g.has_nonpositive_cost() ||
      !g.changes_since(since, events) ||
      std::find(row_of.begin(), row_of.end(), kNoRow) != row_of.end()) {
    return every_column();
  }
  for (const GraphEvent& ev : events) {
    if (ev.kind == GraphEventKind::kCostChange ||
        (ev.kind != GraphEventKind::kOriginOnly &&
         (ev.cost_uv <= 0 || ev.cost_vu <= 0))) {
      return every_column();
    }
  }
  const auto row = [&](RouterIndex x) {
    return rows.data() + row_of[x] * width;
  };
  std::vector<bool> stale(width, false);
  // Applies the rule for the hop x→y of cost c, which went down or up.
  const auto mark = [&](bool down, RouterIndex x, RouterIndex y, int c) {
    const int* dx = row(x);
    const int* dy = row(y);
    // True when x still has a two-way hop that is tight for column d.
    const auto keeps_tight_hop = [&](std::size_t d) {
      for (const DenseEdge& e : g.edges(x)) {
        if (!e.two_way) continue;
        const int dz = row(e.to)[d];
        if (dz != kUnreached && dz + e.cost == dx[d]) return true;
      }
      return false;
    };
    for (std::size_t d = 0; d < width; ++d) {
      if (stale[d] || dy[d] == kUnreached) continue;
      stale[d] = down ? dx[d] == dy[d] + c && !keeps_tight_hop(d)
                      : dx[d] == kUnreached || dx[d] > dy[d] + c;
    }
  };
  for (const GraphEvent& ev : events) {
    if (ev.kind == GraphEventKind::kOriginOnly) continue;
    const bool down = ev.kind == GraphEventKind::kLinkDown;
    mark(down, ev.u, ev.v, ev.cost_uv);
    mark(down, ev.v, ev.u, ev.cost_vu);
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
  // BFS over the precomputed two-way edge set, using the shared scratch's
  // settled stamps as the visited set and its heap storage as the stack.
  SpfArrays& a = g.scratch();
  a.begin(g.node_count(), 0);
  a.settle(src);
  a.heap.push_back(SpfArrays::HeapItem{0, 0, src});
  while (!a.heap.empty()) {
    const RouterIndex u = a.heap.back().node;
    a.heap.pop_back();
    for (const DenseEdge& e : g.edges(u)) {
      if (!e.two_way) continue;
      if (e.to == dst) return true;
      if (!a.is_settled(e.to)) {
        a.settle(e.to);
        a.heap.push_back(SpfArrays::HeapItem{0, 0, e.to});
      }
    }
  }
  return false;
}

namespace {

/// Subtree repair after a two-way link between `ev.u` and `ev.v` (both
/// != self) disappeared; the graph no longer holds the edge, the event
/// carries its former costs.
///
/// Phase 1 finds the affected set A: if the dead edge lay on any shortest
/// path (dist[parent] + cost == dist[child]), every node with a shortest
/// path through it is a descendant of the child along shortest-path-DAG
/// edges, so a DAG-edge BFS from the child over-approximates exactly the
/// nodes whose distance or first-hop set may change; everything outside A
/// keeps its final state. Phase 2 resets A and seeds each member from its
/// unaffected parents (including `self`, handled specially because its
/// edges are gated by local adjacency, not the two-way flag). Phase 3 is
/// Dijkstra restricted to A: parents settle strictly before children
/// (costs are verified positive), so first-hop sets copied/unioned at
/// settle time are final.
void repair_link_down(const LinkStateGraph& g, RouterIndex self,
                      const SelfView& view, SpfArrays& a, const GraphEvent& ev,
                      std::vector<RouterIndex>& affected,
                      std::vector<RouterIndex>& stack,
                      std::vector<std::uint32_t>& affected_mark,
                      std::uint32_t& affected_epoch,
                      std::vector<std::uint32_t>& settled_mark,
                      std::uint32_t& settled_epoch) {
  const int du = a.distance(ev.u);
  const int dv = a.distance(ev.v);
  RouterIndex seed = kNoRouter;
  if (du != SpfArrays::kUnreached && dv == du + ev.cost_uv) {
    seed = ev.v;
  } else if (dv != SpfArrays::kUnreached && du == dv + ev.cost_vu) {
    seed = ev.u;
  }
  if (seed == kNoRouter) return;  // the dead edge was on no shortest path

  begin_marks(affected_mark, affected_epoch, g.node_count());
  const auto in_affected = [&](RouterIndex i) {
    return affected_mark[i] == affected_epoch;
  };
  affected.clear();
  stack.clear();
  affected_mark[seed] = affected_epoch;
  affected.push_back(seed);
  stack.push_back(seed);
  while (!stack.empty()) {
    const RouterIndex x = stack.back();
    stack.pop_back();
    const int dx = a.dist[x];  // finite: every member was reached
    for (const DenseEdge& e : g.edges(x)) {
      if (!e.two_way) continue;
      const RouterIndex b = e.to;
      if (b == self || in_affected(b)) continue;
      if (a.distance(b) == dx + e.cost) {
        affected_mark[b] = affected_epoch;
        affected.push_back(b);
        stack.push_back(b);
      }
    }
  }

  a.heap.clear();
  for (const RouterIndex b : affected) a.set_unreached(b);
  for (const RouterIndex b : affected) {
    int best = SpfArrays::kUnreached;
    // `self` as boundary parent: its edge to b is usable iff self's LSA
    // lists b AND a live local port reaches b. Not discoverable from b's
    // own edge list (b may not advertise self back), hence the probe.
    const net::Ipv4Addr baddr = g.router_of(b);
    if (const int ni = view.index_of(baddr); ni >= 0) {
      if (const DenseEdge* se = g.find_edge(self, b)) {
        best = se->cost;
        a.add_hop(b, static_cast<std::size_t>(ni));
      }
    }
    for (const DenseEdge& e : g.edges(b)) {
      if (!e.two_way) continue;
      const RouterIndex y = e.to;
      if (y == self || in_affected(y)) continue;
      const int dy = a.distance(y);
      if (dy == SpfArrays::kUnreached) continue;
      const int cand = dy + e.rev_cost;  // cost of the y→b direction
      if (cand < best) {
        best = cand;
        a.copy_hops(b, y);
      } else if (cand == best) {
        a.unite_hops(b, y);
      }
    }
    if (best != SpfArrays::kUnreached) {
      a.dist[b] = best;
      heap_push(a, best, baddr.value(), b);
    }
  }

  begin_marks(settled_mark, settled_epoch, g.node_count());
  while (!a.heap.empty()) {
    const SpfArrays::HeapItem item = heap_pop(a);
    const RouterIndex u = item.node;
    if (item.dist > a.dist[u] || settled_mark[u] == settled_epoch) continue;
    settled_mark[u] = settled_epoch;
    const int duu = a.dist[u];
    for (const DenseEdge& e : g.edges(u)) {
      if (!e.two_way) continue;
      const RouterIndex v = e.to;
      if (v == self || !in_affected(v)) continue;
      const int nd = duu + e.cost;
      if (nd < a.dist[v]) {
        a.dist[v] = nd;
        a.copy_hops(v, u);
        heap_push(a, nd, g.router_of(v).value(), v);
      } else if (nd == a.dist[v]) {
        a.unite_hops(v, u);
      }
    }
  }
}

/// Tree growth after a two-way link between `ev.u` and `ev.v` (both
/// != self) appeared; the graph already holds the edge.
///
/// Label-correcting pass seeded at the reached endpoints: every
/// improvement (a strictly smaller distance, or a first-hop set gaining
/// members at equal distance) is pushed and its children re-relaxed.
/// Improvements propagate in nondecreasing distance order, distances only
/// decrease toward their final values, and equal-distance unions only add
/// hops that some shortest path really uses — so the pass converges to
/// exactly the full-Dijkstra fixpoint without touching unaffected nodes.
void repair_link_up(const LinkStateGraph& g, RouterIndex self, SpfArrays& a,
                    const GraphEvent& ev) {
  a.heap.clear();
  if (a.distance(ev.u) != SpfArrays::kUnreached) {
    heap_push(a, a.dist[ev.u], g.router_of(ev.u).value(), ev.u);
  }
  if (a.distance(ev.v) != SpfArrays::kUnreached) {
    heap_push(a, a.dist[ev.v], g.router_of(ev.v).value(), ev.v);
  }
  while (!a.heap.empty()) {
    const SpfArrays::HeapItem item = heap_pop(a);
    const RouterIndex u = item.node;
    if (a.distance(u) == SpfArrays::kUnreached || item.dist > a.dist[u]) {
      continue;  // stale entry
    }
    const int du = a.dist[u];
    for (const DenseEdge& e : g.edges(u)) {
      if (!e.two_way) continue;
      const RouterIndex v = e.to;
      if (v == self) continue;
      const int nd = du + e.cost;
      a.touch(v);
      if (nd < a.dist[v]) {
        a.dist[v] = nd;
        a.copy_hops(v, u);
        heap_push(a, nd, g.router_of(v).value(), v);
      } else if (nd == a.dist[v] && a.unite_hops(v, u)) {
        heap_push(a, nd, g.router_of(v).value(), v);
      }
    }
  }
}

}  // namespace

std::vector<Route> SpfSolver::run(const Lsdb& lsdb, net::Ipv4Addr self,
                                  const std::vector<LocalAdjacency>& adjacency) {
  const LinkStateGraph& g = lsdb.graph();
  const RouterIndex self_index = g.index_of(self);
  last_incremental_ = false;
  if (self_index == kNoRouter) {
    have_state_ = false;
    return {};
  }
  const SelfView view = build_self_view(adjacency);

  // Classify the delta since the cached tree. Anything not provably
  // confined to one two-way link away from `self` falls back to a full
  // run; origin-only (one-way) churn elsewhere is invisible to this
  // router's SPF and is skipped outright.
  bool incremental = false;
  const GraphEvent* structural = nullptr;
  GraphEvent structural_storage;
  if (have_state_ && graph_ == &g && self_index_ == self_index &&
      !g.has_nonpositive_cost() && last_adjacency_ == adjacency) {
    events_.clear();
    if (g.changes_since(last_version_, events_)) {
      bool confined = true;
      int structural_count = 0;
      for (const GraphEvent& ev : events_) {
        if (ev.u == self_index || ev.v == self_index) {
          confined = false;
          break;
        }
        switch (ev.kind) {
          case GraphEventKind::kOriginOnly:
            break;  // one-way membership change away from self: no effect
          case GraphEventKind::kCostChange:
            confined = false;
            break;
          case GraphEventKind::kLinkUp:
          case GraphEventKind::kLinkDown:
            // Subtree repair needs strictly positive costs on both
            // directions (also covers edges already gone from the graph,
            // which has_nonpositive_cost no longer counts).
            if (ev.cost_uv <= 0 || ev.cost_vu <= 0) {
              confined = false;
              break;
            }
            ++structural_count;
            structural_storage = ev;
            structural = &structural_storage;
            break;
        }
        if (!confined) break;
      }
      incremental = confined && structural_count <= 1;
      if (structural_count == 0) structural = nullptr;
    }
  }

  if (incremental) {
    arrays_.ensure(g.node_count());
    if (structural != nullptr) {
      if (structural->kind == GraphEventKind::kLinkDown) {
        repair_link_down(g, self_index, view, arrays_, *structural, affected_,
                         stack_, affected_mark_, affected_epoch_,
                         settled_mark_, settled_epoch_);
      } else {
        repair_link_up(g, self_index, arrays_, *structural);
      }
    }
    last_incremental_ = true;
  } else {
    dijkstra_full(g, self_index, view, arrays_);
  }

  graph_ = &g;
  last_version_ = g.version();
  self_index_ = self_index;
  last_adjacency_ = adjacency;
  have_state_ = true;
  return emit_routes(g, self_index, view, arrays_);
}

}  // namespace f2t::routing
