#include "routing/lsgraph.hpp"

#include <algorithm>

namespace f2t::routing {

void SpfArrays::ensure(std::size_t n) {
  if (hops.size() < n * hop_words) hops.resize(n * hop_words, 0u);
  if (dist.size() >= n) return;
  dist.resize(n, kUnreached);
  stamp.resize(n, 0u);
  settled.resize(n, 0u);
}

void SpfArrays::begin(std::size_t n, std::size_t neighbors) {
  // Every slot goes stale below, so changing the set width (a router with
  // a different neighbor count reusing the scratch) needs no copy.
  hop_words = std::max<std::size_t>(1, (neighbors + 63) / 64);
  ensure(n);
  if (++epoch == 0) {
    // Stamp wrap: a hard reset keeps `stamp[i] == epoch` unambiguous.
    std::fill(stamp.begin(), stamp.end(), 0u);
    std::fill(settled.begin(), settled.end(), 0u);
    epoch = 1;
  }
  heap.clear();
}

RouterIndex LinkStateGraph::intern(net::Ipv4Addr router) {
  const auto [it, inserted] =
      index_.try_emplace(router, static_cast<RouterIndex>(routers_.size()));
  if (inserted) {
    routers_.push_back(router);
    lsas_.emplace_back();
    adj_.emplace_back();
  }
  return it->second;
}

const DenseEdge* LinkStateGraph::find_edge(RouterIndex from,
                                           RouterIndex to) const {
  for (const DenseEdge& e : adj_[from]) {
    if (e.to == to) return &e;
  }
  return nullptr;
}

DenseEdge* LinkStateGraph::find_edge_mut(RouterIndex from, RouterIndex to) {
  for (DenseEdge& e : adj_[from]) {
    if (e.to == to) return &e;
  }
  return nullptr;
}

void LinkStateGraph::record(GraphEventKind kind, RouterIndex u, RouterIndex v,
                            int cost_uv, int cost_vu) {
  events_.push_back(GraphEvent{kind, u, v, cost_uv, cost_vu});
  ++version_;
  if (events_.size() > kMaxLog) {
    const std::size_t drop = events_.size() / 2;
    events_.erase(events_.begin(),
                  events_.begin() + static_cast<std::ptrdiff_t>(drop));
    log_base_ += drop;
  }
}

bool LinkStateGraph::changes_since(std::uint64_t since,
                                   std::vector<GraphEvent>& out) const {
  if (since >= version_) return true;
  if (since < log_base_) return false;  // trimmed away
  for (std::size_t i = since - log_base_; i < events_.size(); ++i) {
    out.push_back(events_[i]);
  }
  return true;
}

void LinkStateGraph::track_cost(int cost, int delta) {
  if (cost <= 0) nonpositive_entries_ += delta;
}

void LinkStateGraph::apply(const LsaPtr& lsa) {
  const RouterIndex u = intern(lsa->origin);

  // Canonical adjacency of the new LSA: router-level, min cost per peer.
  // Duplicate links to the same peer can never produce a shorter path or
  // an extra first hop than the cheapest one, so collapsing them keeps
  // SPF results identical while giving the graph one edge per pair.
  struct Want {
    RouterIndex to;
    int cost;
  };
  std::vector<Want> want;
  want.reserve(lsa->links.size());
  for (const LsaLink& link : lsa->links) {
    const RouterIndex v = intern(link.neighbor);
    bool merged = false;
    for (Want& w : want) {
      if (w.to == v) {
        w.cost = std::min(w.cost, link.cost);
        merged = true;
        break;
      }
    }
    if (!merged) want.push_back(Want{v, link.cost});
  }

  lsas_[u] = lsa;

  std::vector<DenseEdge>& out = adj_[u];

  // Removals and cost changes: walk the existing edges against `want`.
  for (std::size_t i = 0; i < out.size();) {
    DenseEdge& e = out[i];
    const Want* kept = nullptr;
    for (const Want& w : want) {
      if (w.to == e.to) {
        kept = &w;
        break;
      }
    }
    if (kept == nullptr) {
      // u no longer advertises e.to.
      track_cost(e.cost, -1);
      const RouterIndex v = e.to;
      const int removed_cost = e.cost;
      const bool was_two_way = e.two_way;
      out[i] = out.back();
      out.pop_back();
      if (was_two_way) {
        DenseEdge* back = find_edge_mut(v, u);
        // `back` must exist: two_way means v advertises u.
        back->two_way = false;
        record(GraphEventKind::kLinkDown, u, v, removed_cost, back->cost);
      } else {
        record(GraphEventKind::kOriginOnly, u, v, removed_cost, 0);
      }
      continue;  // re-examine the swapped-in edge at index i
    }
    if (kept->cost != e.cost) {
      track_cost(e.cost, -1);
      track_cost(kept->cost, +1);
      const int old_cost = e.cost;
      e.cost = kept->cost;
      if (e.two_way) {
        find_edge_mut(e.to, u)->rev_cost = kept->cost;
        record(GraphEventKind::kCostChange, u, e.to, kept->cost, e.rev_cost);
      } else {
        // One-way edges only matter to u's own SPF, but a cost change is
        // rare enough that the conservative classification is fine.
        record(GraphEventKind::kCostChange, u, e.to, kept->cost, old_cost);
      }
    }
    ++i;
  }

  // Additions: anything wanted that has no edge yet.
  for (const Want& w : want) {
    if (find_edge(u, w.to) != nullptr) continue;
    track_cost(w.cost, +1);
    DenseEdge e;
    e.to = w.to;
    e.cost = w.cost;
    if (DenseEdge* back = find_edge_mut(w.to, u); back != nullptr) {
      e.two_way = true;
      e.rev_cost = back->cost;
      back->two_way = true;
      back->rev_cost = w.cost;
      adj_[u].push_back(e);
      record(GraphEventKind::kLinkUp, u, w.to, w.cost, back->cost);
    } else {
      adj_[u].push_back(e);
      record(GraphEventKind::kOriginOnly, u, w.to, w.cost, 0);
    }
  }
}

}  // namespace f2t::routing
