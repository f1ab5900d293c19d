#include "routing/lsgraph.hpp"

#include <algorithm>

namespace f2t::routing {

void SpfArrays::begin(std::size_t n, std::size_t neighbors) {
  // Every slot goes stale below, so changing the set width (a router with
  // a different neighbor count reusing the scratch) needs no copy.
  hop_words = std::max<std::size_t>(1, (neighbors + 63) / 64);
  if (hops.size() < n * hop_words) hops.resize(n * hop_words, 0u);
  if (dist.size() < n) {
    dist.resize(n, kUnreached);
    stamp.resize(n, 0u);
  }
  if (++epoch == 0) {
    // Stamp wrap: a hard reset keeps `stamp[i] == epoch` unambiguous.
    std::fill(stamp.begin(), stamp.end(), 0u);
    epoch = 1;
  }
  queue.clear();
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

void LinkStateGraph::record(GraphEventKind kind, RouterIndex u,
                            RouterIndex v) {
  events_.push_back(GraphEvent{kind, u, v});
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

void LinkStateGraph::apply(const LsaPtr& lsa) {
  const RouterIndex u = intern(lsa->origin);

  // The new LSA's distinct peers. Parallel links to one peer are one
  // router-level adjacency: at equal cost a duplicate adds no path and no
  // first hop, so the graph keeps one edge per pair.
  std::vector<RouterIndex> want;
  want.reserve(lsa->links.size());
  for (const net::Ipv4Addr peer : lsa->links) {
    const RouterIndex v = intern(peer);
    if (std::find(want.begin(), want.end(), v) == want.end()) {
      want.push_back(v);
    }
  }

  lsas_[u] = lsa;

  // Removals: the edges to peers the LSA no longer lists.
  std::vector<DenseEdge>& out = adj_[u];
  for (std::size_t i = 0; i < out.size();) {
    const DenseEdge e = out[i];
    if (std::find(want.begin(), want.end(), e.to) != want.end()) {
      ++i;
      continue;
    }
    out[i] = out.back();
    out.pop_back();  // re-examine the swapped-in edge at index i
    if (e.two_way) {
      // The edge back must exist: two_way means e.to advertises u.
      find_edge_mut(e.to, u)->two_way = false;
      record(GraphEventKind::kLinkDown, u, e.to);
    } else {
      record(GraphEventKind::kOriginOnly, u, e.to);
    }
  }

  // Additions: every wanted peer that has no edge yet.
  for (const RouterIndex v : want) {
    if (find_edge(u, v) != nullptr) continue;
    DenseEdge* back = find_edge_mut(v, u);
    if (back != nullptr) back->two_way = true;
    out.push_back(DenseEdge{v, back != nullptr});
    record(back != nullptr ? GraphEventKind::kLinkUp
                           : GraphEventKind::kOriginOnly,
           u, v);
  }
}

}  // namespace f2t::routing
