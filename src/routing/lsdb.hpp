#pragma once

#include <unordered_map>
#include <vector>

#include "routing/lsa.hpp"
#include "routing/lsgraph.hpp"

namespace f2t::routing {

/// Link-state database: newest LSA per origin.
///
/// Alongside the LSA map the database maintains a `LinkStateGraph` — a
/// dense router graph with the two-way check precomputed per edge —
/// patched in place by every accepted LSA. SPF consumers (`compute_spf`,
/// `reverse_spf_rows`, `lsdb_reachable`) run on the graph instead of
/// rescanning LSAs, and the graph's change log is what lets
/// `stale_columns` pick the distance columns a batch of changes can move.
class Lsdb {
 public:
  /// Installs `lsa` if it is newer than what we hold for its origin.
  /// Returns true when the database changed (caller should re-flood and
  /// schedule SPF).
  bool consider(LsaPtr lsa);

  const Lsa* find(net::Ipv4Addr origin) const;

  /// Newest known sequence for an origin (0 if unknown).
  std::uint64_t sequence_of(net::Ipv4Addr origin) const;

  std::vector<LsaPtr> all() const;
  std::size_t size() const { return by_origin_.size(); }

  /// The dense graph kept in sync with the accepted LSAs.
  const LinkStateGraph& graph() const { return graph_; }

 private:
  std::unordered_map<net::Ipv4Addr, LsaPtr> by_origin_;
  LinkStateGraph graph_;
};

}  // namespace f2t::routing
