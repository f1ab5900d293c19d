#pragma once

#include <cstdint>
#include <vector>

#include "net/ids.hpp"
#include "routing/lsdb.hpp"
#include "routing/lsgraph.hpp"
#include "routing/route.hpp"

namespace f2t::net {
class L3Switch;
}

namespace f2t::routing {

/// Inputs describing the computing router's own attachment points:
/// every local port that faces another router, with the peer's id.
/// Only detected-up ports should be listed.
struct LocalAdjacency {
  net::PortId port = net::kInvalidPort;
  net::Ipv4Addr neighbor;

  friend bool operator==(const LocalAdjacency&, const LocalAdjacency&) =
      default;
};

/// `sw`'s detected-up ports that face another router, in port order: the
/// adjacency its SPF may trust.
std::vector<LocalAdjacency> live_adjacency(const net::L3Switch& sw);

/// The links `sw`'s LSA advertises: one cost-1 link per distinct peer in
/// live_adjacency(sw), in port order. Adjacencies are router-level, so
/// parallel links collapse into one.
std::vector<LsaLink> live_links(const net::L3Switch& sw);

/// Shortest-path-first calculation (Dijkstra with ECMP).
///
/// Edges require two-way agreement (u lists v AND v lists u), as in OSPF,
/// so a router whose LSA is stale cannot attract traffic over a dead link
/// for longer than flooding takes. For every destination router, all
/// equal-cost first hops are retained; routes are emitted for each prefix
/// the destination redistributes, mapping first-hop routers back to the
/// local ports in `adjacency` (parallel links to the same neighbor all
/// become next hops, which is how the testbed's doubled across links form
/// a 2-wide ECMP group). Destinations with the same first-hop set share
/// one next-hop group, listed in the FIB's canonical order.
///
/// Runs on the LSDB's dense link-state graph: the two-way check is read
/// from precomputed per-edge flags and the per-run state lives in flat
/// index-addressed arrays (the graph's shared scratch), so a run performs
/// no hashing and no per-run clearing.
std::vector<Route> compute_spf(const Lsdb& lsdb, net::Ipv4Addr self,
                               const std::vector<LocalAdjacency>& adjacency);

/// Distance rows for destination-based route computation: for each listed
/// column d (an index into `destinations`), every router's shortest
/// distance *to* destinations[d] over the two-way edges, with an edge x→y
/// costing x's advertised cost (as `compute_spf` run at x would count
/// it). `rows` is node-major: rows[r · destinations.size() + d] is the
/// distance from routers[r] to destinations[d], or SpfArrays::kUnreached.
/// It is resized to routers.size() · destinations.size() entries, the
/// listed columns are filled and every other entry keeps its value. Every
/// entry of `routers` and `destinations` must be a router of `g`. The
/// listed columns are searched in ascending order, 64 per pass of one
/// reverse Dial bucket queue with (largest two-way cost + 1) buckets, each
/// queued router carrying the set of the pass's columns that reached it:
/// exact for any non-negative integer costs, sized for a fabric's small
/// ones. Throws std::invalid_argument on a negative cost or a router
/// listed twice in `routers`.
void reverse_spf_rows(const LinkStateGraph& g,
                      const std::vector<RouterIndex>& routers,
                      const std::vector<RouterIndex>& destinations,
                      const std::vector<std::size_t>& columns,
                      std::vector<int>& rows);

/// The columns of `rows` that the graph's changes since version `since`
/// can move, ascending, for `reverse_spf_rows` to refill: `rows` must be
/// what it filled for (routers, destinations) on the graph at `since`.
/// Every column is listed when the rule below cannot be applied: `rows`
/// has another shape, the log was trimmed past `since`, a cost changed
/// or is not positive, or a router of `g` has no row. Uses the rule
/// documented at its definition in spf.cpp, which is exact for positive
/// costs: every column it leaves out already holds the new distances.
void stale_columns(const LinkStateGraph& g, std::uint64_t since,
                   const std::vector<RouterIndex>& routers,
                   const std::vector<RouterIndex>& destinations,
                   const std::vector<int>& rows,
                   std::vector<std::size_t>& columns);

/// Reachability probe on the LSDB graph (two-way check applied); used by
/// tests and topology validation.
bool lsdb_reachable(const Lsdb& lsdb, net::Ipv4Addr from, net::Ipv4Addr to);

/// Incremental SPF engine: one instance per computing router.
///
/// `run` returns exactly what `compute_spf` would return for the same
/// (lsdb, self, adjacency) inputs — that equivalence is the contract,
/// enforced by tests/test_spf_incremental.cpp. Internally the solver keeps
/// the previous run's shortest-path tree and, when the graph's event log
/// shows the delta since then is a single two-way link coming up or going
/// down away from `self`, repairs only the affected subtree instead of
/// re-running global Dijkstra.
///
/// Fallback to a full run happens whenever confinement cannot be proven:
/// first run, event log trimmed, any cost change, any event touching
/// `self` (its relaxation trusts local adjacency, not the two-way set),
/// a changed local adjacency, more than one structural event, or any
/// non-positive cost in the database (subtree repair assumes parents are
/// strictly closer than children). Prefix-only LSA churn produces no
/// graph events, so the cached tree is reused and only route emission
/// re-runs.
class SpfSolver {
 public:
  /// Computes this router's OSPF routes. Always equivalent to
  /// `compute_spf(lsdb, self, adjacency)`.
  std::vector<Route> run(const Lsdb& lsdb, net::Ipv4Addr self,
                         const std::vector<LocalAdjacency>& adjacency);

  /// True when the previous `run` repaired the cached tree instead of
  /// recomputing it (including the no-structural-change case).
  bool last_run_incremental() const { return last_incremental_; }

  /// Drops the cached tree; the next `run` recomputes from scratch.
  void reset() { have_state_ = false; }

 private:
  // Identity of the graph the cached tree was computed on. Compared by
  // address: a different (or reconstructed) Lsdb invalidates the state.
  const LinkStateGraph* graph_ = nullptr;
  std::uint64_t last_version_ = 0;
  RouterIndex self_index_ = kNoRouter;
  std::vector<LocalAdjacency> last_adjacency_;
  bool have_state_ = false;
  bool last_incremental_ = false;

  SpfArrays arrays_;  ///< persistent shortest-path tree, epoch-stamped

  // Repair scratch, reused across runs (see spf.cpp for the algorithms).
  std::vector<GraphEvent> events_;
  std::vector<RouterIndex> affected_;
  std::vector<RouterIndex> stack_;
  std::vector<std::uint32_t> affected_mark_;
  std::uint32_t affected_epoch_ = 0;
  std::vector<std::uint32_t> settled_mark_;
  std::uint32_t settled_epoch_ = 0;
};

}  // namespace f2t::routing
