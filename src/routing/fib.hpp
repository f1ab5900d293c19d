#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "routing/route.hpp"
#include "routing/smallvec.hpp"

namespace f2t::routing {

/// Forwarding Information Base with longest-prefix match and next-hop
/// liveness fallback.
///
/// This structure encodes the mechanism at the heart of F²Tree (§II-B of
/// the paper): the lookup walks prefix lengths longest-first and *skips*
/// any entry whose next hops are all locally detected down, so that a /24
/// learned from OSPF with a dead downlink falls through to the
/// pre-installed /16 static backup (right across neighbour) and then to the
/// /15 (left across neighbour) — with no control-plane involvement and no
/// FIB write. ECMP's failed-member elimination for upward links is the
/// same filter applied within one entry's next-hop set.
///
/// One entry is stored per (prefix, source); forwarding uses the best
/// source (lowest administrative distance) per prefix, like a real RIB→FIB
/// selection. Each prefix length holds one flat array of entries sorted by
/// (address, administrative distance), so the first entry at an address
/// is its best source; a bitmask tracks which lengths are populated, and
/// `lookup_into` binary-searches them without touching the heap — the
/// data-plane fast path.
class Fib {
 public:
  /// ECMP groups wider than this spill to the heap; production fabrics in
  /// the paper use 2-wide groups, fat trees up to k/2.
  static constexpr std::size_t kInlineHops = 4;
  using HopVec = SmallVec<NextHop, kInlineHops>;

  /// Zero-cost view over a switch's detected-port-state vector, telling
  /// whether a local egress port is usable (not detected down). Ports
  /// beyond the vector's size are considered up, matching the lazily-grown
  /// default in `net::L3Switch`. A null vector means "all ports up".
  struct PortStateView {
    const std::vector<bool>* up = nullptr;

    bool operator()(net::PortId p) const {
      return up == nullptr || p >= up->size() || (*up)[p];
    }
  };

  /// Installs or replaces the route for (route.prefix, route.source).
  void install(Route route);

  /// Removes the entry for (prefix, source). No-op if absent.
  void remove(const net::Prefix& prefix, RouteSource source);

  /// Diffs `routes` — the complete desired set for `source` — against the
  /// installed entries and touches only the changed slots: unchanged
  /// entries are left alone, changed/new ones installed, and entries of
  /// `source` absent from `routes` removed. Returns the number of slots
  /// written (installs + removals). The final FIB state is that of
  /// removing every route of `source` and installing `routes` in order
  /// (a prefix named twice keeps its last route), but an empty delta
  /// writes no slot, rebuilds no array and does not move `generation()` —
  /// which is what keeps `ResolvedRouteCache` entries warm across no-op
  /// SPF reinstalls.
  std::size_t apply_source_delta(RouteSource source, std::vector<Route> routes);

  /// Longest-prefix match over *usable* entries, without allocating:
  /// appends to `out` (which the caller clears) the usable next hops of
  /// the longest prefix containing `dst` whose best-source entry has at
  /// least one next hop on a port `ports` reports up. Falls through to
  /// shorter prefixes otherwise.
  void lookup_into(net::Ipv4Addr dst, PortStateView ports, HopVec& out) const;

  /// As above, additionally reporting which RouteSource the matched entry
  /// came from (untouched when no route matched). kStatic means a
  /// pre-installed F²Tree backup answered — the observability layer's
  /// "backup activated" signal.
  void lookup_into(net::Ipv4Addr dst, PortStateView ports, HopVec& out,
                   RouteSource& source) const;

  /// Monotone counter bumped by every write (`install`, `remove`, and
  /// each slot `apply_source_delta` touches). Callers memoizing
  /// resolved lookups (see `ResolvedRouteCache`) compare generations
  /// instead of registering invalidation hooks.
  std::uint64_t generation() const { return generation_; }

  /// Observer fired after every mutation that moves `generation()` (once
  /// per written slot). Hooks must not mutate the FIB: they may run while
  /// a bulk operation is mid-flight, so the useful pattern is to set a
  /// dirty flag and re-read state later (the fluid transport model does
  /// exactly that). No hooks are installed by default, so the mutation
  /// paths pay a single empty-vector test.
  void add_change_hook(std::function<void()> hook) {
    if (hook) change_hooks_.push_back(std::move(hook));
  }

  /// Exact-match query of the installed route (ignoring liveness).
  std::optional<Route> find(const net::Prefix& prefix, RouteSource source) const;

  /// All installed routes (every source), sorted by prefix then source;
  /// for dumps and tests.
  std::vector<Route> dump() const;

  std::size_t size() const { return count_; }

 private:
  /// One (prefix, source) route at a known length; 32 bytes, no
  /// allocation of its own.
  struct Entry {
    std::uint32_t address;
    RouteSource source;
    NextHopGroup next_hops;
  };
  static_assert(sizeof(Entry) == 32);
  using Entries = std::vector<Entry>;

  /// Merges the routes [first, last) of `source`, all of prefix length
  /// `length` and sorted by address, into that length's entries; returns
  /// the number of slots written. Touches the array, and notes the
  /// writes, only when some slot changes: a merge that only replaces
  /// groups assigns them in place, any other rebuilds the array.
  std::size_t merge_length(std::size_t length, RouteSource source,
                           std::vector<Route>::iterator first,
                           std::vector<Route>::iterator last);

  void lookup_walk(net::Ipv4Addr dst, PortStateView ports, HopVec& out,
                   RouteSource* source_out) const;

  /// Accounts for `slots` written slots: one generation bump and one
  /// call of every change hook each.
  void note_writes(std::size_t slots);

  // One sorted entry array per prefix length; lookup searches lengths
  // 32..0, skipping empty lengths via the bitmask (bit l set iff
  // by_length_[l] nonempty).
  std::array<Entries, 33> by_length_;
  std::uint64_t nonempty_lengths_ = 0;
  std::size_t count_ = 0;
  std::uint64_t generation_ = 0;
  std::vector<std::function<void()>> change_hooks_;
};

}  // namespace f2t::routing
