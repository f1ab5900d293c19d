#pragma once

#include <cstdint>
#include <unordered_map>

#include "routing/fib.hpp"

namespace f2t::routing {

/// Memoizes fully resolved LPM lookups, keyed by destination address.
///
/// Every per-hop forwarding decision funnels through `Fib::lookup_into`; in
/// the steady state the answer for a given destination only changes when
/// the FIB is written or a local port's detected state flips. The cache stores
/// the resolved next-hop set stamped with the *combined generation* it was
/// computed under — `Fib::generation()` plus the owner's port-state epoch —
/// and treats any stamp mismatch as a miss. That makes invalidation exact
/// without hooks: a FIB write bumps the FIB generation, a
/// `set_port_detected` transition bumps the port epoch, and either bump
/// invalidates every cached resolution at once.
///
/// Correctness note (F²Tree §II-B): the backup fall-through — /24 dead,
/// forward via the /16 static — happens with *zero FIB writes*; only the
/// detected port state changes. Folding the port epoch into the stamp is
/// therefore load-bearing: a cache keyed on the FIB generation alone would
/// keep steering packets into the dead /24 until the control plane
/// eventually rewrote the FIB, erasing exactly the effect the paper
/// measures.
///
/// The control plane cooperates from the other side: SPF results are
/// installed through `Fib::apply_source_delta`, so a recompute that does
/// not change the route set performs no FIB write, leaves the generation
/// alone, and keeps every entry here warm — periodic no-op reinstalls no
/// longer flush the cache.
class ResolvedRouteCache {
 public:
  /// Resolved usable next hops for `dst` under the current combined
  /// generation. Consults the cache first; on miss re-walks the FIB via
  /// `lookup_into` and stores the result (empty results are cached too).
  /// The returned reference is valid until the next `resolve` or `clear`.
  const Fib::HopVec& resolve(const Fib& fib, net::Ipv4Addr dst,
                             Fib::PortStateView ports,
                             std::uint64_t port_epoch);

  void clear();

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::size_t size() const { return entries_.size(); }

  /// RouteSource of the most recent `resolve` (cached alongside the hop
  /// set, so reading it costs nothing extra on hits). kStatic means the
  /// last resolution fell through to an F²Tree backup route. Meaningless
  /// when the last resolve returned an empty hop set.
  RouteSource last_source() const { return last_source_; }

 private:
  // Safety valve: one entry per destination actually forwarded to, so
  // growth is bounded by the host count in any real experiment; the cap
  // only guards against adversarial destination scans.
  static constexpr std::size_t kMaxEntries = 1u << 20;

  struct Entry {
    std::uint64_t generation = ~std::uint64_t{0};  // never a real stamp
    RouteSource source = RouteSource::kConnected;
    Fib::HopVec hops;
  };

  std::unordered_map<std::uint32_t, Entry> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  RouteSource last_source_ = RouteSource::kConnected;
};

}  // namespace f2t::routing
