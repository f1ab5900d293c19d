#pragma once

#include <unordered_map>
#include <vector>

#include "net/network.hpp"

namespace f2t::net {

/// How a predicted walk ends: the packet engine's outcome for the same
/// packet, with kWrongHost for a host that is not the destination.
enum class WalkEnd : std::uint8_t {
  kDelivered,   ///< reached the destination host
  kConsumed,    ///< addressed to a switch's router id
  kTtlExpired,  ///< the TTL ran out: a forwarding loop
  kNoRoute,     ///< a switch had no usable next hop
  kWrongHost,   ///< forwarded into a host that is not the destination
};

/// Predicts, without sending anything, the path `packet` takes once
/// `from` transmits it out of `port` carrying `packet.ttl`: each switch
/// it reaches applies L3Switch::decide, as its receive() would, so the
/// TTL bounds the walk as it bounds the packet. `cross(link, from, ttl)`
/// sees every link crossed, in order, with the TTL carried over it.
/// Reads the live routing state only (FIBs and detected port state; a
/// physically dead link does not stop the walk) and writes nothing but
/// the switches' route caches.
template <typename Cross>
WalkEnd walk_path(const Node& from, PortId port, Packet packet,
                  const Node& dst, Cross&& cross) {
  const Node* node = &from;
  for (;;) {
    const Node::PortInfo& out = node->port(port);
    cross(*out.link, *node, packet.ttl);
    const Node* next = out.link->peer_of(*node).node;
    if (next == &dst) return WalkEnd::kDelivered;
    if (!out.peer_is_switch) return WalkEnd::kWrongHost;
    const L3Switch::Decision decision =
        static_cast<const L3Switch*>(next)->decide(packet);
    switch (decision.kind) {
      case L3Switch::Decision::Kind::kForward: break;
      case L3Switch::Decision::Kind::kConsumed: return WalkEnd::kConsumed;
      case L3Switch::Decision::Kind::kTtlExpired: return WalkEnd::kTtlExpired;
      case L3Switch::Decision::Kind::kNoRoute: return WalkEnd::kNoRoute;
    }
    --packet.ttl;
    node = next;
    port = decision.egress;
  }
}

/// Data-plane packet tracer: hooks the forwarding tap of every switch in
/// a network and records each hop a packet is forwarded on. Where
/// walk_path predicts a path from the current routing state, this
/// records what the data plane actually did, including transient
/// bounces and reroutes mid-flight; a dropped packet's record ends at
/// the last switch that forwarded it. The tests use it to verify
/// fast-reroute paths packet by packet.
///
/// Tracing costs a hash-map append per forwarded packet; construct it
/// only in experiments that need it. The tracer appends its tap, so it
/// coexists with other tap users (e.g. the observability journal).
class PacketTracer {
 public:
  struct Hop {
    sim::Time at = 0;
    NodeId node = kInvalidNode;
    PortId ingress = kInvalidPort;
    PortId egress = kInvalidPort;
  };

  /// Attaches to every switch currently in the network.
  explicit PacketTracer(Network& network);

  /// Hop sequence of one packet (by uid), in forwarding order.
  const std::vector<Hop>& hops_of(std::uint64_t uid) const;

  /// Switch names visited by a packet, in order.
  std::vector<std::string> path_names(std::uint64_t uid) const;

  /// Total forwarding events recorded.
  std::size_t event_count() const { return events_; }

  /// Number of distinct packets seen.
  std::size_t packet_count() const { return by_uid_.size(); }

  /// Drops accumulated state (e.g. between experiment phases).
  void clear();

 private:
  Network& network_;
  std::unordered_map<std::uint64_t, std::vector<Hop>> by_uid_;
  std::vector<Hop> empty_;
  std::size_t events_ = 0;
};

}  // namespace f2t::net
