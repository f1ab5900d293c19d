#include "net/l3switch.hpp"

#include "sim/logging.hpp"

namespace f2t::net {

namespace {

/// Logs a forwarding drop at debug level. Out of line and cold, so the
/// message's stream stays off forward()'s per-hop frame.
[[gnu::cold, gnu::noinline]] void log_drop(L3Switch& sw, const Packet& packet,
                                           L3Switch::DropReason reason) {
  sim::Simulator& simulator = sw.simulator();
  if (reason == L3Switch::DropReason::kTtlExpired) {
    F2T_LOG(simulator.logger(), sim::LogLevel::kDebug, simulator.now(),
            sw.name() << ": TTL expired for " << packet.describe());
  } else {
    F2T_LOG(simulator.logger(), sim::LogLevel::kDebug, simulator.now(),
            sw.name() << ": no route for " << packet.dst.str());
  }
}

}  // namespace

L3Switch::L3Switch(sim::Simulator& simulator, NodeId id, std::string name,
                   Ipv4Addr router_id)
    : Node(simulator, id, std::move(name)), router_id_(router_id) {}

void L3Switch::ensure_port_state(PortId p) const {
  if (detected_up_.size() <= p) detected_up_.resize(p + 1u, true);
}

bool L3Switch::port_detected_up(PortId p) const {
  ensure_port_state(p);
  return detected_up_[p];
}

void L3Switch::set_port_detected(PortId p, bool up) {
  ensure_port_state(p);
  if (detected_up_[p] == up) return;
  detected_up_[p] = up;
  // Every transition invalidates the resolved-route cache: the paper's
  // backup fall-through must engage on the very next lookup with zero FIB
  // writes, so detection alone has to change the cache stamp.
  ++port_epoch_;
  F2T_LOG(sim_.logger(), sim::LogLevel::kDebug, sim_.now(),
          name() << ": port " << p << (up ? " detected up" : " detected down"));
  for (const auto& handler : port_state_handlers_) handler(p, up);
}

const routing::Fib::HopVec& L3Switch::resolve_next_hops(Ipv4Addr dst) const {
  return route_cache_.resolve(fib_, dst,
                              routing::Fib::PortStateView{&detected_up_},
                              port_epoch_);
}

void L3Switch::receive(PortId p, Packet packet) {
  if (packet.proto == Protocol::kRouting) {
    ++counters_.control_in;
    for (const ControlHandler& handler : control_handlers_) {
      handler(p, packet);
    }
    return;
  }
  forward(std::move(packet), p);
}

bool L3Switch::forward(Packet packet, PortId ingress) {
  // Drop handlers, taps and the log see the TTL this hop leaves the
  // packet with: one less, or 0 when it dies here.
  const Decision decision = decide(packet);
  switch (decision.kind) {
    case Decision::Kind::kForward:
      break;
    case Decision::Kind::kConsumed:
      ++counters_.local_delivered;
      return true;
    case Decision::Kind::kTtlExpired:
      packet.ttl = 0;
      ++counters_.dropped_ttl;
      if (drop_handler_) drop_handler_(packet, DropReason::kTtlExpired);
      log_drop(*this, packet, DropReason::kTtlExpired);
      return false;
    case Decision::Kind::kNoRoute:
      --packet.ttl;
      ++counters_.dropped_no_route;
      if (drop_handler_) drop_handler_(packet, DropReason::kNoRoute);
      log_drop(*this, packet, DropReason::kNoRoute);
      return false;
  }
  --packet.ttl;
  ++counters_.forwarded;
  for (const ForwardTap& tap : forward_taps_) {
    tap(packet, ingress, decision.egress);
  }
  send(decision.egress, std::move(packet));
  return true;
}

}  // namespace f2t::net
