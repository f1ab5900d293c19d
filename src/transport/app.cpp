#include "transport/app.hpp"

#include <stdexcept>

#include "transport/tcp.hpp"

namespace f2t::transport {

HostStack::HostStack(net::Host& host) : host_(host) {
  host_.set_packet_handler(
      [this](net::Packet packet) { on_packet(std::move(packet)); });
}

void HostStack::bind_udp(std::uint16_t port, UdpHandler handler) {
  if (!udp_.emplace(port, std::move(handler)).second) {
    throw std::invalid_argument(host_.name() + ": UDP port " +
                                std::to_string(port) + " already bound");
  }
}

void HostStack::unbind_udp(std::uint16_t port) { udp_.erase(port); }

std::uint64_t HostStack::tcp_key(net::Ipv4Addr remote,
                                 std::uint16_t remote_port,
                                 std::uint16_t local_port) {
  return (std::uint64_t{remote.value()} << 32) |
         (std::uint64_t{remote_port} << 16) | local_port;
}

void HostStack::register_tcp(net::Ipv4Addr remote, std::uint16_t remote_port,
                             std::uint16_t local_port, TcpEndpoint* endpoint) {
  if (endpoint == nullptr) {
    throw std::invalid_argument("register_tcp: null endpoint");
  }
  if (!tcp_.emplace(tcp_key(remote, remote_port, local_port), endpoint)
           .second) {
    throw std::invalid_argument(host_.name() + ": TCP 5-tuple already bound");
  }
}

void HostStack::unregister_tcp(net::Ipv4Addr remote, std::uint16_t remote_port,
                               std::uint16_t local_port) {
  tcp_.erase(tcp_key(remote, remote_port, local_port));
}

std::uint16_t HostStack::alloc_port() {
  if (next_port_ == 0) {
    throw std::length_error(host_.name() + ": ephemeral ports exhausted");
  }
  return next_port_++;
}

void HostStack::send(net::Packet packet) {
  packet.uid = simulator().next_packet_uid();
  packet.src = host_.addr();
  packet.ttl = 64;
  packet.sent_at = simulator().now();
  host_.send_up(std::move(packet));
}

void HostStack::on_packet(net::Packet packet) {
  if (packet.proto == net::Protocol::kUdp) {
    const auto it = udp_.find(packet.dport);
    if (it == udp_.end()) {
      ++unmatched_;
      return;
    }
    it->second(packet);
    return;
  }
  if (packet.proto == net::Protocol::kTcp) {
    const auto it = tcp_.find(tcp_key(packet.src, packet.sport, packet.dport));
    if (it == tcp_.end()) {
      ++unmatched_;
      return;
    }
    it->second->on_packet(packet);
    return;
  }
  ++unmatched_;  // routing packets should never reach hosts
}

}  // namespace f2t::transport
