#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "net/host.hpp"

namespace f2t::transport {

class TcpEndpoint;

/// Per-host transport demultiplexer.
///
/// Owns the host's packet handler and routes arrivals to bound UDP sockets
/// or registered TCP endpoints by (remote address, remote port, local
/// port). One HostStack is created per host by the experiment harness.
class HostStack {
 public:
  using UdpHandler = std::function<void(const net::Packet&)>;

  explicit HostStack(net::Host& host);

  net::Host& host() { return host_; }
  sim::Simulator& simulator() { return host_.simulator(); }

  void bind_udp(std::uint16_t port, UdpHandler handler);
  void unbind_udp(std::uint16_t port);

  void register_tcp(net::Ipv4Addr remote, std::uint16_t remote_port,
                    std::uint16_t local_port, TcpEndpoint* endpoint);
  void unregister_tcp(net::Ipv4Addr remote, std::uint16_t remote_port,
                      std::uint16_t local_port);

  /// Allocates an ephemeral port (49152...). Never reused within a run.
  std::uint16_t alloc_port();

  /// Stamps common fields and transmits via the host uplink.
  void send(net::Packet packet);

  std::uint64_t unmatched_packets() const { return unmatched_; }

 private:
  static std::uint64_t tcp_key(net::Ipv4Addr remote, std::uint16_t remote_port,
                               std::uint16_t local_port);
  void on_packet(net::Packet packet);

  net::Host& host_;
  std::unordered_map<std::uint16_t, UdpHandler> udp_;
  std::unordered_map<std::uint64_t, TcpEndpoint*> tcp_;
  std::uint16_t next_port_ = 49152;
  std::uint64_t unmatched_ = 0;
};

}  // namespace f2t::transport
