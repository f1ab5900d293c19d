#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/ipv4.hpp"
#include "sim/time.hpp"

namespace f2t::net {

enum class Protocol : std::uint8_t { kUdp, kTcp, kRouting };

/// TCP flag bits (subset the model uses).
struct TcpFlags {
  static constexpr std::uint8_t kSyn = 0x1;
  static constexpr std::uint8_t kAck = 0x2;
  static constexpr std::uint8_t kFin = 0x4;
  static constexpr std::uint8_t kEce = 0x8;  ///< ECN echo (DCTCP mode)
};

/// TCP header fields carried inline in the packet. Sequence numbers are
/// 64-bit byte offsets — the model never wraps, unlike real TCP, which
/// keeps long-simulation bookkeeping simple.
struct TcpSegment {
  std::uint64_t seq = 0;            ///< first payload byte's sequence number
  std::uint64_t ack = 0;            ///< cumulative ACK (valid if kAck set)
  std::uint32_t payload_bytes = 0;  ///< bytes of application payload
  std::uint8_t flags = 0;
};

/// Base for control-plane payloads (e.g. routing LSAs). The net layer does
/// not know the concrete types; the routing layer downcasts on delivery.
struct ControlPayload {
  virtual ~ControlPayload() = default;
};

/// A simulated packet. Copied by value; the only indirection is the
/// shared control payload, so data packets are cheap to move around.
struct Packet {
  /// Unique within the run (sim::Simulator::next_packet_uid).
  std::uint64_t uid = 0;
  Ipv4Addr src;
  Ipv4Addr dst;
  Protocol proto = Protocol::kUdp;
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  std::uint32_t size_bytes = 0;  ///< wire size, headers included
  std::uint8_t ttl = 64;
  std::uint8_t hops = 0;            ///< links traversed so far
  bool ecn_ce = false;              ///< congestion-experienced mark
  sim::Time sent_at = 0;            ///< stamped by the originating app
  std::uint32_t udp_seq = 0;        ///< UDP app sequence number
  TcpSegment tcp;                   ///< valid when proto == kTcp
  std::shared_ptr<const ControlPayload> control;  ///< valid when kRouting

  std::string describe() const;
};

/// Standard header overhead used when sizing segments (Ethernet + IP + TCP).
inline constexpr std::uint32_t kTcpHeaderBytes = 54;
inline constexpr std::uint32_t kUdpHeaderBytes = 42;
inline constexpr std::uint32_t kMss = 1448;  ///< as in the paper's flows

}  // namespace f2t::net
