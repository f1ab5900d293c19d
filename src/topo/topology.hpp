#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"

namespace f2t::topo {

enum class TopologyKind { kFatTree, kF2Tree, kLeafSpine, kVl2 };

const char* topology_kind_name(TopologyKind kind);

/// Ring attachment of one switch in an F²-rewired topology: the reserved
/// ports to its across neighbours, ordered rightward then leftward (then
/// right+2 / left-2 when the ring is 4 wide).
struct RingPorts {
  std::vector<net::PortId> right;  ///< ports toward (index+1), (index+2)…
  std::vector<net::PortId> left;   ///< ports toward (index-1), (index-2)…
};

/// Everything a built topology exposes to experiments: the layer rosters,
/// pod structure, hosts, and (for F² variants) the ring metadata needed to
/// configure backup routes and to construct the paper's failure
/// conditions.
struct BuiltTopology {
  net::Network* network = nullptr;
  TopologyKind kind = TopologyKind::kFatTree;
  int ports = 0;       ///< N, the homogeneous switch port count
  bool f2 = false;     ///< rewired with across rings?
  int ring_width = 0;  ///< 0, 2 or 4

  std::vector<net::L3Switch*> tors;
  std::vector<net::L3Switch*> aggs;
  std::vector<net::L3Switch*> cores;  ///< spines for Leaf-Spine, ints for VL2

  struct Pod {
    std::vector<net::L3Switch*> aggs;
    std::vector<net::L3Switch*> tors;
  };
  std::vector<Pod> pods;
  std::vector<std::vector<net::L3Switch*>> core_groups;

  std::vector<net::Host*> hosts;
  std::unordered_map<const net::L3Switch*, std::vector<net::Host*>>
      hosts_of_tor;
  std::unordered_map<const net::L3Switch*, net::Prefix> subnet_of_tor;

  std::unordered_map<const net::L3Switch*, RingPorts> rings;

  /// All switches, ToR first, then aggregation, then core.
  std::vector<net::L3Switch*> all_switches() const;

  /// The pod index containing an aggregation switch, or -1.
  int pod_of_agg(const net::L3Switch* sw) const;
  /// Position of an agg within its pod, or -1.
  int index_in_pod(const net::L3Switch* sw) const;

  /// ToR of a host (the peer on its uplink).
  net::L3Switch* tor_of_host(const net::Host* host) const;

  std::string summary() const;
};

// Wiring steps every builder shares. Creation order is part of a
// topology's identity (router ids, port numbers and ECMP hashes follow
// it), so each builder calls these at a fixed point.

/// Wires `members` into an across ring `width` links wide: offsets 1 to
/// width/2, every member linked to the one `offset` places on, each link
/// recorded as the sender's right port and the receiver's left port. A
/// ring of fewer than two members is left unwired.
void build_ring(net::Network& network, BuiltTopology& topo,
                const std::vector<net::L3Switch*>& members, int width);

/// Gives ToR t (in topo.tors order) its subnet AddressPlan::tor_subnet(t)
/// and attaches `hosts_per_tor` hosts "h<t>_<h>" to it.
void attach_hosts(net::Network& network, BuiltTopology& topo,
                  int hosts_per_tor);

}  // namespace f2t::topo
