#include "topo/leafspine.hpp"

#include <stdexcept>
#include <string>

#include "topo/addressing.hpp"

namespace f2t::topo {

BuiltTopology build_leaf_spine(net::Network& network,
                               const LeafSpineOptions& options) {
  const int n = options.ports;
  if (n < 4 || n % 2 != 0) {
    throw std::invalid_argument("leaf-spine: ports must be even and >= 4");
  }
  const int spines = n / 2;
  // The F² rewiring frees two downward ports on every spine by taking two
  // leaves out of service; the remaining leaves keep their full uplink
  // fan-out, so every spine's across neighbour still reaches every leaf.
  const int leaves = options.f2_rewire ? n - 2 : n;
  const int hosts_per_leaf =
      options.hosts_per_leaf >= 0 ? options.hosts_per_leaf : n / 2;
  if (leaves > AddressPlan::kMaxTors || spines > AddressPlan::kMaxCores ||
      hosts_per_leaf > AddressPlan::kMaxHostsPerTor) {
    throw std::invalid_argument("leaf-spine: exceeds address plan capacity");
  }
  if (options.f2_rewire && leaves > AddressPlan::kMaxBackupCoveredTors) {
    throw std::invalid_argument(
        "leaf-spine: F^2 rewiring exceeds the backup-prefix cover (256 ToRs)");
  }

  BuiltTopology topo;
  topo.network = &network;
  topo.kind = TopologyKind::kLeafSpine;
  topo.ports = n;
  topo.f2 = options.f2_rewire;
  topo.ring_width = options.f2_rewire ? 2 : 0;

  for (int s = 0; s < spines; ++s) {
    // Spines sit at the "core" tier of the generic description.
    topo.cores.push_back(&network.add_switch("spine" + std::to_string(s),
                                             AddressPlan::core_router_id(s)));
  }
  for (int l = 0; l < leaves; ++l) {
    topo.tors.push_back(&network.add_switch("leaf" + std::to_string(l),
                                            AddressPlan::tor_router_id(l)));
  }
  // One core group holding all spines: the ring (if any) spans them all.
  topo.core_groups.push_back(topo.cores);

  for (int s = 0; s < spines; ++s) {
    for (int l = 0; l < leaves; ++l) {
      network.connect_default(*topo.cores[static_cast<std::size_t>(s)],
                              *topo.tors[static_cast<std::size_t>(l)]);
    }
  }

  if (options.f2_rewire) build_ring(network, topo, topo.cores, 2);

  attach_hosts(network, topo, hosts_per_leaf);
  return topo;
}

}  // namespace f2t::topo
