#include "topo/vl2.hpp"

#include <stdexcept>
#include <string>

#include "topo/addressing.hpp"

namespace f2t::topo {

BuiltTopology build_vl2(net::Network& network, const Vl2Options& options) {
  const int n = options.ports;
  if (n < 4 || n % 2 != 0) {
    throw std::invalid_argument("vl2: ports must be even and >= 4");
  }
  const int ints = n / 2;
  const int aggs = n;
  // A pair of aggs serves N/2 dual-homed ToRs; the F² rewiring takes one
  // ToR per pair out of service to free one downward port on each agg of
  // the pair, keeping the rest dual-homed.
  const int tors_per_pair = options.f2_rewire ? n / 2 - 1 : n / 2;
  const int pairs = n / 2;
  const int tors = pairs * tors_per_pair;
  if (tors > AddressPlan::kMaxTors || aggs > AddressPlan::kMaxAggs ||
      ints > AddressPlan::kMaxCores ||
      options.hosts_per_tor > AddressPlan::kMaxHostsPerTor) {
    throw std::invalid_argument("vl2: exceeds address plan capacity");
  }
  if (options.f2_rewire && tors > AddressPlan::kMaxBackupCoveredTors) {
    throw std::invalid_argument(
        "vl2: F^2 rewiring exceeds the backup-prefix cover (256 ToRs)");
  }

  BuiltTopology topo;
  topo.network = &network;
  topo.kind = TopologyKind::kVl2;
  topo.ports = n;
  topo.f2 = options.f2_rewire;
  topo.ring_width = options.f2_rewire ? 2 : 0;

  for (int i = 0; i < ints; ++i) {
    topo.cores.push_back(&network.add_switch("int" + std::to_string(i),
                                             AddressPlan::core_router_id(i)));
  }
  topo.core_groups.push_back(topo.cores);

  for (int k = 0; k < pairs; ++k) {
    BuiltTopology::Pod pod;
    for (int j = 0; j < 2; ++j) {
      const int a = 2 * k + j;
      pod.aggs.push_back(&network.add_switch("agg" + std::to_string(a),
                                             AddressPlan::agg_router_id(a)));
    }
    for (int t = 0; t < tors_per_pair; ++t) {
      const int tor_index = k * tors_per_pair + t;
      pod.tors.push_back(
          &network.add_switch("tor" + std::to_string(tor_index),
                              AddressPlan::tor_router_id(tor_index)));
    }
    topo.aggs.insert(topo.aggs.end(), pod.aggs.begin(), pod.aggs.end());
    topo.tors.insert(topo.tors.end(), pod.tors.begin(), pod.tors.end());
    topo.pods.push_back(std::move(pod));
  }

  // Aggregation <-> intermediate full bipartite mesh. With the rewiring,
  // aggregation switch a frees one uplink (to intermediate a mod N/2).
  for (int a = 0; a < aggs; ++a) {
    for (int i = 0; i < ints; ++i) {
      if (options.f2_rewire && i == a % ints) continue;
      network.connect_default(*topo.aggs[static_cast<std::size_t>(a)],
                              *topo.cores[static_cast<std::size_t>(i)]);
    }
  }

  // Dual-homed ToRs (all in-service ToRs keep both uplinks).
  for (int k = 0; k < pairs; ++k) {
    const auto& pod = topo.pods[static_cast<std::size_t>(k)];
    for (int t = 0; t < tors_per_pair; ++t) {
      for (int j = 0; j < 2; ++j) {
        network.connect_default(*pod.aggs[static_cast<std::size_t>(j)],
                                *pod.tors[static_cast<std::size_t>(t)]);
      }
    }
  }

  // Per-pair across rings: two parallel links between the pair members
  // (exactly like a 2-agg fat-tree pod in the testbed prototype).
  if (options.f2_rewire) {
    for (const auto& pod : topo.pods) build_ring(network, topo, pod.aggs, 2);
  }

  attach_hosts(network, topo, options.hosts_per_tor);
  return topo;
}

}  // namespace f2t::topo
