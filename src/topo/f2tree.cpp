#include "topo/f2tree.hpp"

#include <stdexcept>
#include <string>

#include "topo/addressing.hpp"

namespace f2t::topo {

BuiltTopology build_f2tree_scaled(net::Network& network,
                                  const F2TreeScaledOptions& options) {
  const int n = options.ports;
  if (n < 6 || n % 2 != 0) {
    throw std::invalid_argument(
        "f2tree scaled: ports must be even and >= 6 "
        "(N=4 leaves no room for a ToR ring pod)");
  }
  const int half = n / 2;
  const int pods = n - 2;
  const int tors_per_pod = half - 1;
  const int cores_per_group = half - 1;
  const int hosts_per_tor =
      options.hosts_per_tor >= 0 ? options.hosts_per_tor : half;
  // Backup routes must cover every host subnet, so the rewired topology is
  // bounded by the prefix chain's reach, not the full address plan.
  if (pods * tors_per_pod > AddressPlan::kMaxBackupCoveredTors ||
      hosts_per_tor > AddressPlan::kMaxHostsPerTor) {
    throw std::invalid_argument("f2tree scaled: exceeds address plan capacity");
  }

  BuiltTopology topo;
  topo.network = &network;
  topo.kind = TopologyKind::kF2Tree;
  topo.ports = n;
  topo.f2 = true;
  topo.ring_width = 2;

  for (int c = 0; c < half * cores_per_group; ++c) {
    topo.cores.push_back(&network.add_switch("core" + std::to_string(c),
                                             AddressPlan::core_router_id(c)));
  }
  topo.core_groups.resize(static_cast<std::size_t>(half));
  for (int j = 0; j < half; ++j) {
    for (int i = 0; i < cores_per_group; ++i) {
      topo.core_groups[static_cast<std::size_t>(j)].push_back(
          topo.cores[static_cast<std::size_t>(j * cores_per_group + i)]);
    }
  }

  for (int p = 0; p < pods; ++p) {
    BuiltTopology::Pod pod;
    for (int a = 0; a < half; ++a) {
      const int agg_index = p * half + a;
      pod.aggs.push_back(
          &network.add_switch("agg" + std::to_string(agg_index),
                              AddressPlan::agg_router_id(agg_index)));
    }
    for (int t = 0; t < tors_per_pod; ++t) {
      const int tor_index = p * tors_per_pod + t;
      pod.tors.push_back(
          &network.add_switch("tor" + std::to_string(tor_index),
                              AddressPlan::tor_router_id(tor_index)));
    }
    topo.aggs.insert(topo.aggs.end(), pod.aggs.begin(), pod.aggs.end());
    topo.tors.insert(topo.tors.end(), pod.tors.begin(), pod.tors.end());
    topo.pods.push_back(std::move(pod));
  }

  // Full agg x tor bipartite graph inside each pod: every agg spends
  // N/2 - 1 downward ports, every ToR spends N/2 upward ports.
  for (const auto& pod : topo.pods) {
    for (net::L3Switch* agg : pod.aggs) {
      for (net::L3Switch* tor : pod.tors) {
        network.connect_default(*agg, *tor);
      }
    }
  }

  // Agg j of every pod connects to all N/2 - 1 cores of group j.
  for (const auto& pod : topo.pods) {
    for (std::size_t a = 0; a < pod.aggs.size(); ++a) {
      for (net::L3Switch* core : topo.core_groups[a]) {
        network.connect_default(*pod.aggs[a], *core);
      }
    }
  }

  for (const auto& pod : topo.pods) build_ring(network, topo, pod.aggs, 2);
  for (const auto& group : topo.core_groups) {
    build_ring(network, topo, group, 2);
  }

  attach_hosts(network, topo, hosts_per_tor);
  return topo;
}

}  // namespace f2t::topo
