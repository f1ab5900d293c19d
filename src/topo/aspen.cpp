#include "topo/aspen.hpp"

#include <stdexcept>
#include <string>

#include "topo/addressing.hpp"

namespace f2t::topo {

BuiltTopology build_aspen_tree(net::Network& network,
                               const AspenOptions& options) {
  const int n = options.ports;
  const int f = options.fault_tolerance;
  if (n < 4 || n % 2 != 0) {
    throw std::invalid_argument("aspen: ports must be even and >= 4");
  }
  if (f < 1) throw std::invalid_argument("aspen: fault tolerance must be >= 1");
  if (n % (2 * (f + 1)) != 0) {
    throw std::invalid_argument(
        "aspen: ports must be divisible by 2*(f+1)");
  }
  const int half = n / 2;
  const int pods = n / (f + 1);
  const int cores_per_group = half / (f + 1);
  const int hosts_per_tor =
      options.hosts_per_tor >= 0 ? options.hosts_per_tor : half;
  if (pods * half > AddressPlan::kMaxTors ||
      pods * half > AddressPlan::kMaxAggs ||
      half * cores_per_group > AddressPlan::kMaxCores ||
      hosts_per_tor > AddressPlan::kMaxHostsPerTor) {
    throw std::invalid_argument("aspen: exceeds address plan capacity");
  }

  BuiltTopology topo;
  topo.network = &network;
  topo.kind = TopologyKind::kFatTree;  // an (engineered) fat-tree family
  topo.ports = n;
  topo.f2 = false;

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
    for (int t = 0; t < half; ++t) {
      const int tor_index = p * half + t;
      pod.tors.push_back(
          &network.add_switch("tor" + std::to_string(tor_index),
                              AddressPlan::tor_router_id(tor_index)));
    }
    topo.aggs.insert(topo.aggs.end(), pod.aggs.begin(), pod.aggs.end());
    topo.tors.insert(topo.tors.end(), pod.tors.begin(), pod.tors.end());
    topo.pods.push_back(std::move(pod));
  }

  // Standard fat-tree pod wiring: full agg x tor bipartite graph.
  for (const auto& pod : topo.pods) {
    for (net::L3Switch* agg : pod.aggs) {
      for (net::L3Switch* tor : pod.tors) {
        network.connect_default(*agg, *tor);
      }
    }
  }

  // The fault-tolerant layer: agg j connects each core of group j with
  // f+1 parallel links.
  for (const auto& pod : topo.pods) {
    for (std::size_t a = 0; a < pod.aggs.size(); ++a) {
      for (net::L3Switch* core : topo.core_groups[a]) {
        for (int dup = 0; dup <= f; ++dup) {
          network.connect_default(*pod.aggs[a], *core);
        }
      }
    }
  }

  attach_hosts(network, topo, hosts_per_tor);
  return topo;
}

}  // namespace f2t::topo
