#include "topo/fattree.hpp"

#include <stdexcept>
#include <string>

#include "topo/addressing.hpp"

namespace f2t::topo {

namespace {

void validate(const FatTreeOptions& options) {
  const int n = options.ports;
  if (n < 4 || n % 2 != 0) {
    throw std::invalid_argument("fat tree: ports must be even and >= 4");
  }
  if (options.f2_rewire) {
    if (options.ring_width != 2 && options.ring_width != 4) {
      throw std::invalid_argument("fat tree: ring_width must be 2 or 4");
    }
    // Each agg/core must keep at least one downward and one upward link.
    if (options.ring_width / 2 >= n / 2) {
      throw std::invalid_argument(
          "fat tree: ring_width too large for this port count");
    }
  }
  if (n / 2 > AddressPlan::kMaxHostsPerTor ||
      n * n / 2 > AddressPlan::kMaxTors || n * n / 2 > AddressPlan::kMaxAggs ||
      n * n / 4 > AddressPlan::kMaxCores) {
    throw std::invalid_argument("fat tree: exceeds address plan capacity");
  }
  // F² backup routes cover hosts via the Table II prefix chain, which only
  // reaches the first 256 ToR subnets.
  if (options.f2_rewire && n * n / 2 > AddressPlan::kMaxBackupCoveredTors) {
    throw std::invalid_argument(
        "fat tree: F^2 rewiring exceeds the backup-prefix cover (256 ToRs)");
  }
}

}  // namespace

BuiltTopology build_fat_tree(net::Network& network,
                             const FatTreeOptions& options) {
  validate(options);
  const int n = options.ports;
  const int half = n / 2;
  const int pods = n;
  const int cores_per_group = half;  // group j serves agg index j of each pod
  const int hosts_per_tor =
      options.hosts_per_tor >= 0 ? options.hosts_per_tor : half;
  const int skip = options.f2_rewire ? options.ring_width / 2 : 0;

  // The rewiring frees one downward port per agg per ring link pair by
  // taking one ToR per pod out of service (the paper's prototype removes
  // both pod uplinks of S7 in Fig 1(b)): the remaining ToRs keep their
  // full uplink fan-out, which is what guarantees the across neighbour
  // always owns a working downlink to the destination ToR.
  const int tors_per_pod = half - skip;

  BuiltTopology topo;
  topo.network = &network;
  topo.kind = options.f2_rewire ? TopologyKind::kF2Tree : TopologyKind::kFatTree;
  topo.ports = n;
  topo.f2 = options.f2_rewire;
  topo.ring_width = options.f2_rewire ? options.ring_width : 0;

  // --- switches ---------------------------------------------------------
  for (int c = 0; c < half * half; ++c) {
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
      pod.aggs.push_back(&network.add_switch(
          "agg" + std::to_string(agg_index),
          AddressPlan::agg_router_id(agg_index)));
    }
    for (int t = 0; t < tors_per_pod; ++t) {
      const int tor_index = p * tors_per_pod + t;
      pod.tors.push_back(&network.add_switch(
          "tor" + std::to_string(tor_index),
          AddressPlan::tor_router_id(tor_index)));
    }
    topo.aggs.insert(topo.aggs.end(), pod.aggs.begin(), pod.aggs.end());
    topo.tors.insert(topo.tors.end(), pod.tors.begin(), pod.tors.end());
    topo.pods.push_back(std::move(pod));
  }

  // --- intra-pod agg<->tor links: full bipartite over in-service ToRs ---
  for (int p = 0; p < pods; ++p) {
    const auto& pod = topo.pods[static_cast<std::size_t>(p)];
    for (int a = 0; a < half; ++a) {
      for (int t = 0; t < tors_per_pod; ++t) {
        network.connect_default(*pod.aggs[static_cast<std::size_t>(a)],
                                *pod.tors[static_cast<std::size_t>(t)]);
      }
    }
  }

  // --- agg<->core links (minus the rewired-away ones) -------------------
  for (int p = 0; p < pods; ++p) {
    const auto& pod = topo.pods[static_cast<std::size_t>(p)];
    for (int a = 0; a < half; ++a) {
      const auto& group = topo.core_groups[static_cast<std::size_t>(a)];
      for (int i = 0; i < cores_per_group; ++i) {
        bool rewired_away = false;
        for (int r = 0; r < skip; ++r) {
          if (i == (p + r) % cores_per_group) rewired_away = true;
        }
        if (rewired_away) continue;
        network.connect_default(*pod.aggs[static_cast<std::size_t>(a)],
                                *group[static_cast<std::size_t>(i)]);
      }
    }
  }

  // --- across rings ------------------------------------------------------
  if (options.f2_rewire) {
    for (const auto& pod : topo.pods) {
      build_ring(network, topo, pod.aggs, options.ring_width);
    }
    for (const auto& group : topo.core_groups) {
      build_ring(network, topo, group, options.ring_width);
    }
  }

  // --- hosts --------------------------------------------------------------
  attach_hosts(network, topo, hosts_per_tor);
  return topo;
}

}  // namespace f2t::topo
