#include "topo/topology.hpp"

#include <sstream>

#include "topo/addressing.hpp"

namespace f2t::topo {

const char* topology_kind_name(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kFatTree: return "fat-tree";
    case TopologyKind::kF2Tree: return "f2tree";
    case TopologyKind::kLeafSpine: return "leaf-spine";
    case TopologyKind::kVl2: return "vl2";
  }
  return "?";
}

std::vector<net::L3Switch*> BuiltTopology::all_switches() const {
  std::vector<net::L3Switch*> out;
  out.reserve(tors.size() + aggs.size() + cores.size());
  out.insert(out.end(), tors.begin(), tors.end());
  out.insert(out.end(), aggs.begin(), aggs.end());
  out.insert(out.end(), cores.begin(), cores.end());
  return out;
}

int BuiltTopology::pod_of_agg(const net::L3Switch* sw) const {
  for (std::size_t p = 0; p < pods.size(); ++p) {
    for (const net::L3Switch* agg : pods[p].aggs) {
      if (agg == sw) return static_cast<int>(p);
    }
  }
  return -1;
}

int BuiltTopology::index_in_pod(const net::L3Switch* sw) const {
  for (const Pod& pod : pods) {
    for (std::size_t i = 0; i < pod.aggs.size(); ++i) {
      if (pod.aggs[i] == sw) return static_cast<int>(i);
    }
  }
  // Also allow core-group lookup: index within its group.
  for (const auto& group : core_groups) {
    for (std::size_t i = 0; i < group.size(); ++i) {
      if (group[i] == sw) return static_cast<int>(i);
    }
  }
  return -1;
}

net::L3Switch* BuiltTopology::tor_of_host(const net::Host* host) const {
  for (const auto& [tor, tor_hosts] : hosts_of_tor) {
    for (const net::Host* h : tor_hosts) {
      if (h == host) return const_cast<net::L3Switch*>(tor);
    }
  }
  return nullptr;
}

std::string BuiltTopology::summary() const {
  std::ostringstream os;
  os << topology_kind_name(kind) << " N=" << ports << (f2 ? " (F2)" : "")
     << ": " << tors.size() << " ToR, " << aggs.size() << " agg, "
     << cores.size() << " core, " << hosts.size() << " hosts, "
     << network->link_count() << " links";
  return os.str();
}

void build_ring(net::Network& network, BuiltTopology& topo,
                const std::vector<net::L3Switch*>& members, int width) {
  const std::size_t n = members.size();
  if (n < 2) return;  // a 1-switch "ring" leaves reserved ports unused
  for (std::size_t offset = 1; offset <= static_cast<std::size_t>(width / 2);
       ++offset) {
    for (std::size_t i = 0; i < n; ++i) {
      net::L3Switch& from = *members[i];
      net::L3Switch& to = *members[(i + offset) % n];
      network.connect_default(from, to);
      topo.rings[&from].right.push_back(
          static_cast<net::PortId>(from.port_count() - 1));
      topo.rings[&to].left.push_back(
          static_cast<net::PortId>(to.port_count() - 1));
    }
  }
}

void attach_hosts(net::Network& network, BuiltTopology& topo,
                  int hosts_per_tor) {
  for (std::size_t t = 0; t < topo.tors.size(); ++t) {
    net::L3Switch* tor = topo.tors[t];
    const int tor_index = static_cast<int>(t);
    topo.subnet_of_tor[tor] = AddressPlan::tor_subnet(tor_index);
    for (int h = 0; h < hosts_per_tor; ++h) {
      std::string name = "h";
      name += std::to_string(t);
      name += '_';
      name += std::to_string(h);
      net::Host& host = network.add_host(
          name, AddressPlan::host_addr(tor_index, h), tor);
      topo.hosts.push_back(&host);
      topo.hosts_of_tor[tor].push_back(&host);
    }
  }
}

}  // namespace f2t::topo
