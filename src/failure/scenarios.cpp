#include "failure/scenarios.hpp"

#include <algorithm>
#include <sstream>

#include "net/trace.hpp"

namespace f2t::failure {

TracedPath trace_route_detailed(const net::Host& src, const net::Host& dst,
                                const net::Packet& probe) {
  TracedPath path;
  if (src.port_count() == 0) return {};
  path.nodes.push_back(&src);
  const net::WalkEnd end = net::walk_path(
      src, 0, probe, dst,
      [&path](net::Link& link, const net::Node& from, std::uint8_t) {
        path.links.push_back(&link);
        path.nodes.push_back(link.peer_of(from).node);
      });
  if (end != net::WalkEnd::kDelivered) return {};
  return path;
}

std::vector<const net::Node*> trace_route(const net::Host& src,
                                          const net::Host& dst,
                                          const net::Packet& probe) {
  return trace_route_detailed(src, dst, probe).nodes;
}

const char* condition_name(Condition c) {
  switch (c) {
    case Condition::kC1: return "C1";
    case Condition::kC2: return "C2";
    case Condition::kC3: return "C3";
    case Condition::kC4: return "C4";
    case Condition::kC5: return "C5";
    case Condition::kC6: return "C6";
    case Condition::kC7: return "C7";
    case Condition::kC8: return "C8";
  }
  return "?";
}

bool condition_requires_f2(Condition c) {
  return c == Condition::kC6 || c == Condition::kC7 || c == Condition::kC8;
}

namespace {

net::Link* ring_link(const topo::BuiltTopology& topo, net::L3Switch* sw,
                     bool right) {
  const auto it = topo.rings.find(sw);
  if (it == topo.rings.end()) return nullptr;
  const auto& ports = right ? it->second.right : it->second.left;
  if (ports.empty()) return nullptr;
  return sw->port(ports.front()).link;
}

std::string link_name(const net::Link* link) {
  return link->end_a().node->name() + "<->" + link->end_b().node->name();
}

/// Attempts to construct `condition` for one concrete 5-tuple; returns
/// nullopt when the traced path lacks the structural prerequisites.
std::optional<ScenarioPlan> try_build(const topo::BuiltTopology& topo,
                                      Condition condition,
                                      net::Protocol proto,
                                      std::uint16_t sport,
                                      std::uint16_t dport) {
  net::Network& network = *topo.network;
  const net::Host* src = topo.hosts.front();
  const net::Host* dst = topo.hosts.back();

  net::Packet probe;
  probe.src = src->addr();
  probe.dst = dst->addr();
  probe.proto = proto;
  probe.sport = sport;
  probe.dport = dport;

  const auto traced = trace_route_detailed(*src, *dst, probe);
  const auto& path = traced.nodes;
  if (path.size() < 5) return std::nullopt;  // expect host,tor,...,tor,host

  // Identify the downward aggregation switch Sx and the destination ToR.
  auto* dst_tor = const_cast<net::L3Switch*>(
      dynamic_cast<const net::L3Switch*>(path[path.size() - 2]));
  auto* sx = const_cast<net::L3Switch*>(
      dynamic_cast<const net::L3Switch*>(path[path.size() - 3]));
  if (dst_tor == nullptr || sx == nullptr) return std::nullopt;
  const int pod_index = topo.pod_of_agg(sx);
  if (pod_index < 0) return std::nullopt;
  const auto& pod = topo.pods[static_cast<std::size_t>(pod_index)];
  const int a = static_cast<int>(std::distance(
      pod.aggs.begin(), std::find(pod.aggs.begin(), pod.aggs.end(), sx)));
  const int width = static_cast<int>(pod.aggs.size());
  net::L3Switch* right = pod.aggs[static_cast<std::size_t>((a + 1) % width)];
  net::L3Switch* left =
      pod.aggs[static_cast<std::size_t>((a - 1 + width) % width)];

  // The core feeding Sx (present whenever src and dst pods differ).
  auto* core = path.size() >= 6
                   ? const_cast<net::L3Switch*>(
                         dynamic_cast<const net::L3Switch*>(
                             path[path.size() - 4]))
                   : nullptr;
  const bool core_on_path =
      core != nullptr &&
      std::find(topo.cores.begin(), topo.cores.end(), core) !=
          topo.cores.end();

  // The exact on-path links (parallel-link aware: the flow's hash picks a
  // specific member, and the scenario must fail that one).
  net::Link* sx_down = traced.links[traced.links.size() - 2];
  net::Link* core_down =
      core_on_path ? traced.links[traced.links.size() - 3] : nullptr;
  if (sx_down == nullptr) return std::nullopt;

  ScenarioPlan plan;
  plan.condition = condition;
  plan.src = src;
  plan.dst = dst;
  plan.sport = sport;
  plan.dport = dport;
  plan.sx = sx;
  plan.dst_tor = dst_tor;

  auto require = [](bool ok) { return ok; };

  switch (condition) {
    case Condition::kC1: {
      if (topo.f2 && !require(network.find_link(*right, *dst_tor) != nullptr &&
                              ring_link(topo, sx, true) != nullptr)) {
        return std::nullopt;
      }
      plan.fail_links = {sx_down};
      break;
    }
    case Condition::kC2: {
      if (!core_on_path || core_down == nullptr) return std::nullopt;
      if (topo.f2) {
        net::Link* core_ring = ring_link(topo, core, true);
        if (core_ring == nullptr) return std::nullopt;
        // The core's right across neighbour must own a downlink into the
        // destination pod (to Sx, its same-position agg).
        net::L3Switch* right_core = dynamic_cast<net::L3Switch*>(
            &network.node(core->port(topo.rings.at(core).right.front())
                              .peer_node));
        if (right_core == nullptr ||
            network.find_link(*right_core, *sx) == nullptr) {
          return std::nullopt;
        }
      }
      plan.fail_links = {core_down};
      break;
    }
    case Condition::kC3: {
      if (!core_on_path || core_down == nullptr) return std::nullopt;
      if (topo.f2) {
        // Both layers must satisfy condition 1 independently (§II-C:
        // "the combination of failures above different layers will not
        // affect the working scheme"): Sx's right across neighbour needs
        // the downlink to the ToR, and the core's right across neighbour
        // needs a downlink into the destination pod.
        if (!require(network.find_link(*right, *dst_tor) != nullptr &&
                     ring_link(topo, sx, true) != nullptr)) {
          return std::nullopt;
        }
        net::Link* core_ring = ring_link(topo, core, true);
        if (core_ring == nullptr) return std::nullopt;
        net::L3Switch* right_core = dynamic_cast<net::L3Switch*>(
            &network.node(core->port(topo.rings.at(core).right.front())
                              .peer_node));
        if (right_core == nullptr ||
            network.find_link(*right_core, *sx) == nullptr) {
          return std::nullopt;
        }
      }
      plan.fail_links = {sx_down, core_down};
      break;
    }
    case Condition::kC4: {
      if (width < 3) return std::nullopt;  // needs a third relay switch
      net::Link* right_down = network.find_link(*right, *dst_tor);
      if (right_down == nullptr) return std::nullopt;
      if (topo.f2) {
        net::L3Switch* right2 =
            pod.aggs[static_cast<std::size_t>((a + 2) % width)];
        if (network.find_link(*right2, *dst_tor) == nullptr) {
          return std::nullopt;
        }
      }
      plan.fail_links = {sx_down, right_down};
      break;
    }
    case Condition::kC5: {
      if (network.find_link(*left, *dst_tor) == nullptr) return std::nullopt;
      for (net::L3Switch* agg : pod.aggs) {
        if (agg == left) continue;
        if (net::Link* link = network.find_link(*agg, *dst_tor)) {
          plan.fail_links.push_back(link);
        }
      }
      if (plan.fail_links.empty()) return std::nullopt;
      break;
    }
    case Condition::kC6: {
      net::Link* across = ring_link(topo, sx, true);
      if (across == nullptr) return std::nullopt;
      if (network.find_link(*left, *dst_tor) == nullptr ||
          ring_link(topo, sx, false) == nullptr) {
        return std::nullopt;
      }
      plan.fail_links = {sx_down, across};
      break;
    }
    case Condition::kC7: {
      net::Link* right_down = network.find_link(*right, *dst_tor);
      net::Link* right_across = ring_link(topo, right, true);
      if (right_down == nullptr || right_across == nullptr) {
        return std::nullopt;
      }
      plan.fail_links = {sx_down, right_down, right_across};
      break;
    }
    case Condition::kC8: {
      net::Link* right_across = ring_link(topo, sx, true);
      net::Link* left_across = ring_link(topo, sx, false);
      if (right_across == nullptr || left_across == nullptr) {
        return std::nullopt;
      }
      plan.fail_links = {sx_down, right_across, left_across};
      break;
    }
  }

  std::ostringstream os;
  os << condition_name(condition) << ": flow " << src->name() << "->"
     << dst->name() << " sport=" << sport << " Sx=" << sx->name()
     << " failing {";
  for (std::size_t i = 0; i < plan.fail_links.size(); ++i) {
    if (i > 0) os << ", ";
    os << link_name(plan.fail_links[i]);
  }
  os << "}";
  plan.description = os.str();
  plan.site_class = condition_name(condition);
  return plan;
}

}  // namespace

std::optional<ScenarioPlan> build_condition(const topo::BuiltTopology& topo,
                                            Condition condition,
                                            net::Protocol proto,
                                            std::uint16_t base_sport,
                                            int search_budget) {
  if (condition_requires_f2(condition) && !topo.f2) return std::nullopt;
  for (int i = 0; i < search_budget; ++i) {
    const auto sport = static_cast<std::uint16_t>(base_sport + i);
    if (auto plan = try_build(topo, condition, proto, sport, 9000)) {
      return plan;
    }
  }
  return std::nullopt;
}

const char* link_class_name(LinkClass c) {
  switch (c) {
    case LinkClass::kTorAgg: return "tor-agg";
    case LinkClass::kAggCore: return "agg-core";
    case LinkClass::kAcross: return "across";
    case LinkClass::kOther: return "other";
  }
  return "?";
}

std::vector<net::Link*> switch_links(const topo::BuiltTopology& topo) {
  std::vector<net::Link*> out;
  for (net::Link* link : topo.network->links()) {
    if (dynamic_cast<net::L3Switch*>(link->end_a().node) != nullptr &&
        dynamic_cast<net::L3Switch*>(link->end_b().node) != nullptr) {
      out.push_back(link);
    }
  }
  return out;
}

LinkClass classify_link(const topo::BuiltTopology& topo,
                        const net::Link& link) {
  const auto* a = dynamic_cast<const net::L3Switch*>(link.end_a().node);
  const auto* b = dynamic_cast<const net::L3Switch*>(link.end_b().node);
  if (a == nullptr || b == nullptr) return LinkClass::kOther;
  const auto is_ring_port = [&topo](const net::L3Switch* sw,
                                    net::PortId port) {
    const auto it = topo.rings.find(sw);
    if (it == topo.rings.end()) return false;
    const auto& ring = it->second;
    return std::find(ring.right.begin(), ring.right.end(), port) !=
               ring.right.end() ||
           std::find(ring.left.begin(), ring.left.end(), port) !=
               ring.left.end();
  };
  if (is_ring_port(a, link.end_a().port) || is_ring_port(b, link.end_b().port)) {
    return LinkClass::kAcross;
  }
  const auto layer = [&topo](const net::L3Switch* sw) {
    if (std::find(topo.tors.begin(), topo.tors.end(), sw) != topo.tors.end()) {
      return 0;
    }
    if (std::find(topo.aggs.begin(), topo.aggs.end(), sw) != topo.aggs.end()) {
      return 1;
    }
    if (std::find(topo.cores.begin(), topo.cores.end(), sw) !=
        topo.cores.end()) {
      return 2;
    }
    return -1;
  };
  const int la = layer(a);
  const int lb = layer(b);
  if (la + lb == 1 && la != lb) return LinkClass::kTorAgg;
  if (la + lb == 3 && la != lb) return LinkClass::kAggCore;
  return LinkClass::kOther;
}

std::optional<ScenarioPlan> build_link_site_plan(
    const topo::BuiltTopology& topo, int site, net::Protocol proto,
    std::uint16_t base_sport, int search_budget) {
  const auto links = switch_links(topo);
  if (site < 0 || static_cast<std::size_t>(site) >= links.size()) {
    return std::nullopt;
  }
  net::Link* link = links[static_cast<std::size_t>(site)];
  const LinkClass cls = classify_link(topo, *link);

  // Direct the probe *under* the failed link when the topology tells us
  // where "under" is: a host of the link's ToR end, else a host in the
  // pod of an agg end. This makes most ToR-agg and agg-core sites
  // reachable by some ECMP hash; across links stay off-path by design.
  const auto hosts_under = [&topo](net::Link::End end) -> const net::Host* {
    auto* sw = dynamic_cast<net::L3Switch*>(end.node);
    if (sw == nullptr) return nullptr;
    const auto it = topo.hosts_of_tor.find(sw);
    if (it != topo.hosts_of_tor.end() && !it->second.empty()) {
      return it->second.front();
    }
    const int pod = topo.pod_of_agg(sw);
    if (pod < 0) return nullptr;
    for (const net::L3Switch* tor :
         topo.pods[static_cast<std::size_t>(pod)].tors) {
      const auto ht = topo.hosts_of_tor.find(tor);
      if (ht != topo.hosts_of_tor.end() && !ht->second.empty()) {
        return ht->second.front();
      }
    }
    return nullptr;
  };
  const net::Host* dst = hosts_under(link->end_a());
  if (dst == nullptr) dst = hosts_under(link->end_b());
  if (dst == nullptr) dst = topo.hosts.back();
  const net::Host* src = topo.hosts.front();
  if (topo.tor_of_host(src) == topo.tor_of_host(dst)) src = topo.hosts.back();
  if (src == dst || topo.tor_of_host(src) == topo.tor_of_host(dst)) {
    return std::nullopt;  // degenerate single-ToR topology
  }

  ScenarioPlan plan;
  plan.src = src;
  plan.dst = dst;
  plan.sport = base_sport;
  plan.fail_links = {link};
  plan.site_class = link_class_name(cls);
  plan.on_path = false;

  net::Packet probe;
  probe.src = src->addr();
  probe.dst = dst->addr();
  probe.proto = proto;
  probe.dport = plan.dport;
  for (int i = 0; i < search_budget; ++i) {
    const auto sport = static_cast<std::uint16_t>(base_sport + i);
    probe.sport = sport;
    const auto traced = trace_route_detailed(*src, *dst, probe);
    if (traced.empty()) continue;
    if (std::find(traced.links.begin(), traced.links.end(), link) !=
        traced.links.end()) {
      plan.sport = sport;
      plan.on_path = true;
      break;
    }
  }

  std::ostringstream os;
  os << "L" << site << " (" << link_class_name(cls) << "): flow "
     << src->name() << "->" << dst->name() << " sport=" << plan.sport
     << " failing {" << link_name(link) << "}"
     << (plan.on_path ? "" : " [off-path]");
  plan.description = os.str();
  return plan;
}

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCut: return "cut";
    case FaultKind::kUnidirectional: return "unidir";
    case FaultKind::kGray: return "gray";
    case FaultKind::kFlap: return "flap";
  }
  return "?";
}

std::optional<FaultKind> parse_fault_kind(std::string_view name) {
  if (name == "cut") return FaultKind::kCut;
  if (name == "unidir") return FaultKind::kUnidirectional;
  if (name == "gray") return FaultKind::kGray;
  if (name == "flap") return FaultKind::kFlap;
  return std::nullopt;
}

namespace {

int layer_of(const topo::BuiltTopology& topo, const net::L3Switch* sw) {
  if (std::find(topo.tors.begin(), topo.tors.end(), sw) != topo.tors.end()) {
    return 0;
  }
  if (std::find(topo.aggs.begin(), topo.aggs.end(), sw) != topo.aggs.end()) {
    return 1;
  }
  if (std::find(topo.cores.begin(), topo.cores.end(), sw) !=
      topo.cores.end()) {
    return 2;
  }
  return -1;
}

}  // namespace

const net::Node& upper_end(const topo::BuiltTopology& topo,
                           const net::Link& link) {
  const auto* a = dynamic_cast<const net::L3Switch*>(link.end_a().node);
  const auto* b = dynamic_cast<const net::L3Switch*>(link.end_b().node);
  if (a != nullptr && b != nullptr && layer_of(topo, b) > layer_of(topo, a)) {
    return *link.end_b().node;
  }
  return *link.end_a().node;
}

void apply_fault(const topo::BuiltTopology& topo, FailureInjector& injector,
                 const ScenarioPlan& plan, const FaultSpec& spec,
                 sim::Time when) {
  auto& sim = injector.network().simulator();
  for (net::Link* link : plan.fail_links) {
    switch (spec.kind) {
      case FaultKind::kCut:
        injector.fail_at(*link, when);
        break;
      case FaultKind::kUnidirectional:
        injector.fail_direction_at(*link, upper_end(topo, *link), when);
        break;
      case FaultKind::kGray: {
        // Gray failures never transition the link, so they bypass the
        // injector's up/down history — the link simply starts eating
        // `gray_loss` of the downward direction's packets.
        const auto direction = link->direction_from(upper_end(topo, *link));
        sim.at(when, [link, direction, &sim, rate = spec.gray_loss] {
          link->set_loss_rate(direction, rate, &sim.random());
        });
        break;
      }
      case FaultKind::kFlap:
        for (int cycle = 0; cycle < spec.flap_cycles; ++cycle) {
          const sim::Time down_at = when + cycle * spec.flap_period;
          injector.fail_at(*link, down_at);
          injector.recover_at(*link, down_at + spec.flap_period / 2);
        }
        break;
    }
  }
}

}  // namespace f2t::failure
