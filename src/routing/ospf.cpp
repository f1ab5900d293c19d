#include "routing/ospf.hpp"

#include <algorithm>

#include "sim/logging.hpp"

namespace f2t::routing {

Ospf::Ospf(net::L3Switch& sw, const OspfConfig& config)
    : sw_(sw), config_(config), throttle_(config.throttle) {}

void Ospf::redistribute(const net::Prefix& prefix) {
  if (std::find(redistributed_.begin(), redistributed_.end(), prefix) ==
      redistributed_.end()) {
    redistributed_.push_back(prefix);
  }
}

void Ospf::attach() {
  sw_.add_control_handler([this](net::PortId port, const net::Packet& packet) {
    handle_control(port, packet);
  });
  sw_.add_port_state_handler(
      [this](net::PortId port, bool up) { on_port_state(port, up); });
  if (config_.lsa_refresh_interval > 0) schedule_refresh();
}

void Ospf::schedule_refresh() {
  sw_.simulator().after(config_.lsa_refresh_interval, [this] {
    originate_and_flood();
    schedule_spf();  // a refresh may carry news if a flood was lost
    schedule_refresh();
  });
}

LsaPtr Ospf::make_self_lsa() {
  auto lsa = std::make_shared<Lsa>();
  lsa->origin = sw_.router_id();
  lsa->sequence = ++self_sequence_;
  lsa->links = live_links(sw_);
  lsa->prefixes = redistributed_;
  ++counters_.lsas_originated;
  if (obs_hook_) obs_hook_(ObsEvent::kLsaOriginated);
  return lsa;
}

void Ospf::warm_start(const std::vector<LsaPtr>& all_lsas) {
  for (const LsaPtr& lsa : all_lsas) lsdb_.consider(lsa);
  run_spf_now();
  throttle_.ran(sw_.simulator().now());
}

std::vector<Route> Ospf::compute_routes() {
  auto routes = compute_spf(lsdb_, sw_.router_id(), live_adjacency(sw_));
  // Do not learn a route to a prefix we redistribute ourselves.
  std::erase_if(routes, [this](const Route& r) {
    return std::find(redistributed_.begin(), redistributed_.end(), r.prefix) !=
           redistributed_.end();
  });
  return routes;
}

void Ospf::install_routes(std::vector<Route> routes) {
  const std::size_t touched =
      sw_.fib().apply_source_delta(RouteSource::kOspf, std::move(routes));
  if (touched > 0) {
    ++counters_.fib_installs;
    if (obs_hook_) obs_hook_(ObsEvent::kFibInstall);
  } else {
    ++counters_.fib_noop_installs;
  }
}

void Ospf::run_spf_now() {
  ++counters_.spf_runs;
  auto routes = compute_routes();
  if (obs_hook_) obs_hook_(ObsEvent::kSpfRun);
  install_routes(std::move(routes));
}

void Ospf::on_port_state(net::PortId /*port*/, bool /*up*/) {
  originate_and_flood();
  schedule_spf();
}

void Ospf::originate_and_flood() {
  LsaPtr lsa = make_self_lsa();
  lsdb_.consider(lsa);
  flood(lsa, net::kInvalidPort);
}

void Ospf::flood(const LsaPtr& lsa, net::PortId except_port) {
  auto& sim = sw_.simulator();
  for (net::PortId p = 0; p < sw_.port_count(); ++p) {
    if (p == except_port) continue;
    const auto& info = sw_.port(p);
    if (!info.peer_is_switch || !sw_.port_detected_up(p)) continue;
    net::Packet packet;
    packet.src = sw_.router_id();
    packet.dst = info.peer_addr;
    packet.proto = net::Protocol::kRouting;
    packet.size_bytes = lsa->wire_size();
    packet.control = lsa;
    // Per-hop protocol processing before the packet hits the wire.
    sim.after(config_.flood_processing_delay,
              [this, p, packet = std::move(packet)]() mutable {
                sw_.send(p, std::move(packet));
              });
  }
}

void Ospf::handle_control(net::PortId in_port, const net::Packet& packet) {
  const auto lsa = std::dynamic_pointer_cast<const Lsa>(packet.control);
  if (!lsa) return;
  if (!lsdb_.consider(lsa)) {
    ++counters_.lsas_ignored;
    return;
  }
  ++counters_.lsas_accepted;
  if (obs_hook_) obs_hook_(ObsEvent::kLsaAccepted);
  F2T_LOG(sw_.simulator().logger(), sim::LogLevel::kTrace,
          sw_.simulator().now(), sw_.name() << " accepted " << lsa->describe());
  flood(lsa, in_port);
  schedule_spf();
}

void Ospf::schedule_spf() {
  if (pending_spf_ != sim::kInvalidEventId) return;  // run already queued
  auto& sim = sw_.simulator();
  const sim::Time when = throttle_.schedule(sim.now());
  pending_spf_ = sim.at(when, [this] {
    pending_spf_ = sim::kInvalidEventId;
    run_spf_and_schedule_install();
  });
}

void Ospf::run_spf_and_schedule_install() {
  auto& sim = sw_.simulator();
  throttle_.ran(sim.now());
  ++counters_.spf_runs;
  auto routes = compute_routes();
  if (obs_hook_) obs_hook_(ObsEvent::kSpfRun);
  // Model the SPF computation cost (grows with the LSDB) plus the
  // RIB->FIB download delay: the data plane keeps using the old entries
  // (and the static backups) until the install completes. The install
  // event is scheduled even when the route set turns out unchanged — the
  // delta apply inside the callback then performs zero FIB writes — so
  // the simulated event stream is identical either way.
  const sim::Time compute =
      config_.spf_compute_per_router * static_cast<sim::Time>(lsdb_.size());
  if (pending_install_ != sim::kInvalidEventId) sim.cancel(pending_install_);
  pending_install_ = sim.after(
      compute + config_.fib_update_delay,
      [this, routes = std::move(routes)]() mutable {
        pending_install_ = sim::kInvalidEventId;
        install_routes(std::move(routes));
        F2T_LOG(sw_.simulator().logger(), sim::LogLevel::kDebug,
                sw_.simulator().now(), sw_.name() << " installed OSPF routes");
      });
}

void warm_start_all(std::vector<std::unique_ptr<Ospf>>& instances) {
  std::vector<LsaPtr> lsas;
  lsas.reserve(instances.size());
  for (auto& instance : instances) lsas.push_back(instance->make_self_lsa());
  for (auto& instance : instances) instance->warm_start(lsas);
}

}  // namespace f2t::routing
