#include "routing/central.hpp"

#include <stdexcept>

namespace f2t::routing {

void CentralController::manage(net::L3Switch& sw,
                               std::vector<net::Prefix> prefixes) {
  if (sim_ == nullptr) {
    sim_ = &sw.simulator();
  } else if (sim_ != &sw.simulator()) {
    throw std::invalid_argument("CentralController: mixed simulators");
  }
  switches_.push_back(Managed{&sw, std::move(prefixes)});
  net::L3Switch* ptr = &sw;
  // A port-state transition is the switch's failure (or recovery) report.
  sw.add_port_state_handler([this, ptr](net::PortId, bool) {
    sim_->after(config_.report_delay, [this, ptr] { on_report(*ptr); });
  });
}

LsaPtr CentralController::view_of(const Managed& m) const {
  auto lsa = std::make_shared<Lsa>();
  lsa->origin = m.sw->router_id();
  lsa->sequence = view_version_;
  lsa->links = live_links(*m.sw);
  lsa->prefixes = m.prefixes;
  return lsa;
}

Lsdb CentralController::next_view() {
  // The controller's view is the union of the switches' *detected* local
  // states — exactly the information failure reports carry.
  ++view_version_;
  Lsdb view;
  for (const Managed& m : switches_) view.consider(view_of(m));
  return view;
}

std::vector<Route> CentralController::routes_for(const Lsdb& view,
                                                 const Managed& m) const {
  auto routes = compute_spf(view, m.sw->router_id(), live_adjacency(*m.sw));
  // A switch never learns a route to a prefix it originates itself.
  std::erase_if(routes, [&](const Route& r) {
    return std::find(m.prefixes.begin(), m.prefixes.end(), r.prefix) !=
           m.prefixes.end();
  });
  return routes;
}

void CentralController::converge() {
  const Lsdb view = next_view();
  for (const Managed& m : switches_) {
    m.sw->fib().apply_source_delta(RouteSource::kOspf, routes_for(view, m));
  }
  ++counters_.computations;
}

void CentralController::on_report(net::L3Switch& /*sw*/) {
  ++counters_.reports;
  if (pending_compute_ != sim::kInvalidEventId) return;  // already batching
  pending_compute_ =
      sim_->after(config_.batch_window + config_.compute_delay, [this] {
        pending_compute_ = sim::kInvalidEventId;
        recompute_and_push();
      });
}

void CentralController::recompute_and_push() {
  ++counters_.computations;
  const Lsdb view = next_view();
  for (const Managed& m : switches_) {
    net::L3Switch* sw = m.sw;
    // The push (and its hook) still happens even when the delta turns out
    // empty — the controller does not know that before the switch applies
    // it — so fib_pushes and the simulated event stream are unchanged;
    // only the redundant FIB writes disappear.
    ++counters_.fib_pushes;
    sim_->after(config_.push_delay + config_.fib_update_delay,
                [this, sw, routes = routes_for(view, m)]() mutable {
                  sw->fib().apply_source_delta(RouteSource::kOspf,
                                               std::move(routes));
                  if (push_hook_) push_hook_(*sw);
                });
  }
}

}  // namespace f2t::routing
