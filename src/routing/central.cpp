#include "routing/central.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace f2t::routing {

void CentralController::manage(net::L3Switch& sw,
                               std::vector<net::Prefix> prefixes) {
  if (sim_ == nullptr) {
    sim_ = &sw.simulator();
  } else if (sim_ != &sw.simulator()) {
    throw std::invalid_argument("CentralController: mixed simulators");
  }
  if (index_of_.contains(sw.router_id())) {
    throw std::invalid_argument("CentralController: switch managed twice: " +
                                sw.name());
  }
  for (const net::Prefix& prefix : prefixes) {
    if (originated_.contains(prefix)) {
      throw std::invalid_argument(
          "CentralController: prefix originated twice: " + prefix.str());
    }
  }
  originated_.insert(prefixes.begin(), prefixes.end());
  index_of_.emplace(sw.router_id(), switches_.size());
  if (!prefixes.empty()) destinations_.push_back(switches_.size());
  switches_.push_back(Managed{&sw, std::move(prefixes), {}});
  rebuild_all_ = true;
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

void CentralController::compute_rows() {
  // The controller's view is the union of the switches' *detected* local
  // states — exactly the information failure reports carry.
  ++view_version_;
  Lsdb view;
  for (const Managed& m : switches_) view.consider(view_of(m));
  const LinkStateGraph& g = view.graph();
  std::vector<RouterIndex> routers;
  routers.reserve(switches_.size());
  for (const Managed& m : switches_) {
    routers.push_back(g.index_of(m.sw->router_id()));
  }
  std::vector<RouterIndex> targets;
  targets.reserve(destinations_.size());
  for (const std::size_t m : destinations_) targets.push_back(routers[m]);
  reverse_spf_rows(g, routers, targets, rows_);
  emit_order_.resize(targets.size());
  std::iota(emit_order_.begin(), emit_order_.end(), std::size_t{0});
  std::sort(emit_order_.begin(), emit_order_.end(),
            [&](std::size_t a, std::size_t b) {
              return targets[a] < targets[b];
            });
}

/// For each destination, the next hops are the live local ports to the
/// neighbors n that minimize cost(self, n) + row[n]. That is exactly
/// compute_spf's first-hop set: a row may route through `self`, but such
/// a neighbor's sum exceeds the best by at least two links, and
/// compute_spf's self edges are the live adjacency, as here. Precondition:
/// every link in the view costs 1 (live_links advertises cost 1), so
/// cost(self, n) is the same for every neighbor and the minimum is taken
/// over the rows alone. Routes come out in compute_spf's order, with
/// destinations in router-index order, and destinations with the same
/// argmin ports share one next-hop group.
std::vector<Route> CentralController::routes_of(const Managed& m) const {
  const std::size_t width = destinations_.size();
  // Each live port with its neighbor's row. A neighbor the controller
  // does not manage has no row and carries no routes, as in compute_spf.
  struct Port {
    LocalAdjacency adjacency;
    const int* row;
  };
  std::vector<Port> ports;
  for (const LocalAdjacency& adjacency : m.adjacency) {
    if (const auto it = index_of_.find(adjacency.neighbor);
        it != index_of_.end()) {
      ports.push_back(Port{adjacency, rows_.data() + it->second * width});
    }
  }

  // A destination's argmin ports as a bitset over `ports`.
  std::vector<std::uint64_t> argmin((ports.size() + 63) / 64);
  NextHopGroupMemo memo(argmin.size());
  std::vector<Route> routes;
  routes.reserve(width);
  for (const std::size_t d : emit_order_) {
    const Managed& dest = switches_[destinations_[d]];
    if (&dest == &m) continue;
    int best = SpfArrays::kUnreached;
    for (const Port& p : ports) best = std::min(best, p.row[d]);
    if (best == SpfArrays::kUnreached) continue;
    std::fill(argmin.begin(), argmin.end(), std::uint64_t{0});
    for (std::size_t i = 0; i < ports.size(); ++i) {
      if (ports[i].row[d] == best) {
        argmin[i / 64] |= std::uint64_t{1} << (i % 64);
      }
    }
    const NextHopGroup& group = memo.get(argmin.data(), [&] {
      std::vector<NextHop> next_hops;
      for (const Port& p : ports) {
        if (p.row[d] == best) {
          next_hops.push_back(NextHop{p.adjacency.port, p.adjacency.neighbor});
        }
      }
      return next_hops;
    });
    for (const net::Prefix& prefix : dest.prefixes) {
      routes.push_back(Route{prefix, group, RouteSource::kOspf});
    }
  }
  return routes;
}

void CentralController::converge() {
  compute_rows();
  for (Managed& m : switches_) {
    m.adjacency = live_adjacency(*m.sw);
    m.sw->fib().apply_source_delta(RouteSource::kOspf, routes_of(m));
  }
  // A push still in flight lands over the routes just installed, so the
  // next recompute cannot trust them to match the rows.
  rebuild_all_ = pushes_in_flight_ > 0;
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
  const std::vector<int> previous = std::move(rows_);
  compute_rows();
  // A switch's routes depend only on its live adjacency and its
  // neighbors' rows. A switch with neither changed is clean: its new
  // route set equals the one it last received, so the delta would write
  // nothing and only dirty switches get a route set built.
  const std::size_t width = destinations_.size();
  std::vector<bool> row_changed(switches_.size(), true);
  if (!rebuild_all_) {
    for (std::size_t i = 0; i < switches_.size(); ++i) {
      const int* row = rows_.data() + i * width;
      row_changed[i] =
          !std::equal(row, row + width, previous.data() + i * width);
    }
  }
  for (Managed& m : switches_) {
    std::vector<LocalAdjacency> adjacency = live_adjacency(*m.sw);
    bool dirty = rebuild_all_ || adjacency != m.adjacency;
    for (std::size_t i = 0; !dirty && i < adjacency.size(); ++i) {
      const auto it = index_of_.find(adjacency[i].neighbor);
      dirty = it != index_of_.end() && row_changed[it->second];
    }
    std::vector<Route> routes;
    if (dirty) {
      m.adjacency = std::move(adjacency);
      routes = routes_of(m);
    }
    // Every switch still gets its push, and the hook fires, at the same
    // instant — the controller does not know a delta is empty before the
    // switch applies it — so fib_pushes and the simulated event stream
    // are unchanged; only the redundant route sets and FIB writes go.
    ++counters_.fib_pushes;
    ++pushes_in_flight_;
    sim_->after(config_.push_delay + config_.fib_update_delay,
                [this, sw = m.sw, dirty, routes = std::move(routes)]() mutable {
                  --pushes_in_flight_;
                  if (dirty) {
                    sw->fib().apply_source_delta(RouteSource::kOspf,
                                                 std::move(routes));
                  }
                  if (push_hook_) push_hook_(*sw);
                });
  }
  rebuild_all_ = false;
}

}  // namespace f2t::routing
