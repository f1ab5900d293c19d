#include "routing/central.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace f2t::routing {

namespace {

/// A live local port toward a managed switch, with that switch's row.
struct Port {
  LocalAdjacency adjacency;
  std::size_t index;  ///< the row's switches_ index
  const int* row;     ///< the row in the distance matrix
};

/// `adjacency`'s ports toward managed switches, with their rows in the
/// node-major `rows` of the given width. A neighbor the controller does
/// not manage has no row and carries no routes, as in compute_spf.
std::vector<Port> ports_of(
    const std::vector<LocalAdjacency>& adjacency,
    const std::unordered_map<net::Ipv4Addr, std::size_t>& index_of,
    const std::vector<int>& rows, std::size_t width) {
  std::vector<Port> ports;
  for (const LocalAdjacency& a : adjacency) {
    if (const auto it = index_of.find(a.neighbor); it != index_of.end()) {
      ports.push_back(Port{a, it->second, rows.data() + it->second * width});
    }
  }
  return ports;
}

/// Marks in `argmin`, a bitset over `ports`, the ports whose neighbor is
/// closest to the destination, `distance(port)` away; false when none
/// reaches it.
template <typename Distance>
bool closest_ports(const std::vector<Port>& ports, Distance distance,
                   std::vector<std::uint64_t>& argmin) {
  int best = SpfArrays::kUnreached;
  for (const Port& p : ports) best = std::min(best, distance(p));
  if (best == SpfArrays::kUnreached) return false;
  std::fill(argmin.begin(), argmin.end(), std::uint64_t{0});
  for (std::size_t i = 0; i < ports.size(); ++i) {
    if (distance(ports[i]) == best) {
      argmin[i / 64] |= std::uint64_t{1} << (i % 64);
    }
  }
  return true;
}

/// The next hops of the ports marked in `argmin`, in port order.
std::vector<NextHop> next_hops(const std::vector<Port>& ports,
                               const std::vector<std::uint64_t>& argmin) {
  std::vector<NextHop> hops;
  for (std::size_t i = 0; i < ports.size(); ++i) {
    if ((argmin[i / 64] >> (i % 64)) & 1) {
      hops.push_back(NextHop{ports[i].adjacency.port,
                             ports[i].adjacency.neighbor});
    }
  }
  return hops;
}

}  // namespace

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
  for (auto it = prefixes.begin(); it != prefixes.end(); ++it) {
    const net::Prefix& prefix = *it;
    if (originated_.contains(prefix) ||
        std::find(prefixes.begin(), it, prefix) != it) {
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

/// The distances of the columns a recompute refills, saved before the
/// refill; every other column of the rows keeps its values.
class CentralController::SavedColumns {
 public:
  SavedColumns(const std::vector<int>& rows, std::size_t height,
               std::size_t width, const std::vector<std::size_t>& columns)
      : rows_(rows),
        width_(width),
        height_(height),
        slot_(width, kNotSaved),
        values_(columns.size() * height_) {
    for (std::size_t k = 0; k < columns.size(); ++k) {
      slot_[columns[k]] = k;
      for (std::size_t m = 0; m < height_; ++m) {
        values_[k * height_ + m] = rows[m * width + columns[k]];
      }
    }
  }

  /// Column d as it was before the refill, indexed by row, or null when
  /// column d was not refilled and rows_ still holds it.
  const int* column(std::size_t d) const {
    return slot_[d] == kNotSaved ? nullptr
                                 : values_.data() + slot_[d] * height_;
  }

  /// Whether each row now differs from its saved values.
  std::vector<bool> changed_rows() const {
    std::vector<bool> changed(height_, false);
    for (std::size_t d = 0; d < width_; ++d) {
      const int* old = column(d);
      if (old == nullptr) continue;
      for (std::size_t m = 0; m < height_; ++m) {
        if (old[m] != rows_[m * width_ + d]) changed[m] = true;
      }
    }
    return changed;
  }

 private:
  static constexpr std::size_t kNotSaved = ~std::size_t{0};
  const std::vector<int>& rows_;
  std::size_t width_;
  std::size_t height_;
  std::vector<std::size_t> slot_;  ///< per column: its saved index
  std::vector<int> values_;        ///< values_[slot · height_ + row]
};

void CentralController::refresh_view() {
  // The controller's view is the union of the switches' *detected* local
  // states — exactly the information failure reports carry.
  ++view_version_;
  for (const Managed& m : switches_) view_.consider(view_of(m));
  const LinkStateGraph& g = view_.graph();
  routers_.clear();
  for (const Managed& m : switches_) {
    routers_.push_back(g.index_of(m.sw->router_id()));
  }
  targets_.clear();
  for (const std::size_t m : destinations_) targets_.push_back(routers_[m]);
  emit_order_.resize(targets_.size());
  std::iota(emit_order_.begin(), emit_order_.end(), std::size_t{0});
  std::sort(emit_order_.begin(), emit_order_.end(),
            [&](std::size_t a, std::size_t b) {
              return targets_[a] < targets_[b];
            });
}

/// For each destination, the next hops are the live local ports to the
/// neighbors n that minimize cost(self, n) + row[n]. That is exactly
/// compute_spf's first-hop set: a row may route through `self`, but such
/// a neighbor's sum exceeds the best by at least two links, and
/// compute_spf's self edges are the live adjacency, as here. Precondition:
/// every link in the view costs 1 (live_links advertises cost 1), so
/// cost(self, n) is the same for every neighbor and the minimum is taken
/// over the rows alone. Destinations with the same argmin ports share one
/// next-hop group. A route to a destination depends on nothing else, so
/// the previous route comes from the same read-off over the previous
/// adjacency and rows.
std::vector<Route> CentralController::routes_of(
    const Managed& m, const std::vector<LocalAdjacency>& adjacency,
    const std::vector<std::size_t>& columns,
    const SavedColumns* before) const {
  const std::size_t width = destinations_.size();
  const std::vector<Port> ports = ports_of(adjacency, index_of_, rows_, width);
  std::vector<std::uint64_t> argmin((ports.size() + 63) / 64);
  NextHopGroupMemo memo(argmin.size());
  const bool same_ports = before == nullptr || adjacency == m.adjacency;
  const std::vector<Port> moved_ports =
      same_ports ? std::vector<Port>()
                 : ports_of(m.adjacency, index_of_, rows_, width);
  const std::vector<Port>& old_ports = same_ports ? ports : moved_ports;
  std::vector<std::uint64_t> old_argmin((old_ports.size() + 63) / 64);
  const NextHopGroup removal;  // a route without next hops
  std::vector<Route> routes;
  if (before == nullptr) routes.reserve(width);
  for (const std::size_t d : columns) {
    const Managed& dest = switches_[destinations_[d]];
    if (&dest == &m) continue;
    const bool reached = closest_ports(
        ports, [d](const Port& p) { return p.row[d]; }, argmin);
    // Over the same ports equal bitsets are equal hop sets; otherwise the
    // hops are compared, both in port order.
    const auto unchanged = [&] {
      const int* saved = before->column(d);
      const auto old_distance = [saved, d](const Port& p) {
        return saved != nullptr ? saved[p.index] : p.row[d];
      };
      if (closest_ports(old_ports, old_distance, old_argmin) != reached) {
        return false;
      }
      return !reached ||
             (same_ports ? argmin == old_argmin
                         : next_hops(ports, argmin) ==
                               next_hops(old_ports, old_argmin));
    };
    if (before == nullptr ? !reached : unchanged()) continue;
    const NextHopGroup& group =
        reached ? memo.get(argmin.data(),
                           [&] { return next_hops(ports, argmin); })
                : removal;
    for (const net::Prefix& prefix : dest.prefixes) {
      routes.push_back(Route{prefix, group, RouteSource::kOspf});
    }
  }
  return routes;
}

void CentralController::converge() {
  refresh_view();
  reverse_spf_rows(view_.graph(), routers_, targets_, emit_order_, rows_);
  for (Managed& m : switches_) {
    m.adjacency = live_adjacency(*m.sw);
    m.sw->fib().apply_source_delta(
        RouteSource::kOspf, routes_of(m, m.adjacency, emit_order_, nullptr));
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
  const std::uint64_t since = view_.graph().version();
  refresh_view();
  const LinkStateGraph& g = view_.graph();
  // Only the columns the view's changes can move are refilled, and a
  // switch's routes depend only on its live adjacency and its neighbors'
  // rows. A switch with neither changed is clean: its routes stay as they
  // are. A dirty one is pushed the routes that changed, read off the
  // columns that moved, or every column when its adjacency changed: the
  // FIB writes exactly the slots a whole-set delta would. When the FIBs
  // may not match the last rows (rebuild_all_), every column is refilled
  // and every switch gets its whole route set.
  const bool whole = rebuild_all_;
  std::vector<std::size_t> columns = emit_order_;
  if (!whole) stale_columns(g, since, routers_, targets_, rows_, columns);
  const SavedColumns before(rows_, switches_.size(), destinations_.size(),
                            whole ? std::vector<std::size_t>() : columns);
  reverse_spf_rows(g, routers_, targets_, columns, rows_);
  const std::vector<bool> row_changed = before.changed_rows();
  for (Managed& m : switches_) {
    std::vector<LocalAdjacency> adjacency = live_adjacency(*m.sw);
    const bool moved = adjacency != m.adjacency;
    bool dirty = whole || moved;
    for (std::size_t i = 0; !dirty && i < adjacency.size(); ++i) {
      const auto it = index_of_.find(adjacency[i].neighbor);
      dirty = it != index_of_.end() && row_changed[it->second];
    }
    std::vector<Route> routes;
    if (dirty) {
      routes = routes_of(m, adjacency, moved || whole ? emit_order_ : columns,
                         whole ? nullptr : &before);
      m.adjacency = std::move(adjacency);
    }
    // Every switch still gets its push, and the hook fires, at the same
    // instant — the controller does not know a delta is empty before the
    // switch applies it — so fib_pushes and the simulated event stream
    // are unchanged; only the redundant route sets and FIB writes go.
    ++counters_.fib_pushes;
    ++pushes_in_flight_;
    sim_->after(config_.push_delay + config_.fib_update_delay,
                [this, sw = m.sw, whole, routes = std::move(routes)]() mutable {
                  --pushes_in_flight_;
                  Fib& fib = sw->fib();
                  if (whole) {
                    fib.apply_source_delta(RouteSource::kOspf,
                                           std::move(routes));
                  } else {
                    for (Route& r : routes) {
                      if (r.next_hops.empty()) {
                        fib.remove(r.prefix, RouteSource::kOspf);
                      } else {
                        fib.install(std::move(r));
                      }
                    }
                  }
                  if (push_hook_) push_hook_(*sw);
                });
  }
  rebuild_all_ = false;
}

}  // namespace f2t::routing
