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

/// Sets `ports` to `adjacency`'s ports toward managed switches, with their
/// rows in the node-major `rows` of the given width. A neighbor the
/// controller does not manage has no row and carries no routes, as in
/// compute_spf.
void ports_of(const std::vector<LocalAdjacency>& adjacency,
              const std::unordered_map<net::Ipv4Addr, std::size_t>& index_of,
              const std::vector<int>& rows, std::size_t width,
              std::vector<Port>& ports) {
  ports.clear();
  for (const LocalAdjacency& a : adjacency) {
    if (const auto it = index_of.find(a.neighbor); it != index_of.end()) {
      ports.push_back(Port{a, it->second, rows.data() + it->second * width});
    }
  }
}

/// The closest ports of n columns, found port by port over whole rows:
/// min[k] is the least of rows[i][k] over the ports i, and bit i % 32 of
/// masks[i / 32 · n + k] is set where rows[i][k] equals it. Mask words as
/// wide as the int rows let the compare vectorize.
void argmin_rows(const std::vector<const int*>& rows, std::size_t n,
                 std::vector<int>& min, std::vector<std::uint32_t>& masks) {
  min.assign(n, SpfArrays::kUnreached);
  int* const least = min.data();
  for (const int* const row : rows) {
    for (std::size_t k = 0; k < n; ++k) least[k] = std::min(least[k], row[k]);
  }
  masks.assign((rows.size() + 31) / 32 * n, 0u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::uint32_t* const word = masks.data() + i / 32 * n;
    const int* const row = rows[i];
    const unsigned shift = i % 32;
    for (std::size_t k = 0; k < n; ++k) {
      word[k] |= std::uint32_t{row[k] == least[k]} << shift;
    }
  }
}

std::vector<std::size_t> every_column(std::size_t width) {
  std::vector<std::size_t> columns(width);
  std::iota(columns.begin(), columns.end(), std::size_t{0});
  return columns;
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
  const std::size_t index = switches_.size();
  index_of_.emplace(sw.router_id(), index);
  std::size_t column = kNoColumn;
  if (!prefixes.empty()) {
    column = destinations_.size();
    destinations_.push_back(index);
    prefixes_.insert(prefixes_.end(), prefixes.begin(), prefixes.end());
    prefix_bounds_.push_back(prefixes_.size());
  }
  switches_.push_back(Managed{&sw, column, {}});
  readvertise_.push_back(true);
  rebuild_all_ = true;
  net::L3Switch* ptr = &sw;
  // A port-state transition is the switch's failure (or recovery) report.
  sw.add_port_state_handler([this, ptr, index](net::PortId, bool) {
    readvertise_[index] = true;
    sim_->after(config_.report_delay, [this, ptr] { on_report(*ptr); });
  });
}

LsaPtr CentralController::view_of(const Managed& m) const {
  auto lsa = std::make_shared<Lsa>();
  lsa->origin = m.sw->router_id();
  lsa->sequence = view_version_;
  lsa->links = live_links(*m.sw);
  if (m.column != kNoColumn) {
    lsa->prefixes.assign(prefixes_.begin() + prefix_bounds_[m.column],
                         prefixes_.begin() + prefix_bounds_[m.column + 1]);
  }
  return lsa;
}

/// The distances of the columns a recompute refills, saved before the
/// refill; every other column of the rows keeps its values.
class CentralController::SavedColumns {
 public:
  SavedColumns(const std::vector<int>& rows, std::size_t height,
               std::size_t width, const std::vector<std::size_t>& columns)
      : rows_(rows),
        columns_(columns),
        width_(width),
        height_(height),
        values_(columns.size() * height_) {
    for (std::size_t k = 0; k < columns.size(); ++k) {
      for (std::size_t m = 0; m < height_; ++m) {
        values_[k * height_ + m] = rows[m * width + columns[k]];
      }
    }
  }

  /// Puts row m's saved values into `copy`: a copy of the whole row when
  /// `whole`, else of the saved columns alone, in their order.
  void restore(std::size_t m, bool whole, int* copy) const {
    for (std::size_t k = 0; k < columns_.size(); ++k) {
      copy[whole ? columns_[k] : k] = values_[k * height_ + m];
    }
  }

  /// Whether each row now differs from its saved values.
  std::vector<bool> changed_rows() const {
    std::vector<bool> changed(height_, false);
    for (std::size_t k = 0; k < columns_.size(); ++k) {
      const int* old = values_.data() + k * height_;
      for (std::size_t m = 0; m < height_; ++m) {
        if (old[m] != rows_[m * width_ + columns_[k]]) changed[m] = true;
      }
    }
    return changed;
  }

 private:
  const std::vector<int>& rows_;
  std::vector<std::size_t> columns_;
  std::size_t width_;
  std::size_t height_;
  std::vector<int> values_;  ///< values_[k · height_ + row], k a saved column
};

/// Buffers of the read-off, reused across the switches of a computation:
/// one side for the routes over the new rows and one for those over the
/// previous rows and adjacency, which a recompute compares them with.
struct CentralController::ReadOff {
  struct Side {
    std::vector<Port> ports;
    std::vector<const int*> rows;  ///< per port, n read-off entries
    std::vector<int> copies;       ///< gathered rows
    std::vector<int> min;
    std::vector<std::uint32_t> masks;
    std::size_t words = 0;  ///< mask words per column

    /// Finds the closest ports over the n read-off columns: the ports'
    /// rows themselves when every column is read and nothing is saved,
    /// else copies of the listed `columns` (every column when null) with
    /// the values `saved` holds put back; listed columns are then the
    /// saved ones.
    void fill(const std::vector<std::size_t>* columns, std::size_t n,
              const SavedColumns* saved) {
      rows.clear();
      if (columns == nullptr && saved == nullptr) {
        for (const Port& p : ports) rows.push_back(p.row);
      } else {
        copies.resize(ports.size() * n);
        for (std::size_t i = 0; i < ports.size(); ++i) {
          int* const copy = copies.data() + i * n;
          if (columns == nullptr) {
            std::copy_n(ports[i].row, n, copy);
          } else {
            for (std::size_t k = 0; k < n; ++k) {
              copy[k] = ports[i].row[(*columns)[k]];
            }
          }
          if (saved != nullptr) {
            saved->restore(ports[i].index, columns == nullptr, copy);
          }
          rows.push_back(copy);
        }
      }
      argmin_rows(rows, n, min, masks);
      words = (ports.size() + 31) / 32;
    }

    bool reached(std::size_t k) const {
      return min[k] != SpfArrays::kUnreached;
    }
    /// Whether columns k and j have the same closest ports.
    bool same_closest(std::size_t k, std::size_t j) const {
      const std::size_t n = min.size();
      for (std::size_t w = 0; w < words; ++w) {
        if (masks[w * n + k] != masks[w * n + j]) return false;
      }
      return true;
    }
    /// The next hops of column k's closest ports, in port order.
    void hops(std::size_t k, std::vector<NextHop>& out) const {
      const std::size_t n = min.size();
      out.clear();
      for (std::size_t i = 0; i < ports.size(); ++i) {
        if ((masks[i / 32 * n + k] >> (i % 32)) & 1u) {
          out.push_back(
              NextHop{ports[i].adjacency.port, ports[i].adjacency.neighbor});
        }
      }
    }
  };

  Side now;
  Side old;
  std::vector<std::uint64_t> key;  ///< now's masks of a column, packed
  std::vector<NextHop> hops;
  std::vector<NextHop> old_hops;
};

void CentralController::refresh_view() {
  // The controller's view is the union of the switches' *detected* local
  // states — exactly the information failure reports carry. A switch
  // whose detected ports did not change has nothing new to advertise.
  ++view_version_;
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    if (readvertise_[i]) view_.consider(view_of(switches_[i]));
  }
  const LinkStateGraph& g = view_.graph();
  routers_.clear();
  for (const Managed& m : switches_) {
    routers_.push_back(g.index_of(m.sw->router_id()));
  }
  targets_.clear();
  for (const std::size_t m : destinations_) targets_.push_back(routers_[m]);
}

/// For each destination, the next hops are the live local ports to the
/// neighbors n that minimize cost(self, n) + row[n]. That is exactly
/// compute_spf's first-hop set: a row may route through `self`, but such
/// a neighbor's sum exceeds the best by at least two links, and
/// compute_spf's self edges are the live adjacency, as here. Precondition:
/// every link in the view costs 1 (live_links advertises cost 1), so
/// cost(self, n) is the same for every neighbor and the minimum is taken
/// over the rows alone. The minima and argmin ports of every column are
/// found port by port, and destinations with the same argmin ports share
/// one next-hop group. A route to a destination depends on nothing else,
/// so the previous route comes from the same read-off over the previous
/// adjacency and rows.
std::vector<Route> CentralController::routes_of(
    std::size_t self, const std::vector<LocalAdjacency>& adjacency,
    const std::vector<std::size_t>* columns, const SavedColumns* before,
    ReadOff& scratch) const {
  const std::size_t width = destinations_.size();
  const std::size_t n = columns == nullptr ? width : columns->size();
  ReadOff::Side& now = scratch.now;
  ReadOff::Side& old = scratch.old;
  ports_of(adjacency, index_of_, rows_, width, now.ports);
  now.fill(columns, n, nullptr);
  if (before != nullptr) {
    ports_of(switches_[self].adjacency, index_of_, rows_, width, old.ports);
    old.fill(columns, n, before);
  }
  NextHopGroupMemo memo((now.words + 1) / 2);
  const NextHopGroup removal;  // a route without next hops
  const NextHopGroup* group = nullptr;  // the group of column `grouped`
  std::size_t grouped = 0;
  std::vector<Route> routes;
  if (before == nullptr) routes.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t d = columns == nullptr ? k : (*columns)[k];
    if (destinations_[d] == self) continue;
    const bool reached = now.reached(k);
    // The ports may have moved, so the hops are compared, both in port
    // order, rather than the bitsets.
    const auto unchanged = [&] {
      if (reached != old.reached(k)) return false;
      if (!reached) return true;
      now.hops(k, scratch.hops);
      old.hops(k, scratch.old_hops);
      return scratch.hops == scratch.old_hops;
    };
    if (before == nullptr ? !reached : unchanged()) continue;
    if (reached && (group == nullptr || !now.same_closest(k, grouped))) {
      scratch.key.assign((now.words + 1) / 2, 0);
      for (std::size_t w = 0; w < now.words; ++w) {
        scratch.key[w / 2] |= std::uint64_t{now.masks[w * n + k]}
                              << (w % 2 * 32);
      }
      group = &memo.get(scratch.key.data(), [&] {
        std::vector<NextHop> hops;
        now.hops(k, hops);
        return hops;
      });
      grouped = k;
    }
    const NextHopGroup& next_hops = reached ? *group : removal;
    for (std::size_t i = prefix_bounds_[d]; i < prefix_bounds_[d + 1]; ++i) {
      routes.push_back(Route{prefixes_[i], next_hops, RouteSource::kOspf});
    }
  }
  return routes;
}

void CentralController::converge() {
  refresh_view();
  reverse_spf_rows(view_.graph(), routers_, targets_,
                   every_column(destinations_.size()), rows_);
  ReadOff scratch;
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    Managed& m = switches_[i];
    m.adjacency = live_adjacency(*m.sw);
    m.sw->fib().apply_source_delta(
        RouteSource::kOspf,
        routes_of(i, m.adjacency, nullptr, nullptr, scratch));
  }
  // A push still in flight lands over the routes just installed, so the
  // next recompute cannot trust them to match the rows.
  rebuild_all_ = pushes_in_flight_ > 0;
  readvertise_.assign(switches_.size(), false);
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
  const std::size_t width = destinations_.size();
  std::vector<std::size_t> columns;
  if (whole) {
    columns = every_column(width);
  } else {
    stale_columns(g, since, routers_, targets_, rows_, columns);
  }
  const SavedColumns before(rows_, switches_.size(), width,
                            whole ? std::vector<std::size_t>() : columns);
  reverse_spf_rows(g, routers_, targets_, columns, rows_);
  const std::vector<bool> row_changed = before.changed_rows();
  // The listed columns ascend, so listing them all is every column.
  const std::vector<std::size_t>* listed =
      columns.size() == width ? nullptr : &columns;
  ReadOff scratch;
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    Managed& m = switches_[i];
    // Only a switch re-advertised in this computation can have another
    // live adjacency.
    std::vector<LocalAdjacency> live;
    if (readvertise_[i]) live = live_adjacency(*m.sw);
    const bool moved = readvertise_[i] && live != m.adjacency;
    const std::vector<LocalAdjacency>& adjacency = moved ? live : m.adjacency;
    bool dirty = whole || moved;
    for (std::size_t p = 0; !dirty && p < adjacency.size(); ++p) {
      const auto it = index_of_.find(adjacency[p].neighbor);
      dirty = it != index_of_.end() && row_changed[it->second];
    }
    std::vector<Route> routes;
    if (dirty) {
      routes = routes_of(i, adjacency, moved ? nullptr : listed,
                         whole ? nullptr : &before, scratch);
      if (moved) m.adjacency = std::move(live);
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
  readvertise_.assign(switches_.size(), false);
}

}  // namespace f2t::routing
