#pragma once

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/l3switch.hpp"
#include "routing/lsdb.hpp"
#include "routing/spf.hpp"

namespace f2t::routing {

/// Timing model of a centralized routing scheme (§V "Centralized Routing
/// DCNs", in the spirit of PortLand [26]): the switch that detects a
/// failure reports it to the controller over an out-of-band channel, the
/// controller recomputes routes from its global view, and pushes new FIBs
/// to every affected switch. Recovery therefore costs
///   detection + report + (batch) + compute + push + FIB update,
/// and F²Tree's local reroute covers exactly that window.
struct CentralConfig {
  sim::Time report_delay = sim::millis(2);   ///< switch -> controller
  sim::Time batch_window = sim::millis(10);  ///< coalesce nearby reports
  sim::Time compute_delay = sim::millis(30); ///< global route computation
  sim::Time push_delay = sim::millis(2);     ///< controller -> switch
  sim::Time fib_update_delay = sim::millis(10);
};

/// The controller plus its per-switch agents. Replaces the distributed
/// protocol entirely: switches run no routing code, they only report port
/// state transitions; the controller owns the global topology view and
/// writes every FIB.
class CentralController {
 public:
  explicit CentralController(const CentralConfig& config = {})
      : config_(config) {}

  struct Counters {
    std::uint64_t reports = 0;
    std::uint64_t computations = 0;
    std::uint64_t fib_pushes = 0;
  };

  /// Registers a switch (and optionally the prefixes it originates, e.g.
  /// a ToR's rack subnet). Call for every switch before converge(). Throws
  /// std::invalid_argument for a switch managed twice or a prefix another
  /// managed switch already originates or the list names twice: every
  /// prefix has one origin and one route per switch.
  void manage(net::L3Switch& sw, std::vector<net::Prefix> prefixes = {});

  /// Computes routes from the current global view and installs them on
  /// every managed switch synchronously (initial convergence at t = 0).
  void converge();

  const Counters& counters() const { return counters_; }
  const CentralConfig& config() const { return config_; }

  /// Observer fired when a pushed FIB actually lands on a switch (after
  /// push + FIB-update delay). Unset by default; one branch per push.
  using PushHook = std::function<void(net::L3Switch&)>;
  void set_push_hook(PushHook hook) { push_hook_ = std::move(hook); }

 private:
  static constexpr std::size_t kNoColumn = ~std::size_t{0};
  struct Managed {
    net::L3Switch* sw = nullptr;
    /// The switch's row column, or kNoColumn when it has no prefixes.
    std::size_t column = kNoColumn;
    /// Live adjacency as of the last computation that built its routes.
    std::vector<LocalAdjacency> adjacency;
  };

  class SavedColumns;
  struct ReadOff;

  void on_report(net::L3Switch& sw);
  void recompute_and_push();
  LsaPtr view_of(const Managed& m) const;
  /// Re-advertises the switches in readvertise_ to view_ (bumping its
  /// version) and sets routers_ and targets_ from it. Shared by converge
  /// and every recompute.
  void refresh_view();
  /// The routes of switches_[self] over `adjacency` and the rows in
  /// rows_, for the listed `columns` in that order, or every column in
  /// column order when `columns` is null. With `before`, only the routes
  /// that differ from those over its previous adjacency and rows are
  /// emitted, and a destination no longer reached gets a route
  /// without next hops: a removal; listed `columns` are then the ones
  /// `before` saved. `scratch` holds buffers reused across switches.
  std::vector<Route> routes_of(std::size_t self,
                               const std::vector<LocalAdjacency>& adjacency,
                               const std::vector<std::size_t>* columns,
                               const SavedColumns* before,
                               ReadOff& scratch) const;

  CentralConfig config_;
  std::vector<Managed> switches_;
  std::unordered_map<net::Ipv4Addr, std::size_t> index_of_;  ///< router id
  std::unordered_set<net::Prefix> originated_;
  /// switches_ index of each row column: the switches with prefixes.
  std::vector<std::size_t> destinations_;
  /// Column d's prefixes: prefixes_[prefix_bounds_[d], prefix_bounds_[d + 1]).
  std::vector<net::Prefix> prefixes_;
  std::vector<std::size_t> prefix_bounds_ = {0};
  /// Per switch: its detected ports changed since the last computation,
  /// which re-advertises it. Set by the port-state handler manage()
  /// installs, at the transition, since the view reads live state.
  std::vector<bool> readvertise_;
  /// The controller's global view, kept across computations so that its
  /// graph's change log says what changed since the last one.
  Lsdb view_;
  /// view_'s router index of each switch (a row) and of each column.
  std::vector<RouterIndex> routers_;
  std::vector<RouterIndex> targets_;
  /// Node-major distances of the last computation: rows_[m · width + d]
  /// is switches_[m]'s distance to column d's switch.
  std::vector<int> rows_;
  /// Set when the next recompute must fill every column and push every
  /// switch its whole route set, because the FIBs may not match rows_: a
  /// switch was added, or a push in flight at converge() lands over it.
  bool rebuild_all_ = true;
  std::size_t pushes_in_flight_ = 0;
  sim::Simulator* sim_ = nullptr;
  sim::EventId pending_compute_ = sim::kInvalidEventId;
  std::uint64_t view_version_ = 0;
  Counters counters_;
  PushHook push_hook_;
};

}  // namespace f2t::routing
