#pragma once

#include <memory>
#include <vector>

#include "net/l3switch.hpp"
#include "routing/lsdb.hpp"
#include "routing/spf.hpp"
#include "routing/spf_throttle.hpp"

namespace f2t::routing {

/// Protocol timing knobs. Defaults reproduce the anatomy the paper
/// measured: 200 ms SPF timer (with churn backoff) and 10 ms FIB update,
/// with sub-millisecond per-hop LSA processing ("LSA messages take very
/// little time to get propagated").
struct OspfConfig {
  SpfThrottleConfig throttle;
  sim::Time fib_update_delay = sim::millis(10);
  sim::Time flood_processing_delay = sim::micros(300);
  /// Per-router SPF computation cost: the calculation takes
  /// `spf_compute_per_router * |LSDB|` before the FIB download starts.
  /// Zero by default (the 10 ms FIB delay measured on the paper's small
  /// testbed already includes its computation); the scale-sweep bench
  /// sets it to model why "failure recovery … may be much longer" in a
  /// production-size DCN (§I / [12]).
  sim::Time spf_compute_per_router = 0;
  /// Periodic LSA refresh (OSPF's LSRefreshTime, 30 min in the RFC):
  /// re-originates the self LSA so databases re-synchronize even if a
  /// flood was lost to congestion. Zero disables (the default: flooding
  /// redundancy over a multi-rooted tree makes total loss improbable, and
  /// refresh noise would perturb the paper's timing experiments).
  sim::Time lsa_refresh_interval = 0;
};

/// Link-state routing instance running on one L3 switch.
///
/// Responsibilities: originate the switch's LSA whenever a local port's
/// detected state changes, flood LSAs hop-by-hop, maintain the LSDB, run
/// throttled SPF, and install the result into the switch's FIB after the
/// FIB-update delay. Static and connected routes are never touched.
class Ospf {
 public:
  struct Counters {
    std::uint64_t lsas_originated = 0;
    std::uint64_t lsas_accepted = 0;
    std::uint64_t lsas_ignored = 0;
    std::uint64_t spf_runs = 0;
    /// Always 0: every run is a full compute_spf. Kept only because
    /// perfbench/trace_main.cpp reads it (routing.spf_incremental_share).
    std::uint64_t spf_incremental_runs = 0;
    /// FIB installs that actually changed at least one entry. Recomputes
    /// yielding an identical route set leave the FIB (and its generation)
    /// untouched and count as fib_noop_installs instead.
    std::uint64_t fib_installs = 0;
    std::uint64_t fib_noop_installs = 0;
  };

  /// Protocol milestones surfaced to the observability layer. Fired at the
  /// sim time the milestone happens (e.g. kFibInstall only after the
  /// FIB-update delay elapsed and the routes are live).
  enum class ObsEvent {
    kLsaOriginated,
    kLsaAccepted,
    kSpfRun,
    kFibInstall,
  };
  using ObsHook = std::function<void(ObsEvent)>;

  Ospf(net::L3Switch& sw, const OspfConfig& config = {});

  /// Unset by default; guarded with one branch per milestone (never on the
  /// per-packet path).
  void set_obs_hook(ObsHook hook) { obs_hook_ = std::move(hook); }

  net::L3Switch& device() { return sw_; }
  const Lsdb& lsdb() const { return lsdb_; }
  const Counters& counters() const { return counters_; }
  const OspfConfig& config() const { return config_; }
  SpfThrottle& throttle() { return throttle_; }

  /// Adds a prefix this router redistributes (a ToR's rack subnet).
  void redistribute(const net::Prefix& prefix);
  const std::vector<net::Prefix>& redistributed() const {
    return redistributed_;
  }

  /// Hooks the instance into the switch (control handler + port-state
  /// observer). Call once after topology construction.
  void attach();

  /// The LSA describing this router's current local state.
  LsaPtr make_self_lsa();

  /// Jump-starts the network to a converged state at t=0: used by
  /// experiment setup instead of simulating cold-start flooding. Installs
  /// the given full LSDB and runs SPF + FIB install synchronously.
  void warm_start(const std::vector<LsaPtr>& all_lsas);

  /// Runs SPF against the current LSDB and installs the result into the
  /// FIB immediately (no timers). Exposed for tests.
  void run_spf_now();

 private:
  void on_port_state(net::PortId port, bool up);
  void handle_control(net::PortId in_port, const net::Packet& packet);
  void originate_and_flood();
  void schedule_refresh();
  void flood(const LsaPtr& lsa, net::PortId except_port);
  void schedule_spf();
  void run_spf_and_schedule_install();

  /// Runs compute_spf and drops redistributed prefixes from the result.
  std::vector<Route> compute_routes();
  /// Applies a computed route set to the FIB as a delta and maintains the
  /// install counters/observability events. Shared tail of every install.
  void install_routes(std::vector<Route> routes);

  net::L3Switch& sw_;
  OspfConfig config_;
  Lsdb lsdb_;
  SpfThrottle throttle_;
  std::vector<net::Prefix> redistributed_;
  std::uint64_t self_sequence_ = 0;
  sim::EventId pending_spf_ = sim::kInvalidEventId;
  sim::EventId pending_install_ = sim::kInvalidEventId;
  Counters counters_;
  ObsHook obs_hook_;
};

/// Builds all self-LSAs and warm-starts every instance with the union —
/// the standard way experiments reach initial convergence instantly.
void warm_start_all(std::vector<std::unique_ptr<Ospf>>& instances);

}  // namespace f2t::routing
