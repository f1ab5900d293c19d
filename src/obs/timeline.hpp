#pragma once

#include <ostream>
#include <vector>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"

namespace f2t::obs {

/// Engine self-profiling for one run: how much discrete-event work the
/// simulation did, how fast the host executed it, and where the wall
/// clock went (setup vs the event loop vs collection).
struct EngineProfile {
  std::size_t events_executed = 0;
  double wall_seconds = 0;  ///< the event loop only
  double sim_seconds = 0;
  /// Wall clock outside the event loop: topology build + convergence
  /// (setup) and post-run metric/arrival collection (collect). Filled by
  /// the runner; zero when the caller drives the Testbed directly.
  double setup_wall_seconds = 0;
  double collect_wall_seconds = 0;

  double events_per_wall_second() const {
    return wall_seconds > 0 ? static_cast<double>(events_executed) /
                                  wall_seconds
                            : 0;
  }
  double wall_per_sim_second() const {
    return sim_seconds > 0 ? wall_seconds / sim_seconds : 0;
  }
};

/// Everything one observed run exports: a metrics snapshot taken at the
/// horizon, the full event journal, and the engine profile. Copied out of
/// the Testbed by the runner so results outlive the simulation.
///
/// `samples` is populated independently of `enabled`: periodic sampling
/// (TestbedConfig::sample_interval) is its own opt-in and does not
/// require the journal/metrics machinery.
struct RunObservation {
  bool enabled = false;
  MetricsSnapshot metrics;
  std::vector<Event> events;
  EngineProfile profile;
  SamplerReport samples;
};

/// One failure episode reconstructed from the journal: all links that
/// went down at the same instant, and the recovery milestones that
/// followed. Times are -1 ("never") when the journal holds no evidence.
struct FailureRecovery {
  sim::Time failed_at = 0;            ///< physical link-down instant
  std::vector<std::int64_t> links;    ///< LinkIds cut at that instant
  sim::Time detected_at = -1;         ///< first port-detected-down after it
  sim::Time backup_at = -1;           ///< first backup-route activation
  sim::Time gap_start = -1;           ///< last pre-gap delivery (paper's gap)
  sim::Time gap_end = -1;             ///< first post-gap delivery
  sim::Time converged_at = -1;        ///< last FIB install/push in the episode
  std::uint64_t packets_lost = 0;     ///< data packets dropped in the gap

  bool detected() const { return detected_at >= 0; }
  bool rerouted() const { return gap_end >= 0; }
  bool converged() const { return converged_at >= 0; }

  /// Table III quantities, relative to the failure instant.
  sim::Time time_to_detect() const { return detected_at - failed_at; }
  sim::Time time_to_first_reroute() const { return gap_end - failed_at; }
  sim::Time time_to_converge() const { return converged_at - failed_at; }
  /// Connectivity-loss duration, identical in definition to
  /// stats::find_connectivity_loss on the delivery stream.
  sim::Time gap() const { return gap_end - gap_start; }
};

/// Replays one run's journal and derives the paper's per-failure
/// quantities (Table III / Fig. 4–6): time-to-detect, time-to-first-
/// rerouted-packet, time-to-converge, and packets lost in the gap.
///
/// Derivation rules (documented in docs/ARCHITECTURE.md):
///  - link-down events sharing one timestamp form one failure episode;
///  - detection is the first port-detected-down at or after the episode;
///  - the gap is computed from packet-delivered events with exactly the
///    semantics of stats::find_connectivity_loss (first inter-delivery
///    gap > min_gap ending after the failure instant), so it matches the
///    UDP probe's ConnectivityLoss measurement by construction;
///  - convergence is the last FIB install / controller push before the
///    next episode (the control plane's final word on this failure);
///  - packets lost are data-plane drop events in [failure, gap end].
class RecoveryTimeline {
 public:
  explicit RecoveryTimeline(const std::vector<Event>& events,
                            sim::Time min_gap = sim::millis(5));

  const std::vector<FailureRecovery>& failures() const { return failures_; }

  /// Total data-plane (non-routing) packet drops in the journal.
  std::uint64_t total_data_drops() const { return total_data_drops_; }
  std::uint64_t total_deliveries() const { return total_deliveries_; }

  /// Human-readable per-episode report.
  void print(std::ostream& os) const;

 private:
  std::vector<FailureRecovery> failures_;
  std::uint64_t total_data_drops_ = 0;
  std::uint64_t total_deliveries_ = 0;
};

}  // namespace f2t::obs
