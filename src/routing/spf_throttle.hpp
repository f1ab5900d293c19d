#pragma once

#include "sim/time.hpp"

namespace f2t::routing {

/// SPF scheduling parameters (Quagga/Cisco-style throttling).
///
/// `initial_delay` is the familiar 200 ms shortest-path-calculation timer
/// the paper's testbed measured; `max_wait` caps the exponential backoff
/// that inflates the timer to multiple seconds under failure churn
/// (the paper observed ~9 s in the Fig 6 experiment).
struct SpfThrottleConfig {
  sim::Time initial_delay = sim::millis(200);
  sim::Time max_wait = sim::seconds(10);
};

/// Exponential-backoff SPF timer.
///
/// Each trigger schedules an SPF run no earlier than `initial_delay` from
/// now and no earlier than the previous run plus the current hold time.
/// The hold doubles once per *scheduled run* (capped at max_wait): any
/// number of triggers that coalesce into one pending run cost exactly one
/// doubling, matching Cisco/Quagga "spf throttling" ([14]), which
/// increments the timer per run of the backoff machinery — not per LSA. A
/// quiet period of twice the current hold resets the backoff; together
/// these reproduce the multi-second timers seen under frequent failures
/// without inflating them on single-failure LSA bursts.
class SpfThrottle {
 public:
  explicit SpfThrottle(const SpfThrottleConfig& config = {});

  /// Called when topology change requires an SPF; returns the absolute
  /// time at which the run should execute. Repeated calls before ran()
  /// describe the same pending run and do not back off further.
  sim::Time schedule(sim::Time now);

  /// Called when the SPF actually runs; completes the pending run so the
  /// next trigger starts (and backs off) a new one.
  void ran(sim::Time now) {
    last_run_ = now;
    pending_ = false;
  }

  sim::Time current_hold() const { return hold_; }
  /// The longest wait any schedule() has imposed (run time minus now).
  sim::Time longest_wait() const { return longest_wait_; }
  /// True between a schedule() and the ran() that retires it.
  bool pending() const { return pending_; }
  const SpfThrottleConfig& config() const { return config_; }

 private:
  SpfThrottleConfig config_;
  sim::Time hold_;
  sim::Time last_run_;
  sim::Time longest_wait_ = 0;
  bool pending_ = false;
};

}  // namespace f2t::routing
