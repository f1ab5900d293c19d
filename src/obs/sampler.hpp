#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace f2t::net {
class Network;
}

namespace f2t::obs {

/// Sampler cadence and retention. The interval is simulated time; the
/// capacity bounds memory as a ring — once full, the *oldest* rows are
/// overwritten and counted in dropped_rows, so a long run keeps the most
/// recent window (the post-reroute congestion the analysis wants) at a
/// fixed cost.
struct SamplerConfig {
  sim::Time interval = sim::millis(10);
  std::size_t capacity = 4096;  ///< retained ticks (rows)
};

/// The time series one sampled run exports: the column names, the
/// retained rows in chronological order, and how many rows the ring
/// overwrote. Plain data — copied out of the Testbed by the runner so
/// results outlive the simulation.
struct SamplerReport {
  static constexpr int kSchemaVersion = 1;

  struct Row {
    sim::Time at = 0;
    std::vector<double> values;  ///< one per series, same order
  };

  struct Rollup {
    std::string name;
    double p50 = 0;
    double p99 = 0;
    double p999 = 0;
    double max = 0;
  };

  bool enabled = false;
  sim::Time interval = 0;
  std::vector<std::string> series;
  std::vector<Row> rows;
  std::uint64_t dropped_rows = 0;

  /// Per-series p50/p99/p999/max over the retained rows (nearest-rank
  /// percentiles via stats::nearest_rank_sorted, the same convention the
  /// campaign aggregates use). Empty when there are no rows.
  std::vector<Rollup> rollups() const;

  /// The rollup for one series by name (campaign shards summarize queue
  /// depth). Computes just the requested column — O(rows log rows), not
  /// every series — and returns nullopt when the series does not exist
  /// or no rows were retained, so a typo'd metric name is
  /// distinguishable from an all-zero series instead of silently
  /// fabricating a zeroed rollup.
  std::optional<Rollup> rollup_of(const std::string& name) const;

  /// Schema-versioned JSONL: a header line
  ///   {"schema_version":1,"stream":"f2t-samples","interval_ns":I,
  ///    "series":[...],"rows":N,"dropped_rows":D}
  /// then one {"at":T,"v":[...]} line per row (chronological), then a
  /// final {"rollups":[{"name":...,"p50":...,"p99":...,"p999":...,
  /// "max":...},...]} line. Deterministic formatting — byte-identical across runs with
  /// identical inputs.
  void write_jsonl(std::ostream& os) const;
};

/// Periodic telemetry sampler driven by the scheduler.
///
/// Sources are registered before the first tick fires: gauges snapshot a
/// probe's value as-is; rate sources keep the probe's previous value and
/// record `scale * delta / seconds-since-last-tick` (utilization is the
/// delivered-byte counter with scale 8/bandwidth; drop *rates* are the
/// cumulative drop counters differentiated the same way). Each tick
/// reads every probe, appends one ring row and reschedules itself —
/// O(sources) work on the scheduler's own timeline, zero cost to runs
/// that never construct a sampler.
class TelemetrySampler {
 public:
  TelemetrySampler(sim::Simulator& sim, const SamplerConfig& config);

  /// Registers a sampled series. Throws std::logic_error after the first
  /// tick has fired (rows are fixed-width).
  void add_gauge(std::string name, std::function<double()> probe);
  void add_rate(std::string name, std::function<double()> probe,
                double scale = 1.0);

  /// Schedules the first tick `interval` from now. Idempotent.
  void start();

  /// Cancels the pending tick; the collected series stays readable.
  void stop();

  std::size_t source_count() const { return sources_.size(); }
  std::uint64_t ticks() const { return ticks_; }
  std::uint64_t dropped_rows() const { return dropped_; }

  /// Snapshot of the collected series (chronological rows).
  SamplerReport report() const;

 private:
  void tick();

  struct Source {
    std::string name;
    std::function<double()> probe;
    bool rate = false;
    double scale = 1.0;
    double last = 0;  ///< previous probe value (rate sources)
  };

  sim::Simulator& sim_;
  SamplerConfig config_;
  std::vector<Source> sources_;
  std::vector<SamplerReport::Row> ring_;  ///< ring buffer, head_ = oldest
  std::size_t head_ = 0;
  std::uint64_t ticks_ = 0;
  std::uint64_t dropped_ = 0;
  sim::Time last_tick_at_ = 0;
  sim::EventId pending_ = sim::kInvalidEventId;
  bool started_ = false;
};

/// Registers the standard network telemetry on a sampler: per-link,
/// per-direction queue depth ("link<id>.<ab|ba>.qdepth", packets),
/// utilization ("….util", fraction of line rate from delivered bytes) and
/// drop rate ("….drops", wire + tail drops per second), plus network-wide
/// aggregates ("net.queue_depth", "net.drop_rate") and the engine's event
/// execution rate ("sim.event_rate").
void attach_telemetry(TelemetrySampler& sampler, sim::Simulator& sim,
                      net::Network& network);

}  // namespace f2t::obs
