#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/arena.hpp"
#include "sim/random.hpp"
#include "stats/flow_metrics.hpp"
#include "transport/fluid.hpp"
#include "transport/tcp.hpp"

namespace f2t::transport {

/// Empirical flow-size distribution as a piecewise-linear CDF over bytes.
///
/// The built-in tables are shaped after the two canonical production
/// mixes every datacenter transport paper evaluates against: the
/// web-search workload (DCTCP / pFabric: body of tens-of-KB
/// query-responses, tail into tens of MB) and the data-mining workload
/// (VL2: half the flows are sub-KB control messages, the top decile
/// carries multi-MB shuffles). Custom mixes load from CSV ("bytes,cum"
/// rows, cumulative ascending to 1.0).
///
/// Sampling is inverse-transform: one uniform draw per flow, linear
/// interpolation inside a segment, with the mass below the first point
/// concentrated at the first point (the published tables start at a
/// nonzero quantile).
class FlowSizeCdf {
 public:
  struct Point {
    double bytes = 0;
    double cum = 0;
  };

  /// Web-search-like mix: median ~20 KB, p99 in the MB range.
  static FlowSizeCdf websearch();
  /// Data-mining-like mix: median 100 B, heavy multi-MB tail.
  static FlowSizeCdf datamining();
  /// Degenerate single-size distribution (tests, incast responses).
  static FlowSizeCdf fixed(double bytes);
  /// Log-normal sizes by median and sigma, the shape production-DCN
  /// measurements report for background flows ([25]), tabulated from
  /// 4 sigma below the median and clamped at `max_bytes`.
  static FlowSizeCdf lognormal(double median_bytes, double sigma,
                               double max_bytes);
  /// "websearch" | "datamining" (campaign spec names); throws otherwise.
  static FlowSizeCdf by_name(const std::string& name);
  /// CSV text: one "bytes,cum" pair per line, '#' comments ignored.
  static FlowSizeCdf from_csv(std::string_view text);

  explicit FlowSizeCdf(std::vector<Point> points);

  std::uint64_t sample(sim::Random& rng) const;
  double mean_bytes() const { return mean_bytes_; }
  const std::vector<Point>& points() const { return points_; }

 private:
  std::vector<Point> points_;
  double mean_bytes_ = 0;
};

enum class WorkloadKind {
  kPoisson,  ///< open-loop arrivals between random host pairs
  kIncast,   ///< periodic fan-in rounds: many workers -> one aggregator
  /// Open-loop requests: a requester sends each of `fanin` workers a
  /// 100 B request, and each worker answers `incast_bytes`.
  kPartitionAggregate,
};

struct WorkloadOptions {
  WorkloadKind kind = WorkloadKind::kPoisson;
  FlowSizeCdf sizes = FlowSizeCdf::websearch();
  /// Poisson with `interarrival` 0: offered load as a fraction of the
  /// aggregate host uplink capacity; the arrival rate is load * hosts *
  /// uplink_bps / (mean_size_bytes * 8).
  double load = 0.1;
  /// Poisson and partition-aggregate: the gap between arrivals,
  /// exponential with this mean when `interarrival_sigma` is 0, else
  /// log-normal with this median and sigma. 0 (Poisson with sigma 0
  /// only) derives the mean from `load`.
  sim::Time interarrival = 0;
  double interarrival_sigma = 0;
  /// Fan-in kinds: workers per round or request (capped at hosts - 1).
  std::size_t fanin = 32;
  /// Fan-in kinds: bytes each worker sends back (overrides `sizes`).
  std::uint64_t incast_bytes = 20'000;
  /// Incast: fixed round cadence.
  sim::Time incast_interval = sim::millis(10);
  sim::Time start = 0;
  sim::Time stop = sim::seconds(1);
  /// Per-flow (per-request) completion deadline for the SLO miss-fraction
  /// split (relative to flow start; 0 = best-effort).
  sim::Time deadline = 0;
  TcpConfig tcp;

  /// Fig 6's requests (§IV-B): 8-way partition-aggregate, 100 B asks and
  /// 2 KB answers, exponential gaps of mean 200 ms, 250 ms deadline.
  static WorkloadOptions fig6_requests();
  /// Fig 6's background flows: log-normal sizes (median 20 KB, sigma 1.5,
  /// at most 10 MB) at log-normal gaps (median 280 ms, sigma 1.0).
  static WorkloadOptions fig6_background();
};

/// Packet-fidelity trace-shaped workload: TCP flows between random host
/// pairs (Poisson), worker->aggregator fan-in rounds (incast), or
/// partition-aggregate requests, each one sample that finishes with its
/// last answer (every exchange is its own connection, released as soon
/// as its answer is in).
///
/// Determinism contract: all draws go through Random::split stream seeds
/// of the constructor's rng, so two instances built with the same seed
/// make identical draws regardless of what else consumes randomness in
/// the run — the property campaign shards rely on.
///
/// Bookkeeping is arena-backed (core::Arena): per-flow TCP machinery is
/// torn down and its slot recycled the moment the flow completes, so live
/// memory tracks *concurrent* flows while the all-time record stays a
/// flat vector of PODs.
class TcpWorkload {
 public:
  TcpWorkload(std::vector<HostStack*> stacks, sim::Random rng,
              WorkloadOptions options);

  void start();

  /// Flows (requests) launched and completed; open TCP connections.
  std::size_t launched() const { return samples_.size(); }
  std::size_t completed() const { return completed_; }
  std::size_t active_count() const { return active_.size(); }
  std::size_t peak_active() const { return peak_active_; }

  /// All-time per-flow (per-request) samples; unfinished ones have
  /// finish == kNever.
  const std::vector<stats::FlowSample>& samples() const { return samples_; }

 private:
  /// One connection: a flow, or one exchange of a request.
  struct ActiveFlow {
    std::size_t record = 0;   ///< the sample it finishes
    std::uint64_t bytes = 0;  ///< what its waiting end must receive
    bool answered = false;    ///< exchange: the worker has replied
    bool done = false;        ///< finished; teardown is pending
    std::unique_ptr<TcpConnection> conn;
    core::ListLink link;
  };
  using Handle = core::Arena<ActiveFlow>::Handle;

  void schedule_poisson();
  void run_incast_round();
  void issue_request();
  sim::Time arrival_gap();
  /// Picks `fanin` distinct hosts other than `exclude` into
  /// workers_[0, fanin): a partial Fisher-Yates draw from the pair stream.
  void draw_workers(std::size_t exclude);
  std::size_t add_sample(std::uint64_t bytes);
  Handle open(std::size_t record, std::size_t src, std::size_t dst,
              std::uint64_t bytes);
  /// Delivery callback that finishes `handle` once its bytes are in.
  TcpEndpoint::DeliveredFn finish_on_delivery(Handle handle);
  void launch_flow(std::size_t src, std::size_t dst, std::uint64_t bytes);
  void finish_flow(Handle handle);

  std::vector<HostStack*> stacks_;
  WorkloadOptions options_;
  sim::Random arrival_rng_;
  sim::Random size_rng_;
  sim::Random pair_rng_;
  double arrival_mean_s_ = 0;  ///< gap mean (median when log-normal)
  double uplink_bps_ = 0;
  std::vector<stats::FlowSample> samples_;
  std::vector<std::uint32_t> answers_left_;  ///< per request sample
  core::Arena<ActiveFlow> arena_;
  core::IntrusiveList<ActiveFlow, &ActiveFlow::link> active_;
  std::vector<std::size_t> workers_;  ///< worker draw, capacity reused
  std::size_t completed_ = 0;
  std::size_t peak_active_ = 0;
  sim::Simulator* sim_ = nullptr;
};

/// Flow-fidelity workload: the 10^5..10^6-flow scale path.
///
/// Drives a FluidFlowTable directly — no packets, no per-byte events.
/// Poisson arrivals pull a path from `path_fn` (a routing adapter or a
/// synthetic topology in benches), each live flow integrates its max-min
/// rate over time, and completions are scheduled events re-clocked only
/// when the flow's rate actually changes: after every table mutation the
/// generator asks the table which flows the incremental solve touched
/// (FluidFlowTable::last_solved) and re-times exactly those. Per-event
/// cost is therefore O(affected component), never O(live flows).
class FluidWorkload {
 public:
  /// Fills `path` with directed channel keys for a new flow.
  using PathFn =
      std::function<void(sim::Random&, std::vector<std::uint32_t>&)>;

  struct Options {
    double arrival_rate_per_s = 10'000;
    FlowSizeCdf sizes = FlowSizeCdf::websearch();
    sim::Time start = 0;
    sim::Time stop = sim::seconds(1);
    sim::Time deadline = 0;  ///< relative to flow start; 0 = none
  };

  FluidWorkload(sim::Simulator& sim, FluidFlowTable& table, PathFn path_fn,
                sim::Random rng, Options options);

  void start();
  /// Closes the books at the horizon: integrates remaining bits one last
  /// time so unfinished flows age correctly. Call after the run.
  void finalize();

  std::size_t launched() const { return samples_.size(); }
  std::size_t completed() const { return completed_; }
  std::size_t active_count() const { return live_.live_count(); }
  std::size_t peak_active() const { return peak_active_; }
  const std::vector<stats::FlowSample>& samples() const { return samples_; }

 private:
  struct LiveFlow {
    FluidFlowTable::FlowId id = 0;
    std::size_t record = 0;
    double remaining_bits = 0;
    double rate_bps = 0;
    sim::Time clocked_at = 0;
    sim::EventId completion = 0;
    bool has_completion = false;
  };

  void schedule_arrival();
  void launch_flow();
  void complete_flow(std::uint32_t slot);
  /// Re-clocks every flow the last solve touched; call after mutations.
  void reclock_changed();
  void reclock(LiveFlow& flow, sim::Time now);

  sim::Simulator& sim_;
  FluidFlowTable& table_;
  PathFn path_fn_;
  Options options_;
  sim::Random arrival_rng_;
  sim::Random size_rng_;
  sim::Random path_rng_;
  std::vector<stats::FlowSample> samples_;
  core::Arena<LiveFlow> live_;
  /// Table flow slot -> our arena handle (flat side table, see
  /// FluidFlowTable::slot_of).
  std::vector<std::uint32_t> by_table_slot_;
  std::vector<std::uint32_t> path_scratch_;
  std::size_t completed_ = 0;
  std::size_t peak_active_ = 0;
  bool finalized_ = false;
};

}  // namespace f2t::transport
