#include "transport/workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace f2t::transport {

// ---------------------------------------------------------------------------
// FlowSizeCdf

FlowSizeCdf::FlowSizeCdf(std::vector<Point> points)
    : points_(std::move(points)) {
  if (points_.empty()) {
    throw std::invalid_argument("FlowSizeCdf: empty table");
  }
  double prev_bytes = 0;
  double prev_cum = 0;
  for (const Point& p : points_) {
    if (p.bytes <= prev_bytes) {
      throw std::invalid_argument("FlowSizeCdf: bytes must ascend");
    }
    if (p.cum <= prev_cum || p.cum > 1.0) {
      throw std::invalid_argument("FlowSizeCdf: cum must ascend to 1");
    }
    prev_bytes = p.bytes;
    prev_cum = p.cum;
  }
  if (points_.back().cum != 1.0) {
    throw std::invalid_argument("FlowSizeCdf: last cum must be 1");
  }
  // Mean of the piecewise-linear CDF: the mass below the first point sits
  // *at* the first point; each later segment spreads its mass uniformly.
  mean_bytes_ = points_.front().bytes * points_.front().cum;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    const double mass = points_[i].cum - points_[i - 1].cum;
    mean_bytes_ += mass * 0.5 * (points_[i].bytes + points_[i - 1].bytes);
  }
}

FlowSizeCdf FlowSizeCdf::websearch() {
  // Shaped after the DCTCP / pFabric web-search mix: tens-of-KB
  // query-responses in the body, a tail reaching tens of MB.
  return FlowSizeCdf({{6e3, 0.15},
                      {13e3, 0.30},
                      {19e3, 0.45},
                      {33e3, 0.60},
                      {53e3, 0.70},
                      {133e3, 0.80},
                      {667e3, 0.90},
                      {1333e3, 0.95},
                      {6667e3, 0.98},
                      {20e6, 1.0}});
}

FlowSizeCdf FlowSizeCdf::datamining() {
  // Shaped after the VL2 data-mining mix: half the flows are sub-KB
  // control messages, the top decile carries the multi-MB shuffles.
  return FlowSizeCdf({{100, 0.50},
                      {1e3, 0.60},
                      {10e3, 0.70},
                      {100e3, 0.75},
                      {1e6, 0.80},
                      {10e6, 0.90},
                      {100e6, 1.0}});
}

FlowSizeCdf FlowSizeCdf::fixed(double bytes) {
  return FlowSizeCdf({{bytes, 1.0}});
}

FlowSizeCdf FlowSizeCdf::lognormal(double median_bytes, double sigma,
                                   double max_bytes) {
  if (!(median_bytes > 0) || !(sigma > 0) || !(max_bytes > 0)) {
    throw std::invalid_argument(
        "FlowSizeCdf: lognormal needs a positive median, sigma and maximum");
  }
  // The CDF at quarter-sigma steps from 4 sigma below the median to 6
  // above it; the mass past max_bytes folds into the last segment.
  std::vector<Point> points;
  for (int step = 0; step <= 40; ++step) {
    const double z = -4.0 + 0.25 * step;
    const double bytes = median_bytes * std::exp(z * sigma);
    if (bytes >= max_bytes) break;
    points.push_back({bytes, 0.5 * std::erfc(-z / std::sqrt(2.0))});
  }
  points.push_back({max_bytes, 1.0});
  return FlowSizeCdf(std::move(points));
}

FlowSizeCdf FlowSizeCdf::by_name(const std::string& name) {
  if (name == "websearch") return websearch();
  if (name == "datamining") return datamining();
  throw std::invalid_argument("FlowSizeCdf: unknown distribution '" + name +
                              "' (want websearch|datamining)");
}

FlowSizeCdf FlowSizeCdf::from_csv(std::string_view text) {
  std::vector<Point> points;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    std::string line(text.substr(pos, eol - pos));
    pos = eol + 1;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const std::size_t comma = line.find(',');
    if (comma == std::string::npos) {
      throw std::invalid_argument("FlowSizeCdf: CSV line missing comma: " +
                                  line);
    }
    try {
      points.push_back(Point{std::stod(line.substr(0, comma)),
                             std::stod(line.substr(comma + 1))});
    } catch (const std::exception&) {
      throw std::invalid_argument("FlowSizeCdf: bad CSV line: " + line);
    }
  }
  return FlowSizeCdf(std::move(points));
}

std::uint64_t FlowSizeCdf::sample(sim::Random& rng) const {
  const double u = rng.uniform_real(0.0, 1.0);
  const Point& first = points_.front();
  double bytes;
  if (u <= first.cum) {
    bytes = first.bytes;
  } else {
    // Find the segment (i-1, i] holding u and interpolate linearly.
    std::size_t i = 1;
    while (i + 1 < points_.size() && u > points_[i].cum) ++i;
    const Point& lo = points_[i - 1];
    const Point& hi = points_[i];
    bytes = lo.bytes + (hi.bytes - lo.bytes) * (u - lo.cum) /
                           (hi.cum - lo.cum);
  }
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(bytes));
}

// ---------------------------------------------------------------------------
// TcpWorkload

namespace {

/// What a partition-aggregate requester sends each worker: Fig 6's 100 B
/// request.
constexpr std::uint64_t kRequestBytes = 100;

double host_uplink_bps(const std::vector<HostStack*>& stacks) {
  net::Host& host = stacks.front()->host();
  if (host.port_count() == 0) {
    throw std::invalid_argument("workload: host has no uplink");
  }
  return host.port(0).link->params().bandwidth_bps;
}

}  // namespace

WorkloadOptions WorkloadOptions::fig6_requests() {
  WorkloadOptions o;
  o.kind = WorkloadKind::kPartitionAggregate;
  o.fanin = 8;
  o.incast_bytes = 2048;
  o.interarrival = sim::millis(200);
  o.deadline = sim::millis(250);
  return o;
}

WorkloadOptions WorkloadOptions::fig6_background() {
  WorkloadOptions o;
  o.sizes = FlowSizeCdf::lognormal(20e3, 1.5, 10e6);
  o.interarrival = sim::millis(280);
  o.interarrival_sigma = 1.0;
  return o;
}

TcpWorkload::TcpWorkload(std::vector<HostStack*> stacks, sim::Random rng,
                         WorkloadOptions options)
    : stacks_(std::move(stacks)),
      options_(std::move(options)),
      // Stateless stream splits: each draw purpose gets its own engine so
      // the sequence of sizes never depends on how many pair draws ran.
      arrival_rng_(rng.split(1)),
      size_rng_(rng.split(2)),
      pair_rng_(rng.split(3)) {
  if (stacks_.size() < 2) {
    throw std::invalid_argument("workload: need >= 2 hosts");
  }
  sim_ = &stacks_.front()->simulator();
  uplink_bps_ = host_uplink_bps(stacks_);
  if (options_.kind != WorkloadKind::kPoisson) {
    options_.fanin = std::min(options_.fanin, stacks_.size() - 1);
    if (options_.fanin == 0) {
      throw std::invalid_argument("workload: fan-in must be positive");
    }
  }
  if (options_.kind == WorkloadKind::kIncast) {
    if (options_.incast_interval <= 0) {
      throw std::invalid_argument("workload: incast interval must be positive");
    }
    return;
  }
  if (options_.interarrival < 0 || options_.interarrival_sigma < 0) {
    throw std::invalid_argument("workload: negative interarrival");
  }
  if (options_.interarrival > 0) {
    arrival_mean_s_ = sim::to_seconds(options_.interarrival);
    return;
  }
  if (options_.kind != WorkloadKind::kPoisson) {
    throw std::invalid_argument(
        "workload: partition-aggregate needs an interarrival");
  }
  // The load-derived value is a mean; a log-normal gap takes a median.
  if (options_.interarrival_sigma > 0) {
    throw std::invalid_argument(
        "workload: log-normal gaps need an interarrival");
  }
  if (options_.load <= 0) {
    throw std::invalid_argument("workload: load must be positive");
  }
  const double rate_per_s =
      options_.load * static_cast<double>(stacks_.size()) * uplink_bps_ /
      (options_.sizes.mean_bytes() * 8.0);
  arrival_mean_s_ = 1.0 / rate_per_s;
}

void TcpWorkload::start() {
  sim_->at(options_.start, [this] {
    switch (options_.kind) {
      case WorkloadKind::kPoisson:
        schedule_poisson();
        break;
      case WorkloadKind::kIncast:
        run_incast_round();
        break;
      case WorkloadKind::kPartitionAggregate:
        issue_request();
        break;
    }
  });
}

sim::Time TcpWorkload::arrival_gap() {
  if (options_.interarrival_sigma > 0) {
    return sim::lognormal_interval(arrival_rng_, arrival_mean_s_,
                                   options_.interarrival_sigma, 1);
  }
  return std::max<sim::Time>(1, sim::from_seconds(arrival_rng_.exponential(
                                    arrival_mean_s_)));
}

void TcpWorkload::schedule_poisson() {
  if (sim_->now() >= options_.stop) return;
  const std::size_t src = pair_rng_.index(stacks_.size());
  std::size_t dst = pair_rng_.index(stacks_.size());
  while (dst == src) dst = pair_rng_.index(stacks_.size());
  launch_flow(src, dst, options_.sizes.sample(size_rng_));
  sim_->after(arrival_gap(), [this] { schedule_poisson(); });
}

void TcpWorkload::draw_workers(std::size_t exclude) {
  workers_.clear();
  for (std::size_t i = 0; i < stacks_.size(); ++i) {
    if (i != exclude) workers_.push_back(i);
  }
  for (std::size_t j = 0; j < options_.fanin; ++j) {
    const std::size_t pick = j + pair_rng_.index(workers_.size() - j);
    std::swap(workers_[j], workers_[pick]);
  }
}

void TcpWorkload::run_incast_round() {
  if (sim_->now() >= options_.stop) return;
  const std::size_t aggregator = pair_rng_.index(stacks_.size());
  draw_workers(aggregator);
  for (std::size_t j = 0; j < options_.fanin; ++j) {
    launch_flow(workers_[j], aggregator, options_.incast_bytes);
  }
  sim_->after(options_.incast_interval, [this] { run_incast_round(); });
}

void TcpWorkload::issue_request() {
  if (sim_->now() >= options_.stop) return;
  const std::size_t requester = pair_rng_.index(stacks_.size());
  draw_workers(requester);
  const std::size_t record =
      add_sample(options_.fanin * options_.incast_bytes);
  answers_left_.push_back(static_cast<std::uint32_t>(options_.fanin));
  for (std::size_t j = 0; j < options_.fanin; ++j) {
    const Handle handle =
        open(record, requester, workers_[j], options_.incast_bytes);
    TcpConnection& conn = *arena_.get(handle).conn;
    conn.b().set_on_delivered([this, handle](std::uint64_t delivered) {
      ActiveFlow* f = arena_.try_get(handle);
      if (f != nullptr && !f->answered && delivered >= kRequestBytes) {
        f->answered = true;
        f->conn->b().write(f->bytes);
      }
    });
    conn.a().set_on_delivered(finish_on_delivery(handle));
    conn.a().write(kRequestBytes);
  }
  sim_->after(arrival_gap(), [this] { issue_request(); });
}

std::size_t TcpWorkload::add_sample(std::uint64_t bytes) {
  stats::FlowSample sample;
  sample.start = sim_->now();
  sample.bytes = bytes;
  sample.ideal = sim::from_seconds(static_cast<double>(bytes) * 8.0 /
                                   uplink_bps_);
  sample.deadline = options_.deadline;
  samples_.push_back(sample);
  return samples_.size() - 1;
}

TcpWorkload::Handle TcpWorkload::open(std::size_t record, std::size_t src,
                                      std::size_t dst, std::uint64_t bytes) {
  const Handle handle = arena_.alloc();
  ActiveFlow& flow = arena_.get(handle);
  flow.record = record;
  flow.bytes = bytes;
  flow.answered = false;
  flow.done = false;
  flow.conn = TcpConnection::open(*stacks_[src], *stacks_[dst], options_.tcp);
  active_.push_back(arena_, core::Arena<ActiveFlow>::index_of(handle));
  peak_active_ = std::max(peak_active_, active_.size());
  return handle;
}

TcpEndpoint::DeliveredFn TcpWorkload::finish_on_delivery(Handle handle) {
  return [this, handle](std::uint64_t delivered) {
    const ActiveFlow* f = arena_.try_get(handle);
    if (f != nullptr && !f->done && delivered >= f->bytes) {
      finish_flow(handle);
    }
  };
}

void TcpWorkload::launch_flow(std::size_t src, std::size_t dst,
                              std::uint64_t bytes) {
  const Handle handle = open(add_sample(bytes), src, dst, bytes);
  TcpConnection& conn = *arena_.get(handle).conn;
  conn.b().set_on_delivered(finish_on_delivery(handle));
  conn.a().write(bytes);
}

void TcpWorkload::finish_flow(Handle handle) {
  ActiveFlow& flow = arena_.get(handle);
  flow.done = true;
  // A request's sample finishes with its last answer; any other flow is
  // its own sample.
  if (options_.kind != WorkloadKind::kPartitionAggregate ||
      --answers_left_[flow.record] == 0) {
    samples_[flow.record].finish = sim_->now();
    ++completed_;
  }
  active_.erase(arena_, core::Arena<ActiveFlow>::index_of(handle));
  // Teardown inside the delivery callback would free the endpoint
  // mid-signal; defer to an immediate follow-up event.
  sim_->after(0, [this, handle] {
    ActiveFlow* f = arena_.try_get(handle);
    if (f == nullptr) return;
    f->conn.reset();
    arena_.release(handle);
  });
}

// ---------------------------------------------------------------------------
// FluidWorkload

FluidWorkload::FluidWorkload(sim::Simulator& sim, FluidFlowTable& table,
                             PathFn path_fn, sim::Random rng, Options options)
    : sim_(sim),
      table_(table),
      path_fn_(std::move(path_fn)),
      options_(std::move(options)),
      arrival_rng_(rng.split(1)),
      size_rng_(rng.split(2)),
      path_rng_(rng.split(3)) {
  if (options_.arrival_rate_per_s <= 0) {
    throw std::invalid_argument("FluidWorkload: arrival rate must be > 0");
  }
  if (path_fn_ == nullptr) {
    throw std::invalid_argument("FluidWorkload: path_fn required");
  }
}

void FluidWorkload::start() {
  sim_.at(options_.start, [this] { schedule_arrival(); });
}

void FluidWorkload::schedule_arrival() {
  if (sim_.now() >= options_.stop) return;
  launch_flow();
  const sim::Time gap =
      std::max<sim::Time>(1, sim::from_seconds(arrival_rng_.exponential(
                                 1.0 / options_.arrival_rate_per_s)));
  sim_.after(gap, [this] { schedule_arrival(); });
}

void FluidWorkload::launch_flow() {
  path_scratch_.clear();
  path_fn_(path_rng_, path_scratch_);
  const std::uint64_t bytes = options_.sizes.sample(size_rng_);

  stats::FlowSample sample;
  sample.start = sim_.now();
  sample.bytes = bytes;
  sample.deadline = options_.deadline;
  double bottleneck = 0;
  for (const std::uint32_t c : path_scratch_) {
    const double cap = table_.capacity_of(c);
    if (bottleneck == 0 || cap < bottleneck) bottleneck = cap;
  }
  if (bottleneck > 0) {
    sample.ideal = sim::from_seconds(static_cast<double>(bytes) * 8.0 /
                                     bottleneck);
  }
  const std::size_t record = samples_.size();
  samples_.push_back(sample);

  const FluidFlowTable::FlowId id = table_.add_flow(path_scratch_);
  const auto handle = live_.alloc();
  LiveFlow& flow = live_.get(handle);
  flow.id = id;
  flow.record = record;
  flow.remaining_bits = static_cast<double>(bytes) * 8.0;
  flow.rate_bps = 0;
  flow.clocked_at = sim_.now();
  flow.has_completion = false;
  const std::uint32_t slot = FluidFlowTable::slot_of(id);
  if (slot >= by_table_slot_.size()) {
    by_table_slot_.resize(slot + 1, core::kNilIndex);
  }
  by_table_slot_[slot] = core::Arena<LiveFlow>::index_of(handle);
  peak_active_ = std::max(peak_active_, live_.live_count());

  reclock_changed();
}

void FluidWorkload::reclock_changed() {
  table_.refresh();
  const sim::Time now = sim_.now();
  for (const FluidFlowTable::FlowId id : table_.last_solved()) {
    const std::uint32_t slot = FluidFlowTable::slot_of(id);
    if (slot >= by_table_slot_.size()) continue;
    const std::uint32_t idx = by_table_slot_[slot];
    if (idx == core::kNilIndex) continue;
    LiveFlow& flow = live_.at_index(idx);
    if (flow.id != id) continue;  // slot recycled by the table
    reclock(flow, now);
  }
}

void FluidWorkload::reclock(LiveFlow& flow, sim::Time now) {
  // Integrate the old rate up to now, then re-time the completion under
  // the new one. Only called for flows the last solve actually touched.
  flow.remaining_bits -= flow.rate_bps * sim::to_seconds(now - flow.clocked_at);
  if (flow.remaining_bits < 0) flow.remaining_bits = 0;
  flow.clocked_at = now;
  flow.rate_bps = table_.rate_of(flow.id);
  if (flow.has_completion) {
    sim_.cancel(flow.completion);
    flow.has_completion = false;
  }
  if (flow.rate_bps > 0) {
    const sim::Time eta = std::max<sim::Time>(
        0, sim::from_seconds(flow.remaining_bits / flow.rate_bps));
    const std::uint32_t slot = FluidFlowTable::slot_of(flow.id);
    flow.completion = sim_.after(eta, [this, slot] { complete_flow(slot); });
    flow.has_completion = true;
  }
}

void FluidWorkload::finalize() {
  if (finalized_) return;
  finalized_ = true;
  table_.refresh();
  const sim::Time now = sim_.now();
  for (std::uint32_t slot = 0;
       slot < static_cast<std::uint32_t>(by_table_slot_.size()); ++slot) {
    const std::uint32_t idx = by_table_slot_[slot];
    if (idx == core::kNilIndex) continue;
    LiveFlow& flow = live_.at_index(idx);
    // Integrate the tail interval so the flow's progress reflects the
    // horizon; a flow whose last bit lands exactly at the horizon (its
    // completion event tied with the scheduler cutoff) still counts.
    flow.remaining_bits -=
        flow.rate_bps * sim::to_seconds(now - flow.clocked_at);
    flow.clocked_at = now;
    if (flow.has_completion) {
      sim_.cancel(flow.completion);
      flow.has_completion = false;
    }
    if (flow.remaining_bits <= 1e-6) {
      samples_[flow.record].finish = now;
      ++completed_;
      table_.remove_flow(flow.id);
      by_table_slot_[slot] = core::kNilIndex;
      live_.release(live_.handle_of_index(idx));
    }
  }
}

void FluidWorkload::complete_flow(std::uint32_t slot) {
  if (slot >= by_table_slot_.size()) return;
  const std::uint32_t idx = by_table_slot_[slot];
  if (idx == core::kNilIndex) return;  // raced with removal: stale event
  LiveFlow& flow = live_.at_index(idx);
  flow.has_completion = false;
  samples_[flow.record].finish = sim_.now();
  ++completed_;
  table_.remove_flow(flow.id);
  by_table_slot_[slot] = core::kNilIndex;
  live_.release(live_.handle_of_index(idx));
  // The departure frees capacity: re-time the flows whose rates rose.
  reclock_changed();
}

}  // namespace f2t::transport
