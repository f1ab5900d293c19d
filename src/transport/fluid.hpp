#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/arena.hpp"
#include "net/network.hpp"
#include "net/trace.hpp"
#include "transport/udp_app.hpp"

namespace f2t::transport {

/// Flow-level (fluid) transport: the simulation core's fast fidelity.
///
/// Packet-level runs cost one event per packet per hop — O(10^6) events
/// for a single 3-second probe flow, independent of what is actually being
/// measured. But the paper's headline metric, the connectivity-loss
/// window, is a property of *routing-state transitions*: a CBR probe's
/// packet k is delivered iff, at each hop of the path the routing state
/// assigns it, the traversed channel stays up across its serialization +
/// propagation window. The fluid model therefore simulates no probe
/// packets at all. It watches the routing state (FIB generations and
/// detected-port epochs) and the physical channel transitions, re-traces
/// the probe's path only when the routing state changes, and derives the
/// delivered set in closed form per constant-routing regime.
///
/// Exactness: under oracle detection and a packet-free control plane
/// (central), the fluid arrival set — times, sequence numbers, one-way
/// delays — is *identical* to the packet-level run's, because the probe is
/// the only packet stream and every quantity the packet engine computes
/// per event is piecewise-affine in the send time. With an LSA-flooding
/// control plane (OSPF) the windows agree whenever no control packet
/// shares a busy serializer with a boundary probe packet (control packets
/// are µs-scale and flood only during the outage); the fidelity property
/// suite pins the exact-equality cases. Not modelled (construction
/// refuses): gray faults (per-packet RNG needs packets), probe/BFD
/// detection (hello timing would interleave with probe serialization),
/// and TCP (window dynamics are inherently per-packet).
class FluidProbe {
 public:
  struct Options {
    std::uint16_t sport = 9000;
    std::uint16_t dport = 9000;
    std::uint32_t payload_bytes = net::kMss;
    sim::Time interval = sim::micros(100);
    sim::Time start = 0;
    /// Exclusive send cutoff. Must be finite: the fluid model enumerates
    /// the send set arithmetically.
    sim::Time stop = 0;
  };

  struct Stats {
    std::uint64_t routing_changes = 0;  ///< coalesced change-processor runs
    std::uint64_t retraces = 0;         ///< path traces performed
    std::uint64_t transitions = 0;      ///< channel transitions logged
    std::uint64_t batches = 0;          ///< constant-regime send batches
    std::uint64_t straddlers = 0;       ///< sends split across regimes
    /// Traces that ran out of TTL: the routing state held a forwarding
    /// loop on the probe's path. Loop regimes are the one place the fluid
    /// model is *not* packet-exact — the packet engine buffers looping
    /// packets in saturated queues and drains survivors at reconvergence,
    /// which is inherently per-packet behaviour (see the fidelity
    /// property suite's loop carve-out).
    std::uint64_t loop_traces = 0;
  };

  /// Attaches to every switch FIB, detected-port handler and link channel
  /// of `network`. Attach *after* control-plane convergence (warm-start
  /// installs would only cause idle re-traces) and *before* faults are
  /// injected (channel logs must be complete).
  FluidProbe(net::Network& network, const net::Host& src,
             const net::Host& dst, const Options& options);

  FluidProbe(const FluidProbe&) = delete;
  FluidProbe& operator=(const FluidProbe&) = delete;

  /// Closes the final routing regime and evaluates every send against the
  /// recorded channel availability windows. Call once, after the
  /// simulation ran to its horizon.
  void finalize();

  /// Delivered probe packets, sorted by (arrival time, sequence number);
  /// shape-compatible with UdpSink::arrivals(). Valid after finalize().
  const std::vector<UdpSink::Arrival>& arrivals() const { return arrivals_; }

  std::uint64_t packets_sent() const { return total_sends_; }

  const Stats& stats() const { return stats_; }

  /// The probe flow's current max-min rate share in bits per second. The
  /// probe is the only flow, so water-filling gives its CBR demand capped
  /// by the slowest channel of the current path, or 0 while the path does
  /// not deliver.
  double probe_rate_bps() const;

 private:
  /// One resolved hop of a send's path. `enqueue` is absolute in pending
  /// records and send-relative in regime batches.
  struct Hop {
    std::uint32_t channel = 0;  ///< link id * 2 + direction: the sender
    sim::Time enqueue = 0;
    sim::Time flight = 0;  ///< serialization + propagation
    std::uint8_t ttl = 0;  ///< carried over the hop
  };

  /// A maximal run of sends whose every hop falls inside one
  /// constant-routing regime; hop enqueue fields are offsets from the
  /// send time, so the record covers the whole [k_begin, k_end) range.
  struct Batch {
    std::uint64_t k_begin = 0;
    std::uint64_t k_end = 0;
    std::vector<Hop> hops;
    net::WalkEnd terminal = net::WalkEnd::kNoRoute;
  };

  /// A send whose path straddles a routing change: hops[0..final_count)
  /// were decided by past regimes and are final; the rest is the
  /// optimistic continuation under the newest state, truncated and
  /// re-traced whenever the routing state changes again. Lives in an
  /// arena (hop buffers recycle their capacity) and on exactly one of the
  /// open_/resolved_ intrusive lists.
  struct Pending {
    std::uint64_t k = 0;
    std::vector<Hop> hops;
    std::size_t final_count = 0;
    net::WalkEnd terminal = net::WalkEnd::kNoRoute;
    core::ListLink link;
  };

  struct Transition {
    sim::Time at = 0;
    bool up = true;
  };

  void attach_hooks();
  void mark_routing_dirty();
  void process_change();
  sim::Time send_time(std::uint64_t k) const;
  std::uint64_t first_k_at_or_after(sim::Time t) const;
  sim::Time hop_flight(const net::Link& link) const;
  /// Traces the walk (net::walk_path) of the probe that `sender`
  /// transmits out of `port` at `at` carrying `ttl`, appending one hop
  /// per link crossed. Pure read of the live routing state.
  net::WalkEnd trace_from(const net::Node& sender, net::PortId port,
                          sim::Time at, std::uint8_t ttl,
                          std::vector<Hop>& hops);
  /// Traces the regime path from the source host (send-relative times).
  void retrace_regime();
  /// Decision horizon of the current regime path: a send at t is fully
  /// decided once now > t + off_dec (all forwarding and drop decisions
  /// behind it).
  sim::Time regime_decision_offset() const;
  void partition_sends(sim::Time now);
  void advance_pending(std::uint32_t pending_idx, sim::Time now);
  bool channel_clean(std::uint32_t channel) const;
  bool hop_open(std::uint32_t channel, sim::Time enqueue,
                sim::Time flight) const;
  bool send_delivered(const std::vector<Hop>& hops, sim::Time base) const;
  void emit_arrival(std::uint64_t k, sim::Time at);

  net::Network& network_;
  sim::Simulator& sim_;
  const net::Host& src_;
  const net::Host& dst_;
  Options options_;
  net::Packet probe_;  ///< header fields the ECMP hash consumes
  std::uint32_t wire_bytes_ = 0;
  std::uint64_t total_sends_ = 0;

  /// Per-channel availability: initial state at attach + every transition
  /// since, indexed by link id * 2 + direction.
  std::vector<std::vector<Transition>> channel_log_;
  std::vector<char> channel_init_up_;

  bool routing_dirty_ = false;
  std::vector<Hop> regime_hops_;  ///< enqueue = offset from send time
  net::WalkEnd regime_terminal_ = net::WalkEnd::kNoRoute;
  std::uint64_t next_k_ = 0;  ///< first send not yet batched or pended

  std::vector<Batch> batches_;
  core::Arena<Pending> pending_arena_;
  core::IntrusiveList<Pending, &Pending::link> open_;
  core::IntrusiveList<Pending, &Pending::link> resolved_;
  std::vector<std::uint32_t> pending_scratch_;  ///< open-list snapshot
  std::vector<UdpSink::Arrival> arrivals_;
  bool finalized_ = false;

  Stats stats_;
};

/// Per-flow max-min fair rate shares over directed link channels.
///
/// Progressive water-filling: every unfrozen flow's rate rises uniformly;
/// a flow freezes when it hits its demand or when a channel on its path
/// saturates. Channels are identified as link id * 2 + direction, matching
/// FluidProbe's channel keys.
///
/// Built for 10^5..10^6 concurrent flows. Flows and their path nodes live
/// in core::Arena slabs (FlowId is a generation-checked handle; add/remove
/// never allocate in steady state because released slots recycle their
/// path chains). Each channel keeps an intrusive membership list of the
/// path nodes crossing it, giving solve() the channel<->flow bipartite
/// graph for free. Mutations mark only the channels they touch, and
/// solve() recomputes only the *connected component* of dirty channels:
/// a BFS over membership collects the affected flows (every flow crossing
/// a component channel is itself in the component, so the component owns
/// those channels outright and can be water-filled in isolation — max-min
/// rates of disjoint components are independent). Per-channel scratch
/// (residual capacity, unfrozen-flow count) lives in flat arrays stamped
/// with a solve epoch, the routing/lsgraph SpfArrays idiom, so nothing is
/// ever cleared O(channels).
class FluidFlowTable {
 public:
  /// Arena handle: slot index | generation << 24. Stale handles are
  /// detected, not aliased (remove_flow of a stale id is a no-op,
  /// rate_of of a stale id is 0 — a removed flow's rate).
  using FlowId = std::uint32_t;
  static constexpr double kUnbounded = std::numeric_limits<double>::max();

  /// `channel_count` = 2 * link count; `default_capacity_bps` seeds every
  /// channel (override per channel with set_capacity).
  FluidFlowTable(std::size_t channel_count, double default_capacity_bps);

  void set_capacity(std::uint32_t channel, double bps);
  double capacity_of(std::uint32_t channel) const {
    return capacity_.at(channel);
  }
  std::size_t channel_count() const { return capacity_.size(); }

  /// Registers a flow crossing `path` (channel keys, in order) with an
  /// application demand ceiling. An empty path means "currently unrouted":
  /// the flow's rate is 0 until set_path gives it one.
  FlowId add_flow(std::vector<std::uint32_t> path,
                  double demand_bps = kUnbounded);
  void remove_flow(FlowId id);
  void set_path(FlowId id, std::vector<std::uint32_t> path);
  void set_demand(FlowId id, double demand_bps);

  /// The flow's max-min rate in bps; re-solves if the table is dirty.
  double rate_of(FlowId id);

  /// Solves now if dirty (otherwise a no-op), making last_solved() current
  /// without naming a flow. Rate-integrating consumers call this after a
  /// batch of mutations, then re-clock exactly the flows it recomputed.
  void refresh() {
    if (dirty_) solve();
  }

  /// The dense slot index under a FlowId (stable for the flow's lifetime,
  /// recycled after removal) — lets consumers keep side tables in flat
  /// arrays instead of hash maps.
  static std::uint32_t slot_of(FlowId id) { return id & core::kHandleIndexMask; }

  bool is_live(FlowId id) const { return flows_.contains(id); }
  std::size_t flow_count() const { return flows_.live_count(); }
  std::uint64_t solve_count() const { return solves_; }
  /// Cumulative flows water-filled across all solves — the incrementality
  /// metric: for mutations confined to one component this grows by that
  /// component's size, not by flow_count().
  std::uint64_t solved_flow_visits() const { return solved_flow_visits_; }
  /// Flows touched by the most recent solve.
  std::size_t last_solve_flows() const { return last_solve_flows_; }
  /// Flow handles whose rate was recomputed by the most recent solve (in
  /// component-discovery order). Consumers integrating rate over time
  /// (fluid FCT) re-clock exactly these flows after a query.
  const std::vector<FlowId>& last_solved() const { return last_solved_; }

 private:
  /// One hop of a flow's path: a link in the flow's own chain and a
  /// member of its channel's intrusive list.
  struct PathNode {
    std::uint32_t channel = 0;
    std::uint32_t flow = core::kNilIndex;  ///< owning flow's slot index
    std::uint32_t next_in_path = core::kNilIndex;
    core::ListLink in_channel;
  };
  struct Flow {
    std::uint32_t first_node = core::kNilIndex;
    double demand = kUnbounded;
    double rate = 0.0;
    std::uint64_t seen_epoch = 0;  ///< component-membership stamp
    bool frozen = false;           ///< water-fill scratch
  };
  using MemberList = core::IntrusiveList<PathNode, &PathNode::in_channel>;

  void mark_channel_dirty(std::uint32_t channel);
  void mark_path_dirty(const Flow& flow);
  void link_path(std::uint32_t flow_idx, Flow& flow,
                 const std::vector<std::uint32_t>& path);
  void unlink_path(Flow& flow);
  bool path_equals(const Flow& flow,
                   const std::vector<std::uint32_t>& path) const;
  void touch_channel(std::uint32_t channel);
  /// One solve() per refresh; it water-fills each dirty connected
  /// component independently so disjoint mutation batches cost the sum of
  /// their component sizes, not the square of the union.
  void solve();
  void solve_component(std::uint32_t seed);

  core::Arena<Flow> flows_;
  core::Arena<PathNode> nodes_;
  std::vector<double> capacity_;
  std::vector<MemberList> members_;  ///< per-channel flow membership
  /// Epoch-stamped scratch: valid for channel c iff stamp_[c] == epoch_.
  std::vector<std::uint64_t> stamp_;
  std::vector<double> residual_;
  std::vector<std::uint32_t> load_;
  /// Channels touched since the last solve (flag deduplicates).
  std::vector<char> channel_dirty_;
  std::vector<std::uint32_t> dirty_channels_;
  /// Solve scratch, member-owned so steady-state solves never allocate.
  std::vector<std::uint32_t> comp_flows_;
  std::vector<std::uint32_t> channel_stack_;
  std::vector<std::uint32_t> unfrozen_;
  std::vector<std::uint32_t> still_;
  std::vector<FlowId> last_solved_;
  std::uint64_t epoch_ = 0;
  bool dirty_ = false;
  std::uint64_t solves_ = 0;
  std::uint64_t solved_flow_visits_ = 0;
  std::size_t last_solve_flows_ = 0;
};

}  // namespace f2t::transport
