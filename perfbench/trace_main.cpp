/// perfbench_trace: rebuilds a workload's run from each module's public
/// calls in the order core::run_udp_condition makes them, times every call
/// as a span, reads the modules' public counters afterwards, and prints
/// one JSON object with the per-layer metrics and the outputs the untraced
/// run must match. perfbench/run.py compares those outputs with
/// perfbench_e2e's and fails the traced run on any drift.
///
///   perfbench_trace --workload NAME [--seed N] [--ports N] --spans PATH
///
/// Single-run workloads compose one run. The campaign workload runs
/// exec::run_campaign once with timing hooks on every shard, then composes
/// every kSampleStride-th shard and checks it against the campaign's
/// record of that shard and against an untraced core::run_udp_link_site
/// call. This executable links alloc_count.cpp, so every heap allocation
/// is counted.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "alloc_count.hpp"
#include "exec/campaign.hpp"
#include "reference.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "stats/percentile.hpp"
#include "transport/fluid.hpp"
#include "transport/udp_app.hpp"
#include "transport/workload.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace core = f2t::core;
namespace failure = f2t::failure;
namespace net = f2t::net;
namespace sim = f2t::sim;
namespace stats = f2t::stats;
namespace transport = f2t::transport;

/// Campaign shards composed by the traced run: every 32nd, 16 of 512.
constexpr int kSampleStride = 32;

/// Per-layer counts, summed over every composed run.
using Counts = std::map<std::string, double>;

/// The runner's arrival accounting (delay series, throughput bins and the
/// connectivity-loss window) over a finished run's arrivals. Sets the gap
/// and the arrivals digest of `out`.
void collect_arrivals(
    const std::vector<transport::UdpSink::Arrival>& sink_arrivals,
    std::uint32_t wire_bytes, sim::Time fail_at, RunOutputs& out) {
  stats::TimeSeries delay_series;
  stats::ThroughputMeter throughput{sim::millis(20)};
  std::vector<sim::Time> arrivals;
  arrivals.reserve(sink_arrivals.size());
  for (const auto& a : sink_arrivals) {
    arrivals.push_back(a.at);
    delay_series.add(a.at, sim::to_micros(a.delay));
    throughput.add(a.at, wire_bytes);
  }
  const auto loss = stats::find_connectivity_loss(arrivals, fail_at);
  out.gap_ns = loss ? loss->duration() : 0;
  out.arrivals = arrivals_digest(arrivals);
}

/// Adds the modules' public counters of a finished run to `c`.
void read_counters(core::Testbed& bed, Counts& c) {
  auto& scheduler = bed.sim().scheduler();
  const sim::CalendarStats q = scheduler.queue_stats();
  c["sim.events"] += static_cast<double>(scheduler.executed_count());
  c["sim.calendar_rebuilds"] += static_cast<double>(q.rebuilds());
  c["sim.max_bucket_depth"] =
      std::max(c["sim.max_bucket_depth"], static_cast<double>(q.max_bucket_depth));
  c["sim.cancelled_backlog"] +=
      static_cast<double>(scheduler.cancelled_backlog());

  auto& network = bed.network();
  for (const net::L3Switch* sw : network.switches()) {
    c["net.route_hits"] += static_cast<double>(sw->route_cache().hits());
    c["net.route_lookups"] += static_cast<double>(sw->route_cache().hits() +
                                                  sw->route_cache().misses());
  }
  for (const net::Link* link : network.links()) {
    c["net.hops"] += static_cast<double>(link->delivered());
    c["net.queue_drops"] += static_cast<double>(link->dropped_queue());
    c["net.ecn_marks"] += static_cast<double>(link->queue_marked());
    c["net.link_drops"] +=
        static_cast<double>(link->dropped_down() + link->dropped_gray());
  }
  c["topo.switches"] += static_cast<double>(network.switches().size());
  c["topo.hosts"] += static_cast<double>(network.hosts().size());
  c["topo.links"] += static_cast<double>(network.link_count());

  const auto ospf = bed.total_ospf_counters();
  c["routing.spf_runs"] += static_cast<double>(ospf.spf_runs);
  c["routing.spf_incremental_runs"] +=
      static_cast<double>(ospf.spf_incremental_runs);
  c["routing.fib_installs"] +=
      static_cast<double>(ospf.fib_installs + ospf.fib_noop_installs);
  c["routing.fib_noop_installs"] += static_cast<double>(ospf.fib_noop_installs);
  c["routing.lsas_originated"] += static_cast<double>(ospf.lsas_originated);
  if (bed.config().control_plane == core::ControlPlane::kCentral) {
    const auto& central = bed.controller().counters();
    c["routing.controller_computations"] +=
        static_cast<double>(central.computations);
    c["routing.fib_pushes"] += static_cast<double>(central.fib_pushes);
  }
}

struct Composed {
  RunOutputs outputs;
  double wall_s = 0;  ///< the root span less the extra recompute
};

/// One run composed from module calls, in core::run_udp_condition's order:
/// Testbed, converge, plan, probe (+ workload) attach, fault, three
/// Simulator::run phases, finalize, arrival accounting, teardown.
/// `plan_fn` builds the scenario (a Table IV condition or a campaign link
/// site). Counters of the run are added to `c`.
template <typename PlanFn>
Composed compose_run(Tracer& tracer, const char* root_name,
                     const core::Testbed::TopoBuilder& builder,
                     PlanFn plan_fn, const core::RunKnobs& knobs,
                     bool recompute, Counts& c) {
  const Tracer::Id parent = tracer.begin(root_name);
  const std::uint64_t alloc_setup0 = allocations();
  std::optional<core::Testbed> bed;
  {
    Scope s(tracer, "topo.build", parent);
    bed.emplace(builder, knobs.config);
  }
  {
    Scope s(tracer, "routing.converge", parent);
    bed->converge();
  }
  std::optional<failure::ScenarioPlan> plan;
  {
    Scope s(tracer, "failure.plan", parent);
    plan = plan_fn(bed->topo());
  }
  if (!plan) throw std::runtime_error("no scenario plan");
  c["alloc.setup"] += static_cast<double>(allocations() - alloc_setup0);

  const sim::Time probe_stop = knobs.horizon - sim::millis(200);
  const bool fluid = knobs.fidelity == core::Fidelity::kFlow;
  std::optional<transport::UdpSink> sink;
  std::optional<transport::UdpCbrSender> sender;
  std::unique_ptr<transport::TcpWorkload> workload;
  std::optional<transport::FluidProbe> probe;
  transport::UdpCbrSender::Options so;
  transport::FluidProbe::Options fo;
  {
    Scope s(tracer, "transport.attach", parent);
    if (fluid) {
      fo.sport = plan->sport;
      fo.dport = plan->dport;
      fo.stop = probe_stop;
      probe.emplace(bed->network(), *plan->src, *plan->dst, fo);
    } else {
      sink.emplace(bed->stack_of(*plan->dst), plan->dport);
      so.sport = plan->sport;
      so.dport = plan->dport;
      so.stop = probe_stop;
      sender.emplace(bed->stack_of(*plan->src), plan->dst->addr(), so);
      sender->start();
      if (knobs.workload_enabled) {
        auto wo = knobs.workload;
        wo.stop = std::min(wo.stop, knobs.horizon);
        workload = std::make_unique<transport::TcpWorkload>(
            bed->stacks(),
            sim::Random(sim::Random::derive_stream_seed(
                knobs.config.seed, core::kWorkloadStream)),
            std::move(wo));
        workload->start();
      }
    }
  }
  {
    Scope s(tracer, "failure.apply_fault", parent);
    failure::apply_fault(bed->topo(), bed->injector(), *plan, knobs.fault,
                         knobs.fail_at);
  }

  sim::Simulator& simulator = bed->sim();
  const std::uint64_t alloc_run0 = allocations();
  std::size_t steady_events = 0;
  {
    Scope s(tracer, "sim.pre_failure", parent);
    steady_events += simulator.run(knobs.fail_at);
  }
  c["sim.buckets_at_failure"] = std::max(
      c["sim.buckets_at_failure"],
      static_cast<double>(simulator.scheduler().queue_stats().bucket_count));
  {
    Scope s(tracer, "sim.recovery", parent);
    simulator.run(knobs.fail_at + kRecoveryWindow);
  }
  {
    Scope s(tracer, "sim.post_recovery", parent);
    steady_events += simulator.run(knobs.horizon);
  }
  c["alloc.run"] += static_cast<double>(allocations() - alloc_run0);
  c["sim.steady_events"] += static_cast<double>(steady_events);

  RunOutputs out;
  out.ok = true;
  {
    Scope s(tracer, "transport.finalize", parent);
    if (fluid) {
      probe->finalize();
    } else if (workload != nullptr) {
      const stats::SloSummary slo = stats::compute_slo(
          workload->samples(), knobs.fail_at, knobs.horizon, knobs.horizon);
      out.flows_launched = slo.flows;
      out.flows_completed = slo.completed;
    }
  }
  {
    Scope s(tracer, "stats.collect", parent);
    if (fluid) {
      out.packets_sent = probe->packets_sent();
      out.packets_lost =
          stats::packets_lost(out.packets_sent, probe->arrivals().size());
      collect_arrivals(probe->arrivals(),
                       fo.payload_bytes + net::kUdpHeaderBytes, knobs.fail_at,
                       out);
    } else {
      out.packets_sent = sender->packets_sent();
      out.packets_lost =
          stats::packets_lost(out.packets_sent, sink->packets_received());
      collect_arrivals(sink->arrivals(),
                       so.payload_bytes + net::kUdpHeaderBytes, knobs.fail_at,
                       out);
    }
  }
  out.events = simulator.scheduler().executed_count();

  // Reading counters stays inside the root span: it is tracing overhead.
  read_counters(*bed, c);
  if (workload != nullptr) {
    c["transport.flows_launched"] += static_cast<double>(workload->launched());
    c["transport.flows_completed"] +=
        static_cast<double>(workload->completed());
    c["transport.peak_active_flows"] =
        std::max(c["transport.peak_active_flows"],
                 static_cast<double>(workload->peak_active()));
  }
  if (probe) {
    c["transport.fluid_retraces"] += static_cast<double>(probe->stats().retraces);
    c["transport.fluid_routing_changes"] +=
        static_cast<double>(probe->stats().routing_changes);
    c["transport.fluid_straddlers"] +=
        static_cast<double>(probe->stats().straddlers);
  }
  double recompute_s = 0;
  if (recompute) {
    // After the results are taken, while the probe's FIB hooks are still
    // alive: one more full controller recompute. Not part of the run, so
    // it is left out of the wall the untraced run is compared with.
    const Tracer::Id id = tracer.begin("routing.recompute", parent);
    bed->controller().converge();
    tracer.end(id);
    recompute_s = tracer.duration_s(id);
  }
  {
    // The untraced call tears its run down before it returns; so does
    // this one, probe and workload before the bed they hook into.
    Scope s(tracer, "core.teardown", parent);
    probe.reset();
    workload.reset();
    sender.reset();
    sink.reset();
    bed.reset();
  }
  tracer.end(parent);
  return Composed{out, tracer.duration_s(parent) - recompute_s};
}

double ratio(double num, double base) { return base > 0 ? num / base : 0; }

/// Per-layer metrics from the spans and summed counts (0 where a layer
/// did no such work on this workload).
std::map<std::string, double> layer_metrics(const Tracer& t, Counts c) {
  std::map<std::string, double> m;
  for (const char* span :
       {"topo.build", "routing.converge", "failure.plan", "transport.attach",
        "sim.pre_failure", "sim.recovery", "sim.post_recovery",
        "transport.finalize", "stats.collect", "routing.recompute"}) {
    m[std::string(span) + "_s"] = t.total_s(span);
  }
  for (const char* key :
       {"sim.events", "sim.steady_events", "sim.calendar_rebuilds",
        "sim.max_bucket_depth", "sim.cancelled_backlog",
        "sim.buckets_at_failure", "net.hops", "net.route_lookups",
        "net.queue_drops", "net.ecn_marks", "net.link_drops",
        "transport.flows_launched", "transport.flows_completed",
        "transport.peak_active_flows", "transport.fluid_retraces",
        "transport.fluid_routing_changes", "transport.fluid_straddlers",
        "routing.spf_runs", "routing.fib_installs", "routing.lsas_originated",
        "routing.controller_computations", "routing.fib_pushes",
        "topo.switches", "topo.hosts", "topo.links", "alloc.setup",
        "alloc.run", "exec.setup_s", "exec.shards", "exec.shard_wall_p50_ms",
        "exec.shard_wall_p98_ms", "exec.shard_wall_s", "exec.shard_loop_share",
        "exec.jobs", "exec.campaign_wall_s", "exec.parallel_efficiency",
        "exec.steals", "exec.events"}) {
    m[key] = c[key];
  }
  m["sim.ns_per_event"] =
      ratio((m["sim.pre_failure_s"] + m["sim.post_recovery_s"]) * 1e9,
            c["sim.steady_events"]);
  m["net.route_cache_hit_ratio"] =
      ratio(c["net.route_hits"], c["net.route_lookups"]);
  m["transport.completion_ratio"] =
      ratio(c["transport.flows_completed"], c["transport.flows_launched"]);
  m["routing.spf_incremental_share"] =
      ratio(c["routing.spf_incremental_runs"], c["routing.spf_runs"]);
  m["routing.fib_noop_share"] =
      ratio(c["routing.fib_noop_installs"], c["routing.fib_installs"]);
  m["alloc.per_event"] = ratio(c["alloc.run"], c["sim.events"]);
  m["alloc.per_hop"] = ratio(c["alloc.run"], c["net.hops"]);
  return m;
}

struct Traced {
  std::string outputs;  ///< JSON members the untraced run must match
  double wall_s = 0;    ///< traced counterpart of the untraced wall
  int composed_runs = 0;
  Counts counts;
};

Traced trace_single(Workload w, int ports, std::uint64_t seed,
                    Tracer& tracer) {
  const SingleRun in = single_run(w, ports, run_seed(w, seed, 0));
  Traced t;
  const Composed run = compose_run(
      tracer, "core.run_udp_condition", in.builder,
      [&](const f2t::topo::BuiltTopology& topo) {
        return failure::build_condition(topo, in.condition,
                                        net::Protocol::kUdp);
      },
      in.knobs, /*recompute=*/w == Workload::kFlowCentral, t.counts);
  t.wall_s = run.wall_s;
  t.outputs = "{" + outputs_json(run.outputs) + "}";
  t.composed_runs = 1;
  return t;
}

Traced trace_campaign(int ports, std::uint64_t seed, Tracer& tracer) {
  const core::CampaignSpec spec = campaign_spec(ports, seed);
  const std::vector<core::ShardSpec> shards = core::enumerate_shards(spec);
  Traced t;
  Counts& c = t.counts;

  // Hooks run serialized under the engine's callback mutex (see
  // exec::CampaignOptions), so they write these without locks.
  std::vector<double> start(shards.size(), 0);
  std::vector<double> end(shards.size(), 0);
  std::vector<int> tid(shards.size(), 0);
  std::map<std::thread::id, int> threads;
  double first_start = -1;
  f2t::exec::CampaignOptions options;
  options.jobs = kCampaignJobs;
  options.on_shard_start = [&](const core::ShardSpec& shard) {
    const double now = now_s();
    if (first_start < 0) first_start = now;
    start.at(shard.index) = now;
    tid.at(shard.index) =
        threads
            .try_emplace(std::this_thread::get_id(),
                         static_cast<int>(threads.size()) + 1)
            .first->second;
  };
  options.on_result = [&](const core::ShardResult& r) {
    end.at(r.index) = now_s();
  };
  const double call_start = now_s();
  const core::CampaignResult result = f2t::exec::run_campaign(spec, options);
  const double call_end = now_s();
  const Tracer::Id root =
      tracer.add("exec.run_campaign", Tracer::kNoParent, call_start, call_end, 0);
  tracer.add("exec.setup", root, call_start, first_start, 0);

  std::vector<double> walls;
  double wall_sum = 0;
  double loop_sum = 0;
  int errors = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    tracer.add("exec.shard", root, start[i], end[i], tid[i]);
    walls.push_back((end[i] - start[i]) * 1e3);
    wall_sum += end[i] - start[i];
    loop_sum += result.runs[i].wall_seconds;
    c["exec.events"] += static_cast<double>(result.runs[i].events_executed);
    errors += result.runs[i].error.empty() ? 0 : 1;
  }
  std::sort(walls.begin(), walls.end());
  const double campaign_wall = call_end - call_start;
  c["exec.setup_s"] = first_start - call_start;
  c["exec.shards"] = static_cast<double>(shards.size());
  c["exec.shard_wall_p50_ms"] = stats::nearest_rank_sorted(walls, 0.50);
  c["exec.shard_wall_p98_ms"] = stats::nearest_rank_sorted(walls, 0.98);
  c["exec.shard_wall_s"] = wall_sum;
  c["exec.shard_loop_share"] = ratio(loop_sum, wall_sum);
  c["exec.jobs"] = result.jobs;
  c["exec.campaign_wall_s"] = campaign_wall;
  c["exec.parallel_efficiency"] =
      ratio(wall_sum, result.jobs * campaign_wall);
  c["exec.steals"] = static_cast<double>(result.steals);
  t.wall_s = campaign_wall;

  // Compose a sample of shards from module calls and hold each to the
  // campaign's own record of it and to an untraced call of the entry
  // point exec::run_shard uses, which also gives the arrivals digest.
  int mismatches = 0;
  for (std::size_t i = 0; i < shards.size(); i += kSampleStride) {
    const core::ShardSpec& shard = shards[i];
    const auto builder =
        core::topology_builder(shard.topology.name, shard.topology.ports);
    const core::RunKnobs knobs = shard_knobs(spec, shard);
    const RunOutputs out =
        compose_run(
            tracer, "core.run_udp_link_site", builder,
            [&](const f2t::topo::BuiltTopology& topo) {
              return failure::build_link_site_plan(topo, shard.link_site,
                                                   net::Protocol::kUdp);
            },
            knobs, /*recompute=*/false, c)
            .outputs;
    const RunOutputs ref =
        outputs_of(core::run_udp_link_site(builder, shard.link_site, knobs));
    const core::ShardResult& r = result.runs[i];
    if (!(out == ref) || out.gap_ns != r.connectivity_loss ||
        out.packets_sent != r.packets_sent ||
        out.packets_lost != r.packets_lost ||
        out.events != r.events_executed) {
      ++mismatches;
    }
    ++t.composed_runs;
  }
  t.outputs = "{\"digest\": " + json_string(campaign_digest(result)) +
              ", \"shards\": " + std::to_string(result.runs.size()) +
              ", \"errors\": " + std::to_string(errors) +
              ", \"composed_mismatches\": " + std::to_string(mismatches) +
              "}";
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Workload w = parse_workload(args.workload);
    const int ports = args.ports > 0 ? args.ports : default_ports(w);
    // On the CPU of perfbench_e2e's first run, with the reference kernel
    // timed before and after, so that run.py can compare the two walls.
    pin_to_cpu(0);
    const double ref_before = reference_seconds();
    Tracer tracer;
    const Traced t = w == Workload::kCampaign
                         ? trace_campaign(ports, args.seed, tracer)
                         : trace_single(w, ports, args.seed, tracer);
    const double ref = (ref_before + reference_seconds()) / 2;
    std::map<std::string, double> metrics = layer_metrics(tracer, t.counts);
    metrics["trace.traced_wall_s"] = t.wall_s;
    metrics["trace.composed_runs"] = t.composed_runs;
    if (!args.spans_out.empty()) {
      std::ofstream spans(args.spans_out);
      tracer.write_chrome(spans);
      if (!spans) throw std::runtime_error("cannot write " + args.spans_out);
    }
    std::ostringstream os;
    os << "{\"workload\": " << json_string(workload_name(w))
       << ", \"seed\": " << args.seed << ", \"ports\": " << ports
       << ", \"outputs\": " << t.outputs << ", \"spans\": " << tracer.size()
       << ", \"ref_s\": " << json_number(ref) << ", \"metrics\": {";
    bool first = true;
    for (const auto& [key, value] : metrics) {
      os << (first ? "" : ", ") << json_string(key) << ": " << json_number(value);
      first = false;
    }
    os << "}}";
    std::cout << os.str() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_trace: " << e.what() << "\n";
    return 1;
  }
}
