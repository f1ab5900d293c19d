/// f2tsim — command-line front end to the F²Tree reproduction library.
///
/// Commands:
///   f2tsim recover  --topo f2 --ports 8 --condition C1 --control ospf
///                   [--proto udp|tcp] [--detection-ms 60] [--spf-ms 200]
///                   [--ring-width 2] [--aspen-f 1] [--csv]
///                   [--log-level LEVEL] [--metrics-out FILE]
///                   [--events-out FILE] [--timeline]
///   f2tsim workload --topo f2 --ports 8 --seconds 60 --cf 1 [--seed 1]
///                   [--log-level LEVEL]
///   f2tsim campaign --spec FILE [--jobs N] [--out FILE] [--no-profile]
///                   (or ad hoc: --topo f2 --ports 8 --conditions all
///                    --link-sites all --seeds 4)
///   f2tsim topo     --topo f2 --ports 8 [--dot]
///   f2tsim table1   --ports 8 [--aspen-f 1]
///
/// Every command maps onto the same library calls the benches and tests
/// use, so a CLI run is exactly reproducible in code. `recover` and an ad
/// hoc `campaign` read their settings into a core::CampaignSpec
/// (CampaignSpec::from_recover_flags / from_campaign_flags), which holds
/// the defaults and the validation, and exec::run_knobs turns it into a
/// run's knobs, as for a spec file.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/cli.hpp"
#include "core/f2tree.hpp"
#include "core/runner.hpp"
#include "exec/campaign.hpp"
#include "exec/process.hpp"
#include "obs/trace.hpp"
#include "topo/graphviz.hpp"

using namespace f2t;

namespace {

int usage() {
  std::cerr <<
      "usage: f2tsim <recover|workload|campaign|topo|table1> [options]\n"
      "  recover  --topo NAME --ports N --condition C1..C8\n"
      "           [--control ospf|central|bgp] [--proto udp|tcp]\n"
      "           [--detection-ms 60] [--spf-ms 200] [--ring-width 2]\n"
      "           [--aspen-f 1] [--seed 1] [--csv]\n"
      "           [--detection oracle|probe] [--bfd-tx-ms 20]\n"
      "           [--bfd-multiplier 3] [--no-dampening]\n"
      "           [--fault cut|unidir|gray|flap] [--gray-loss 1.0]\n"
      "           [--flap-period-ms 300] [--flap-cycles 5]\n"
      "           [--fidelity packet|flow]\n"
      "           [--workload poisson|incast] [--size-dist websearch|datamining]\n"
      "           [--wl-load 0.1] [--wl-fanin 8] [--wl-flow-bytes 20000]\n"
      "           [--wl-deadline-ms 250]\n"
      "           [--log-level trace|debug|info|warn|error|off]\n"
      "           [--metrics-out FILE] [--events-out FILE] [--timeline]\n"
      "           [--trace-out FILE] [--samples-out FILE]\n"
      "           [--sample-interval-ms 10]\n"
      "  workload --topo NAME --ports N [--seconds 60] [--cf 1] [--seed 1]\n"
      "           [--log-level trace|debug|info|warn|error|off]\n"
      "  campaign --spec FILE [--jobs N] [--out FILE] [--no-profile]\n"
      "           [--workers N] [--resume] [--state-dir DIR]\n"
      "           or ad hoc: [--name S] [--topo NAME] [--ports N]\n"
      "           [--control ospf|central|bgp] [--conditions C1,..|all]\n"
      "           [--link-sites N|all] [--random-sites N] [--seeds N]\n"
      "           [--base-seed N]\n"
      "           [--detection-ms 60] [--spf-ms 200] [--ring-width 2]\n"
      "           [--aspen-f 1] [--detection oracle|probe] [--bfd-tx-ms 20]\n"
      "           [--bfd-multiplier 3] [--no-dampening]\n"
      "           [--fault cut|unidir|gray|flap] [--gray-loss 1.0]\n"
      "           [--flap-period-ms 300] [--flap-cycles 5]\n"
      "           [--fidelity packet|flow]\n"
      "           [--trace] [--sample-interval-ms 0]\n"
      "           [--workload poisson|incast] [--size-dist websearch|datamining]\n"
      "           [--wl-load 0.1] [--wl-fanin 8] [--wl-flow-bytes 20000]\n"
      "           [--wl-deadline-ms 250]\n"
      "  topo     --topo NAME --ports N [--ring-width 2] [--aspen-f 1] [--dot]\n"
      "  table1   --ports N [--aspen-f 1]\n"
      "topologies: fat f2 f2scaled leafspine leafspine-f2 vl2 vl2-f2 aspen\n"
      "--metrics-out/--events-out/--timeline enable observability: a\n"
      "schema-versioned metrics JSON, a JSONL event journal, and a\n"
      "reconstructed per-failure recovery timeline on stdout.\n"
      "--trace-out writes a Chrome trace_event JSON of the causal recovery\n"
      "span chain (open in chrome://tracing or ui.perfetto.dev);\n"
      "--samples-out writes a JSONL telemetry time series sampled every\n"
      "--sample-interval-ms of sim time (queue depths, link utilization,\n"
      "drop rates) with p50/p99/max rollups on the last line.\n"
      "campaign shards the spec's failure matrix across --jobs worker\n"
      "threads; the JSON artifact (minus --no-profile) is byte-identical\n"
      "for any job count. --workers N runs the shards across N forked\n"
      "worker *processes* instead, streaming one JSONL record per shard\n"
      "into --state-dir (default <out>.state); the artifact stays\n"
      "byte-identical, and a killed campaign continues from its\n"
      "checkpointed shards with --resume. --random-sites N adds N\n"
      "randomly drawn single-link failures per topology/control (the\n"
      "survivability sweep; aggregated reliability/availability curves\n"
      "land in the artifact's \"survivability\" section). --workload adds\n"
      "a trace-shaped TCP background workload (Poisson arrivals from an\n"
      "empirical flow-size CDF, or periodic incast fan-in rounds) to each\n"
      "run and reports tail-latency SLOs: FCT p50/p99/p999 and the\n"
      "deadline-miss fraction inside vs outside the failure window\n"
      "(packet fidelity only).\n"
      "recover and ad hoc campaign read their shared settings the way a\n"
      "campaign spec does: an invalid value fails with the same error.\n";
  return 2;
}

sim::LogLevel parse_log_level_option(core::Cli& cli) {
  const std::string text = cli.get("log-level", "warn");
  const auto level = sim::Logger::parse_level(text);
  if (!level) throw std::invalid_argument("unknown log level: " + text);
  return *level;
}

/// Export destinations for one observed run's artefacts.
struct ExportPaths {
  std::string metrics_out;
  std::string events_out;
  std::string trace_out;
  std::string samples_out;
  bool timeline = false;
};

/// Writes the observability artefacts of one observed run: metrics JSON,
/// event-journal JSONL, Chrome trace JSON, sampler JSONL, and (on
/// request) the reconstructed recovery timeline plus the engine profile
/// on stdout. Samples export does not require the event journal — the
/// sampler is its own subsystem and may run with metrics observe off.
int export_observation(const obs::RunObservation& o, const ExportPaths& p) {
  if (!p.samples_out.empty()) {
    std::ofstream out(p.samples_out);
    if (!out) {
      std::cerr << "cannot write " << p.samples_out << "\n";
      return 1;
    }
    o.samples.write_jsonl(out);
  }
  if (!o.enabled) return 0;
  if (!p.metrics_out.empty()) {
    std::ofstream out(p.metrics_out);
    if (!out) {
      std::cerr << "cannot write " << p.metrics_out << "\n";
      return 1;
    }
    o.metrics.write_json(out);
    out << "\n";
  }
  if (!p.events_out.empty()) {
    std::ofstream out(p.events_out);
    if (!out) {
      std::cerr << "cannot write " << p.events_out << "\n";
      return 1;
    }
    obs::write_events_jsonl(out, o.events);
  }
  if (!p.trace_out.empty()) {
    std::ofstream out(p.trace_out);
    if (!out) {
      std::cerr << "cannot write " << p.trace_out << "\n";
      return 1;
    }
    obs::SpanTrace(o.events, o.profile).write_chrome_trace(out);
  }
  if (p.timeline) {
    obs::RecoveryTimeline(o.events).print(std::cout);
    std::cout << "engine: " << o.profile.events_executed << " events, "
              << static_cast<std::uint64_t>(o.profile.events_per_wall_second())
              << " events/s, " << o.profile.wall_per_sim_second()
              << " wall-s per sim-s\n";
  }
  return 0;
}

int cmd_recover(core::Cli& cli) {
  const auto spec = core::CampaignSpec::from_recover_flags(cli);
  const auto& axis = spec.topologies.front();
  const auto builder = core::topology_builder(axis.name, axis.ports,
                                              axis.ring_width, axis.aspen_f);
  const failure::Condition condition = spec.conditions.front();
  const std::string proto = cli.get("proto", "udp");
  const bool csv = cli.get_flag("csv");
  ExportPaths paths;
  paths.metrics_out = cli.get("metrics-out", "");
  paths.events_out = cli.get("events-out", "");
  paths.trace_out = cli.get("trace-out", "");
  paths.samples_out = cli.get("samples-out", "");
  paths.timeline = cli.get_flag("timeline");
  // The cadence of the --samples-out export, recover's own option (a
  // campaign's sample_interval_ms is a spec setting, 0 = off).
  const int sample_interval_ms = cli.get_int("sample-interval-ms", 10);
  if (sample_interval_ms <= 0) {
    throw std::invalid_argument("--sample-interval-ms must be > 0");
  }
  if (spec.workload.enabled && proto != "udp") {
    throw std::invalid_argument(
        "--workload rides the UDP probe run (use --proto udp)");
  }

  core::RunKnobs knobs =
      exec::run_knobs(spec, spec.controls.front(), spec.base_seed);
  knobs.config.log_level = parse_log_level_option(cli);
  knobs.config.observe = paths.timeline || !paths.metrics_out.empty() ||
                         !paths.events_out.empty() || !paths.trace_out.empty();
  if (!paths.samples_out.empty()) {
    knobs.config.sample_interval = sim::millis(sample_interval_ms);
  }
  if (const auto unknown = cli.unknown_keys(); !unknown.empty()) {
    std::cerr << "unknown option: --" << unknown.front() << "\n";
    return usage();
  }

  stats::Table table({"metric", "value"});
  if (proto == "udp") {
    const auto r = core::run_udp_condition(builder, condition, knobs);
    if (!r.ok) {
      std::cerr << "scenario construction failed (condition not applicable "
                   "to this topology?)\n";
      return 1;
    }
    table.row({"scenario", r.scenario});
    table.row({"connectivity loss",
               sim::format_time(r.connectivity_loss)});
    table.row({"packets sent", std::to_string(r.packets_sent)});
    table.row({"packets lost", std::to_string(r.packets_lost)});
    if (r.slo_enabled) {
      table.row({"workload flows", std::to_string(r.slo.flows)});
      table.row({"workload completed", std::to_string(r.slo.completed)});
      table.row({"fct p50 ms", stats::Table::num(r.slo.fct_ms_p50, 3)});
      table.row({"fct p99 ms", stats::Table::num(r.slo.fct_ms_p99, 3)});
      table.row({"fct p999 ms", stats::Table::num(r.slo.fct_ms_p999, 3)});
      table.row({"deadline miss (failure window)",
                 stats::Table::percent(r.slo.miss_in_window, 3)});
      table.row({"deadline miss (outside)",
                 stats::Table::percent(r.slo.miss_out_window, 3)});
    }
    if (const int rc = export_observation(r.observation, paths); rc != 0) {
      return rc;
    }
  } else if (proto == "tcp") {
    const auto r = core::run_tcp_condition(builder, condition, knobs);
    if (!r.ok) {
      std::cerr << "scenario construction failed\n";
      return 1;
    }
    table.row({"throughput collapse", sim::format_time(r.collapse)});
    table.row({"rto fires", std::to_string(r.rto_fires)});
    if (const int rc = export_observation(r.observation, paths); rc != 0) {
      return rc;
    }
  } else {
    std::cerr << "unknown --proto " << proto << "\n";
    return usage();
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
}

int cmd_workload(core::Cli& cli) {
  const auto axis = core::CampaignSpec::TopologyAxis::from_flags(cli);
  const auto builder = core::topology_builder(axis.name, axis.ports,
                                              axis.ring_width, axis.aspen_f);
  const int seconds = cli.get_int("seconds", 60);
  const int cf = cli.get_int("cf", 1);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const sim::LogLevel log_level = parse_log_level_option(cli);
  if (const auto unknown = cli.unknown_keys(); !unknown.empty()) {
    std::cerr << "unknown option: --" << unknown.front() << "\n";
    return usage();
  }

  core::TestbedConfig config;
  config.seed = seed;
  config.log_level = log_level;
  core::Testbed bed(builder, config);
  bed.converge();

  transport::PartitionAggregateOptions pa;
  pa.start = sim::seconds(1);
  pa.stop = sim::seconds(1 + seconds);
  transport::PartitionAggregateApp app(bed.stacks(), sim::Random(seed + 1),
                                       pa);
  app.start();
  transport::BackgroundTrafficOptions bg;
  bg.start = pa.start;
  bg.stop = pa.stop;
  transport::BackgroundTraffic background(bed.stacks(), sim::Random(seed + 2),
                                          bg);
  background.start();
  failure::RandomFailureOptions rf;
  rf.start = sim::seconds(2);
  rf.stop = pa.stop;
  rf.max_concurrent = cf;
  failure::RandomFailureGenerator failures(bed.injector(),
                                           sim::Random(seed + 3), rf);
  failures.start();
  bed.sim().run(pa.stop + sim::seconds(20));

  stats::Table table({"metric", "value"});
  table.row({"requests", std::to_string(app.issued_count())});
  table.row({"completed", std::to_string(app.completed_count())});
  table.row({"failures injected", std::to_string(failures.failures_injected())});
  table.row({"deadline miss ratio",
             stats::Table::percent(
                 app.deadline_miss_ratio(pa.stop + sim::seconds(20)), 3)});
  table.print(std::cout);
  return 0;
}

std::string slurp_or_die(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::invalid_argument("cannot read " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int cmd_campaign(core::Cli& cli) {
  const std::string spec_path = cli.get("spec", "");
  const int jobs = cli.get_int("jobs", 1);
  const std::string out_path = cli.get("out", "campaign.json");
  const bool no_profile = cli.get_flag("no-profile");
  int workers = cli.get_int("workers", 0);
  const bool resume = cli.get_flag("resume");
  const std::string state_dir = cli.get("state-dir", out_path + ".state");

  core::CampaignSpec spec;
  if (resume) {
    // On --resume the checkpoint manifest names the campaign; a --spec
    // given alongside is verified against it (canonical echoes must be
    // byte-identical), never substituted. Ad hoc axis flags are not
    // consulted — they would be rejected as unknown options below.
    const auto manifest =
        core::CheckpointManifest::parse(slurp_or_die(state_dir +
                                                     "/manifest.json"));
    spec = manifest.spec;
    if (workers <= 0) workers = manifest.workers;
    if (!spec_path.empty()) {
      const auto given = core::CampaignSpec::parse(slurp_or_die(spec_path));
      std::ostringstream a;
      std::ostringstream b;
      given.write_json(a, 0);
      spec.write_json(b, 0);
      if (a.str() != b.str()) {
        std::cerr << "--spec does not match the checkpointed campaign in "
                  << state_dir << "\n";
        return 1;
      }
    }
  } else if (!spec_path.empty()) {
    spec = core::CampaignSpec::parse(slurp_or_die(spec_path));
  } else {
    spec = core::CampaignSpec::from_campaign_flags(cli);
  }
  if (const auto unknown = cli.unknown_keys(); !unknown.empty()) {
    std::cerr << "unknown option: --" << unknown.front() << "\n";
    return usage();
  }

  const int total = static_cast<int>(core::enumerate_shards(spec).size());
  core::CampaignResult result;
  if (workers > 0) {
    exec::ProcessCampaignOptions options;
    options.workers = workers;
    options.resume = resume;
    options.state_dir = state_dir;
    // Workers re-exec this binary (the child's command line reads
    // "campaign-worker", so it is visible and killable by name); if the
    // self path cannot be resolved, fall back to fork-only children.
    std::error_code ec;
    const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
    if (!ec) options.exe = self.string();
    int done = 0;
    options.on_record = [&done, total](const core::ShardResult&) {
      ++done;
      if (done % 16 == 0 || done == total) {
        std::cerr << "\r" << done << "/" << total << " shards reduced"
                  << std::flush;
      }
    };
    result = exec::run_campaign_processes(spec, options);
  } else {
    exec::CampaignOptions options;
    options.jobs = jobs;
    std::atomic<int> started{0};
    std::atomic<int> done{0};
    options.on_shard_start = [&started](const core::ShardSpec&) {
      started.fetch_add(1, std::memory_order_relaxed);
    };
    options.on_result = [&started, &done, total](const core::ShardResult&) {
      const int n = done.fetch_add(1, std::memory_order_relaxed) + 1;
      if (n % 16 == 0 || n == total) {
        std::cerr << "\r" << n << "/" << total << " shards done, "
                  << started.load(std::memory_order_relaxed) << " started"
                  << std::flush;
      }
    };
    result = exec::run_campaign(spec, options);
  }
  if (total > 0) std::cerr << "\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  result.write_json(out, !no_profile);

  stats::Table table({"class", "runs", "affected", "failed", "loss ms mean",
                      "p50", "p99", "max", "pkts lost"});
  for (const auto& a : core::aggregate_runs(result.runs)) {
    table.row({a.key, std::to_string(a.runs), std::to_string(a.affected),
               std::to_string(a.failed), stats::Table::num(a.loss_ms_mean, 1),
               stats::Table::num(a.loss_ms_p50, 1),
               stats::Table::num(a.loss_ms_p99, 1),
               stats::Table::num(a.loss_ms_max, 1),
               std::to_string(a.packets_lost_total)});
  }
  table.print(std::cout);
  if (spec.random_sites > 0) {
    stats::Table surv({"class", "draws", "affected", "failed", "avail mean",
                       "avail p50", "avail min", "rel<=10ms", "rel<=100ms"});
    for (const auto& a : core::aggregate_survivability(
             result.runs, spec.horizon - spec.fail_at)) {
      surv.row({a.key, std::to_string(a.draws), std::to_string(a.affected),
                std::to_string(a.failed),
                stats::Table::num(a.availability_mean, 4),
                stats::Table::num(a.availability_p50, 4),
                stats::Table::num(a.availability_min, 4),
                stats::Table::num(a.reliability[1], 3),
                stats::Table::num(a.reliability[2], 3)});
    }
    surv.print(std::cout);
  }
  if (spec.workload.enabled) {
    const core::SloAggregate a = core::aggregate_slo(result.runs);
    stats::Table slo({"slo runs", "flows", "completed", "fct p99 ms mean",
                      "fct p999 ms max", "miss in-window", "miss outside"});
    slo.row({std::to_string(a.runs), std::to_string(a.flows),
             std::to_string(a.completed),
             stats::Table::num(a.fct_p99_ms_mean, 3),
             stats::Table::num(a.fct_p999_ms_max, 3),
             stats::Table::percent(a.miss_in, 3),
             stats::Table::percent(a.miss_out, 3)});
    slo.print(std::cout);
  }
  std::cout << result.runs.size() << " shards, ";
  if (result.workers > 0) {
    std::cout << "workers=" << result.workers;
  } else {
    std::cout << "jobs=" << result.jobs;
  }
  std::cout << ", wall " << stats::Table::num(result.wall_seconds, 2)
            << "s, steals=" << result.steals << " -> " << out_path << "\n";
  return 0;
}

/// Hidden subcommand: one forked campaign worker. The parent invokes
/// `f2tsim campaign-worker --spec <state>/spec.json --shards a:b --out
/// <state>/worker-<i>.jsonl`; not advertised in usage() because users
/// never run it by hand.
int cmd_campaign_worker(core::Cli& cli) {
  const std::string spec_path = cli.get("spec", "");
  const std::string shards = cli.get("shards", "");
  const std::string out_path = cli.get("out", "");
  if (const auto unknown = cli.unknown_keys(); !unknown.empty()) {
    std::cerr << "unknown option: --" << unknown.front() << "\n";
    return 2;
  }
  if (spec_path.empty() || shards.empty() || out_path.empty()) {
    std::cerr << "campaign-worker needs --spec, --shards and --out\n";
    return 2;
  }
  const auto spec = core::CampaignSpec::parse(slurp_or_die(spec_path));
  const auto ranges = core::parse_shard_ranges(shards);
  // Append mode: on --resume the stream already holds this worker's
  // earlier records and new ones must follow them.
  std::ofstream out(out_path, std::ios::binary | std::ios::app);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  exec::run_campaign_worker(spec, ranges, out);
  out.flush();
  return out.good() ? 0 : 1;
}

int cmd_topo(core::Cli& cli) {
  const auto axis = core::CampaignSpec::TopologyAxis::from_flags(cli);
  const auto builder = core::topology_builder(axis.name, axis.ports,
                                              axis.ring_width, axis.aspen_f);
  const bool dot = cli.get_flag("dot");
  if (const auto unknown = cli.unknown_keys(); !unknown.empty()) {
    std::cerr << "unknown option: --" << unknown.front() << "\n";
    return usage();
  }
  sim::Simulator sim(1);
  net::Network net(sim);
  const auto topo = builder(net);
  if (dot) {
    topo::write_graphviz(std::cout, topo);
  } else {
    std::cout << topo.summary() << "\n";
    const auto violations = topo::validate_topology(topo);
    for (const auto& v : violations) std::cout << "VIOLATION: " << v << "\n";
  }
  return 0;
}

int cmd_table1(core::Cli& cli) {
  const int ports = cli.get_int("ports", 8);
  const int f = cli.get_int("aspen-f", 1);
  if (const auto unknown = cli.unknown_keys(); !unknown.empty()) {
    std::cerr << "unknown option: --" << unknown.front() << "\n";
    return usage();
  }
  stats::Table table({"Solution", "Switches", "Nodes", "Modify routing",
                      "Modify data plane"});
  for (const auto& row : core::table1(ports, f)) {
    table.row({row.name, stats::Table::num(row.switches, 0),
               stats::Table::num(row.nodes, 0), row.modifies_routing,
               row.modifies_data_plane});
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    core::Cli cli(argc, argv);
    if (!cli.has_command()) return usage();
    if (cli.command() == "recover") return cmd_recover(cli);
    if (cli.command() == "workload") return cmd_workload(cli);
    if (cli.command() == "campaign") return cmd_campaign(cli);
    if (cli.command() == "campaign-worker") return cmd_campaign_worker(cli);
    if (cli.command() == "topo") return cmd_topo(cli);
    if (cli.command() == "table1") return cmd_table1(cli);
    std::cerr << "unknown command: " << cli.command() << "\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
