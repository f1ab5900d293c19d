/// Reproduces **Fig 6**: impact of random failures on a partition-
/// aggregate workload. Random link failures (log-normal inter-arrival and
/// duration, capped at 1 or 5 concurrent failures) run against ~5
/// requests/s of 8-way partition-aggregate traffic plus log-normal
/// background flows for 600 s. Metrics: the ratio of requests missing the
/// 250 ms deadline (Fig 6(a)) and the CDF of completion times beyond
/// 100 ms (Fig 6(b)).
///
/// Both traffic sources are TcpWorkload presets
/// (WorkloadOptions::fig6_requests and fig6_background), each drawing
/// from its own streams, so fat tree and F²Tree are offered the same
/// request and flow arrivals.
///
/// Paper reference: fat tree misses ~0.4% (1 CF) and ~1.6% (5 CF);
/// F²Tree misses 0% (1 CF) and ~0.06% (5 CF) — a >96% reduction. Under
/// churn fat tree's SPF hold timer grows to its cap, and one SPF waits
/// ~9 s, stranding some requests for seconds. The bench exits 1 unless
/// F²Tree misses no more than fat tree at 1 CF and fewer at 5 CF (or
/// none, when a short run leaves fat tree with no misses at 5 CF).
///
/// Runtime: the full 600 s emulation runs by default; set
/// F2T_FIG6_SECONDS to a positive whole number of seconds to shrink it
/// (counts scale accordingly).
///
/// A second section sweeps the incast fan-in (8/32/128 workers per round)
/// with the incast kind on a fat-16 (1024 hosts) — the worker counts
/// Fig 6's 8-way requests cannot reach — and cross-checks it at fan-in 8
/// against the request preset on the same fabric: one incast round and
/// one partition-aggregate request are the same traffic shape (N workers,
/// 2 KB answers, one aggregator), so their completion-time medians must
/// agree to within the request-leg overhead.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <map>

#include "bench_util.hpp"
#include "stats/percentile.hpp"
#include "transport/workload.hpp"

using namespace f2t;
using namespace f2t::bench;

namespace {

struct Fig6Result {
  double miss_ratio = 0;
  std::size_t requests = 0;
  std::size_t completed = 0;
  std::size_t background_flows = 0;
  std::size_t background_completed = 0;
  int failures = 0;
  stats::Cdf completion_ms;
  double frac_above_200ms = 0;
  double frac_above_1s = 0;
  sim::Time longest_spf_wait = 0;
};

Fig6Result run_fig6(const core::Testbed::TopoBuilder& builder,
                    int concurrent_failures, sim::Time duration,
                    std::uint64_t seed) {
  core::TestbedConfig config;
  config.seed = seed;
  core::Testbed bed(builder, config);
  bed.converge();

  const sim::Time stop = sim::seconds(1) + duration;
  auto request_options = transport::WorkloadOptions::fig6_requests();
  request_options.start = sim::seconds(1);
  request_options.stop = stop;
  transport::TcpWorkload requests(bed.stacks(), sim::Random(seed * 7 + 1),
                                  request_options);
  requests.start();

  auto background_options = transport::WorkloadOptions::fig6_background();
  background_options.start = sim::seconds(1);
  background_options.stop = stop;
  transport::TcpWorkload background(bed.stacks(), sim::Random(seed * 7 + 2),
                                    background_options);
  background.start();

  failure::RandomFailureOptions rf;
  rf.start = sim::seconds(2);
  rf.stop = stop;
  rf.max_concurrent = concurrent_failures;
  // Heavy-tailed (bursty) failure processes, as measured by Gill et al.:
  // bursts of closely spaced failures are what inflate the SPF hold
  // timer toward the multi-second values the paper reports.
  if (concurrent_failures <= 1) {
    rf.interarrival_median_s = 3.5;  // ~40 injected failures over 600 s
    rf.interarrival_sigma = 1.8;
    rf.duration_median_s = 3.0;
    rf.duration_sigma = 1.0;
  } else {
    rf.interarrival_median_s = 2.2;  // ~100 injected failures over 600 s
    rf.interarrival_sigma = 1.5;
    rf.duration_median_s = 6.0;
    rf.duration_sigma = 1.0;
  }
  failure::RandomFailureGenerator failures(bed.injector(),
                                           sim::Random(seed * 7 + 3), rf);
  failures.start();

  // Let late requests finish after the workload stops.
  const sim::Time horizon = stop + sim::seconds(20);
  bed.sim().run(horizon);

  Fig6Result out;
  out.requests = requests.launched();
  out.completed = requests.completed();
  out.background_flows = background.launched();
  out.background_completed = background.completed();
  out.failures = failures.failures_injected();
  out.miss_ratio =
      stats::compute_slo(requests.samples(), 0, 0, horizon).miss_out_window;
  for (const auto& r : requests.samples()) {
    if (r.finish != sim::kNever) {
      out.completion_ms.add(sim::to_millis(r.finish - r.start));
    }
  }
  if (!out.completion_ms.empty()) {
    out.frac_above_200ms = out.completion_ms.fraction_above(200.0);
    out.frac_above_1s = out.completion_ms.fraction_above(1000.0);
  }
  for (auto* sw : bed.topo().all_switches()) {
    out.longest_spf_wait = std::max(
        out.longest_spf_wait, bed.ospf_of(*sw).throttle().longest_wait());
  }
  return out;
}

struct IncastRow {
  std::size_t rounds = 0;
  std::size_t flows = 0;
  std::size_t completed = 0;
  double flow_fct_p99_ms = 0;
  double round_p50_ms = 0;   ///< per-round completion (max over workers)
  double round_miss = 0;     ///< rounds beyond the 250 ms deadline
};

IncastRow run_incast(core::Testbed& bed, std::size_t fanin,
                     sim::Time window) {
  transport::WorkloadOptions o;
  o.kind = transport::WorkloadKind::kIncast;
  o.fanin = fanin;
  o.incast_bytes = 2048;  // fig6_requests()' answer size
  o.incast_interval = sim::millis(100);
  o.start = bed.sim().now() + sim::millis(10);
  o.stop = o.start + window;
  o.deadline = sim::millis(250);
  transport::TcpWorkload wl(bed.stacks(), sim::Random(77 + fanin), o);
  wl.start();
  bed.sim().run(o.stop + sim::seconds(5));  // drain the last rounds

  IncastRow row;
  row.flows = wl.launched();
  row.completed = wl.completed();
  // A round's flows share one launch timestamp; the round completes when
  // its slowest worker response lands (what the aggregator waits for).
  std::map<sim::Time, std::pair<sim::Time, bool>> rounds;  // start -> max/ok
  std::vector<double> fct_ms;
  for (const auto& s : wl.samples()) {
    auto& [max_finish, complete] = rounds.try_emplace(s.start, 0, true)
                                       .first->second;
    if (s.finish == sim::kNever) {
      complete = false;
    } else {
      max_finish = std::max(max_finish, s.finish);
      fct_ms.push_back(sim::to_millis(s.finish - s.start));
    }
  }
  row.rounds = rounds.size();
  std::vector<double> round_ms;
  std::size_t missed = 0;
  for (const auto& [start, r] : rounds) {
    if (!r.second) {
      ++missed;
      continue;
    }
    const sim::Time completion = r.first - start;
    round_ms.push_back(sim::to_millis(completion));
    if (completion > o.deadline) ++missed;
  }
  std::sort(fct_ms.begin(), fct_ms.end());
  std::sort(round_ms.begin(), round_ms.end());
  row.flow_fct_p99_ms = stats::nearest_rank_sorted(fct_ms, 0.99);
  row.round_p50_ms = stats::nearest_rank_sorted(round_ms, 0.50);
  if (!rounds.empty()) {
    row.round_miss = static_cast<double>(missed) /
                     static_cast<double>(rounds.size());
  }
  return row;
}

}  // namespace

int main() {
  sim::Time duration = sim::seconds(600);
  if (const char* env = std::getenv("F2T_FIG6_SECONDS")) {
    // A run of 0 s offers no requests, and its comparison would pass.
    char* end = nullptr;
    const long seconds = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || seconds <= 0) {
      std::cerr << "bench_fig6: F2T_FIG6_SECONDS must be a positive whole "
                   "number of seconds, got '"
                << env << "'\n";
      return 1;
    }
    duration = sim::seconds(seconds);
  }
  std::cout << "F2Tree reproduction - Fig 6: partition-aggregate workload "
               "under random failures (8-port, "
            << sim::to_seconds(duration) << " s, deadline 250 ms)\n";

  stats::Table table({"Topology", "Concurrent failures", "Requests",
                      "Background flows", "Failures injected",
                      "Deadline miss ratio", ">200 ms", ">1 s",
                      "Longest SPF wait"});
  struct Case {
    const char* name;
    core::Testbed::TopoBuilder builder;
    int cf;
  };
  const std::vector<Case> cases = {
      {"fat tree", core::topology_builder("fat", 8), 1},
      {"F2Tree", core::topology_builder("f2", 8), 1},
      {"fat tree", core::topology_builder("fat", 8), 5},
      {"F2Tree", core::topology_builder("f2", 8), 5},
  };

  std::vector<std::pair<std::string, Fig6Result>> results;
  for (const auto& c : cases) {
    auto r = run_fig6(c.builder, c.cf, duration, 1234);
    table.row({c.name, std::to_string(c.cf), std::to_string(r.requests),
               std::to_string(r.background_completed) + "/" +
                   std::to_string(r.background_flows),
               std::to_string(r.failures),
               stats::Table::percent(r.miss_ratio, 3),
               stats::Table::percent(r.frac_above_200ms, 3),
               stats::Table::percent(r.frac_above_1s, 3),
               sim::format_time(r.longest_spf_wait)});
    results.emplace_back(std::string(c.name) + " / " + std::to_string(c.cf) +
                             " CF",
                         std::move(r));
  }

  stats::print_heading(std::cout, "Fig 6(a): deadline-missing requests");
  table.print(std::cout);
  std::cout << "(paper: fat tree 0.4% / 1.6%; F2Tree 0% / ~0.06% -> >96% "
               "reduction)\n";

  stats::print_heading(std::cout,
                       "Fig 6(b): CDF of completion times beyond 100 ms");
  for (auto& [name, r] : results) {
    std::cout << "# " << name << ": completion_ms cumulative_fraction\n";
    for (const auto& p : r.completion_ms.tail_points(100.0, 12)) {
      std::cout << "  " << stats::Table::num(p.value, 1) << " "
                << stats::Table::num(p.cumulative, 5) << "\n";
    }
  }

  // Headline comparison.
  const double fat1 = results[0].second.miss_ratio;
  const double f21 = results[1].second.miss_ratio;
  const double fat5 = results[2].second.miss_ratio;
  const double f25 = results[3].second.miss_ratio;
  stats::print_heading(std::cout, "Reduction of deadline-missing requests");
  std::cout << "1 CF: " << stats::Table::percent(fat1, 3) << " -> "
            << stats::Table::percent(f21, 3) << "; 5 CF: "
            << stats::Table::percent(fat5, 3) << " -> "
            << stats::Table::percent(f25, 3) << "\n";
  // The figure's claim: F²Tree never misses more than fat tree, and under
  // 5 concurrent failures it misses fewer. A run too short for fat tree
  // to miss anything at 5 CF only asks that F²Tree miss nothing either.
  const bool fewer_at_5cf = fat5 > 0 ? f25 < fat5 : f25 <= fat5;
  if (!(f21 <= fat1 && fewer_at_5cf)) {
    std::cerr << "bench_fig6: F2Tree does not beat fat tree (1 CF "
              << fat1 << " vs " << f21 << ", 5 CF " << fat5 << " vs " << f25
              << ")\n";
    return 1;
  }

  // Fan-in sweep: the trace-shaped incast generator on a 1024-host
  // fat-16, no failures — how the tail grows with the worker count, past
  // the 8-way shape Fig 6 is limited to.
  stats::print_heading(std::cout,
                       "Incast fan-in sweep (fat-16, 2 KB responses, "
                       "100 ms cadence, deadline 250 ms)");
  core::Testbed sweep_bed(core::topology_builder("fat", 16));
  sweep_bed.converge();
  const sim::Time window = sim::seconds(5);
  stats::Table sweep({"Fan-in", "Rounds", "Flows", "Completed",
                      "Flow FCT p99 (ms)", "Round p50 (ms)", "Round miss"});
  double incast8_round_p50 = 0;
  for (const std::size_t fanin : {8, 32, 128}) {
    const auto row = run_incast(sweep_bed, fanin, window);
    if (fanin == 8) incast8_round_p50 = row.round_p50_ms;
    sweep.row({std::to_string(fanin), std::to_string(row.rounds),
               std::to_string(row.flows), std::to_string(row.completed),
               stats::Table::num(row.flow_fct_p99_ms, 2),
               stats::Table::num(row.round_p50_ms, 2),
               stats::Table::percent(row.round_miss, 3)});
  }
  sweep.print(std::cout);

  // Cross-check: 8-way partition-aggregate on the same fabric is the same
  // traffic shape as one incast round plus the 100 B request leg, so the
  // median completions must sit within 2x of each other.
  auto pa = transport::WorkloadOptions::fig6_requests();
  pa.start = sweep_bed.sim().now() + sim::millis(10);
  pa.stop = pa.start + window;
  pa.interarrival = sim::millis(100);
  transport::TcpWorkload pa_requests(sweep_bed.stacks(), sim::Random(4242),
                                     pa);
  pa_requests.start();
  sweep_bed.sim().run(pa.stop + sim::seconds(5));
  std::vector<double> pa_ms;
  for (const auto& r : pa_requests.samples()) {
    if (r.finish != sim::kNever) {
      pa_ms.push_back(sim::to_millis(r.finish - r.start));
    }
  }
  std::sort(pa_ms.begin(), pa_ms.end());
  const double pa_p50 = stats::nearest_rank_sorted(pa_ms, 0.50);
  const bool consistent = incast8_round_p50 > 0 && pa_p50 > 0 &&
                          pa_p50 < 2 * incast8_round_p50 &&
                          incast8_round_p50 < 2 * pa_p50;
  std::cout << "cross-check at fan-in 8: incast round p50 "
            << stats::Table::num(incast8_round_p50, 2)
            << " ms vs partition-aggregate request p50 "
            << stats::Table::num(pa_p50, 2) << " ms ("
            << (consistent ? "consistent" : "INCONSISTENT") << ")\n";
  if (!consistent) {
    std::cerr << "bench_fig6: incast rounds and partition-aggregate "
                 "requests disagree at fan-in 8\n";
    return 1;
  }
  return 0;
}
