/// perfbench_e2e: runs one workload in a closed loop through the entry
/// points users launch and prints one JSON object with every run's wall
/// clock, set-up time, reference time and checked outputs. perfbench/run.py
/// turns that into the end-to-end metrics.
///
///   perfbench_e2e --workload NAME [--seed N] [--seconds S] [--ports N]
///
/// The loop runs in rounds, one at a time. A single-run workload's round
/// calls core::run_udp_condition once per seed of its pool (run_seed); a
/// campaign round calls exec::run_campaign once. A round starts only
/// while the time spent so far plus the longest round so far fits in
/// --seconds; the first always runs. So every seed of a pool weighs the
/// same whatever the program's speed, and a run stays within --seconds
/// unless one round alone is longer. With --seconds 0 a single-run
/// workload makes one run: the untraced reference of perfbench_trace.
///
/// Every timed run or campaign also reports "ref_s", the median of
/// reference_seconds() taken on its CPU right before and right after it,
/// and in a campaign also after every kRefStride-th shard.

#include <algorithm>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "exec/campaign.hpp"
#include "reference.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace core = f2t::core;

/// Calls round(0), round(1), ... by the rule in the file comment.
template <typename Round>
void closed_loop(double seconds, Round round) {
  const double start = now_s();
  double longest = 0;
  int i = 0;
  do {
    const double t0 = now_s();
    round(i++);
    longest = std::max(longest, now_s() - t0);
  } while (now_s() - start + longest <= seconds);
}

/// A campaign times the reference kernel after every kRefStride-th shard
/// too (16 of 512): its wall outlasts the drift that a sample before and
/// after it could follow.
constexpr std::size_t kRefStride = 32;

/// The timing members of one timed run or campaign. `refs` holds the
/// reference times taken before and during it; one more is taken now, and
/// "ref_s" is their median.
std::string timing_json(double wall, double setup, std::vector<double> refs) {
  refs.push_back(reference_seconds());
  std::sort(refs.begin(), refs.end());
  const std::size_t n = refs.size();
  const double ref = n % 2 ? refs[n / 2] : (refs[n / 2 - 1] + refs[n / 2]) / 2;
  return "\"wall_s\": " + json_number(wall) + ", \"setup_s\": " +
         json_number(setup) + ", \"ref_s\": " + json_number(ref) + ", ";
}

/// The set-up time of a single run is its EngineProfile::setup_wall_seconds:
/// topology build, converge and scenario plan.
void run_single(Workload w, const Args& args, int ports, std::ostream& os) {
  const int per_round = args.seconds > 0 ? seed_pool(w) : 1;
  int runs = 0;
  os << "\"rounds\": [";
  closed_loop(args.seconds, [&](int round) {
    os << (round > 0 ? ", [" : "[");
    for (int k = 0; k < per_round; ++k, ++runs) {
      pin_to_cpu(runs);
      const std::uint64_t seed = run_seed(w, args.seed, runs);
      const SingleRun in = single_run(w, ports, seed);
      os << (k > 0 ? ", " : "") << "{\"seed\": " << seed << ", ";
      const double ref_before = reference_seconds();
      const double t0 = now_s();
      try {
        const core::UdpRun run =
            core::run_udp_condition(in.builder, in.condition, in.knobs);
        const double wall = now_s() - t0;
        os << timing_json(wall, run.observation.profile.setup_wall_seconds,
                          {ref_before})
           << outputs_json(outputs_of(run));
      } catch (const std::exception& e) {
        os << "\"error\": " << json_string(e.what());
      }
      os << "}";
    }
    os << "]";
  });
  os << "]";
}

/// The campaign engine reports each shard's event-loop wall
/// (ShardResult::wall_seconds) but not its set-up, so a campaign's set-up
/// time is its wall clock outside its shards' event loops: every shard's
/// topology build, converge and plan, plus its probe attach, arrival
/// accounting and teardown, and the engine's own work. The on_result hook
/// that takes the reference samples is left out of the wall.
void run_campaign(const Args& args, int ports, std::ostream& os) {
  const core::CampaignSpec spec = campaign_spec(ports, args.seed);
  // With one job the engine runs every shard, and the hook, on the calling
  // thread (ThreadPool::parallel_for), so the pin holds the whole campaign
  // and the hook's time is the campaign's to subtract.
  static_assert(kCampaignJobs == 1, "pinning assumes one worker thread");
  std::vector<double> refs;
  double hook_s = 0;
  std::size_t shards_done = 0;
  f2t::exec::CampaignOptions options;
  options.jobs = kCampaignJobs;
  options.on_result = [&](const core::ShardResult&) {
    if (++shards_done % kRefStride != 0) return;
    const double t0 = now_s();
    refs.push_back(reference_seconds());
    hook_s += now_s() - t0;
  };
  os << "\"rounds\": [";
  closed_loop(args.seconds, [&](int round) {
    pin_to_cpu(round);
    os << (round > 0 ? ", [{" : "[{");
    refs.assign(1, reference_seconds());
    hook_s = 0;
    shards_done = 0;
    const double t0 = now_s();
    try {
      const core::CampaignResult result = f2t::exec::run_campaign(spec, options);
      const double wall = now_s() - t0 - hook_s;
      std::size_t errors = 0;
      std::size_t not_ok = 0;
      std::uint64_t events = 0;
      double loops = 0;
      for (const core::ShardResult& r : result.runs) {
        errors += r.error.empty() ? 0 : 1;
        not_ok += r.ok ? 0 : 1;
        events += r.events_executed;
        loops += r.wall_seconds;
      }
      os << timing_json(wall, wall - loops, refs)
         << "\"shards\": " << result.runs.size() << ", \"errors\": " << errors
         << ", \"not_ok\": " << not_ok << ", \"events\": " << events
         << ", \"jobs\": " << result.jobs
         << ", \"digest\": " << json_string(campaign_digest(result));
    } catch (const std::exception& e) {
      os << "\"error\": " << json_string(e.what());
    }
    os << "}]";
  });
  os << "]";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Workload w = parse_workload(args.workload);
    const int ports = args.ports > 0 ? args.ports : default_ports(w);
    std::ostringstream os;
    os << "{\"workload\": " << json_string(workload_name(w))
       << ", \"seed\": " << args.seed << ", \"ports\": " << ports << ", ";
    if (w == Workload::kCampaign) {
      run_campaign(args, ports, os);
    } else {
      run_single(w, args, ports, os);
    }
    os << ", \"peak_rss_mb\": "
       << json_number(peak_rss_mb() - reference_footprint_mb()) << "}";
    std::cout << os.str() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_e2e: " << e.what() << "\n";
    return 1;
  }
}
