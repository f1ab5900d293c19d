#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/runner.hpp"

namespace perfbench {

/// The benchmark's workloads. README.md records why each exists and which
/// ROADMAP item it judges; BENCHMARK.json names them.
enum class Workload {
  kPacketTcp,    ///< "packet-tcp-k8": F² C1, OSPF, packet fidelity + TCP load
  kFlowCentral,  ///< "flow-central-k32": fat C1, central control, flow fidelity
  kCampaign,     ///< "campaign-k8": every switch-link site of fat and f2
};

/// Parses a workload name; throws std::invalid_argument otherwise.
Workload parse_workload(const std::string& name);
const char* workload_name(Workload w);
/// The fabric size the workload's name promises (8, 32, 8). The smoke
/// test overrides it with 4.
int default_ports(Workload w);

/// Offered load of packet-tcp's Poisson websearch background traffic, as
/// a fraction of aggregate host uplink capacity. Fixed: README.md and
/// BENCHMARK.json record it.
inline constexpr double kTcpLoad = 0.01;

/// Campaign worker threads (fixed; BENCHMARK.json records it). One
/// thread: with two, the campaign's wall swung 1.8x between runs on a
/// shared host while single-threaded workloads swung 1.2x.
inline constexpr int kCampaignJobs = 1;

/// Traced runs split Simulator::run at the failure instant and again this
/// long after it. It covers detection (60 ms) through FIB convergence on
/// every workload (F² ~60 ms, central ~114 ms, OSPF ~270 ms).
inline constexpr f2t::sim::Time kRecoveryWindow = f2t::sim::millis(500);

/// Recover seeds a single-run workload cycles through, one run each per
/// round of perfbench_e2e's loop. packet-tcp-k8 cycles 12: its TCP
/// background's websearch sizes are heavy tailed, so one seed's run can
/// cost 2.5 times another's, and a round that runs every seed of the
/// pool once gives every invocation the same mix. flow-central-k32's
/// outputs do not depend on the seed, so its pool is --seed alone.
int seed_pool(Workload w);

/// The recover seed of run i of an invocation with --seed s: s, s+1, ...
/// wrapping within 1..seed_pool(w), or s itself for a pool of one.
std::uint64_t run_seed(Workload w, std::uint64_t seed, int run);

/// Inputs of one core::run_udp_condition call.
struct SingleRun {
  f2t::core::Testbed::TopoBuilder builder;
  f2t::failure::Condition condition = f2t::failure::Condition::kC1;
  f2t::core::RunKnobs knobs;
};

/// Inputs of a single-run workload (kPacketTcp or kFlowCentral).
SingleRun single_run(Workload w, int ports, std::uint64_t seed);

/// The campaign workload's spec: fat-<ports> and f2-<ports> under OSPF,
/// packet fidelity, every switch-link site once plus 8 random-site draws
/// per topology (512 shards at k=8), failure at 100 ms of an 800 ms
/// horizon.
f2t::core::CampaignSpec campaign_spec(int ports, std::uint64_t seed);

/// The knobs exec::run_shard derives for an OSPF packet-fidelity link-site
/// shard of `spec` — lets perfbench_trace and the campaign set-up
/// timing repeat a shard's steps outside the campaign engine.
f2t::core::RunKnobs shard_knobs(const f2t::core::CampaignSpec& spec,
                                const f2t::core::ShardSpec& shard);

/// What every run is checked on and what the traced run must reproduce.
struct RunOutputs {
  bool ok = false;
  std::int64_t gap_ns = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_lost = 0;
  std::uint64_t events = 0;
  std::uint64_t flows_launched = 0;
  std::uint64_t flows_completed = 0;
  /// arrivals_digest of the probe's arrival times. Unlike the counts
  /// above, it changes when the loss window moves in time, e.g. when a
  /// composed run fails the link at another instant.
  std::uint64_t arrivals = 0;

  bool operator==(const RunOutputs&) const = default;
};

RunOutputs outputs_of(const f2t::core::UdpRun& run);

/// 64-bit FNV-1a digest of arrival times, in arrival order.
std::uint64_t arrivals_digest(const std::vector<f2t::sim::Time>& at);

/// Writes `outputs` as the members of a JSON object (no braces).
std::string outputs_json(const RunOutputs& outputs);

/// 64-bit FNV-1a digest of the campaign's deterministic artifact
/// (CampaignResult::write_json with include_profile = false), as hex.
std::string campaign_digest(const f2t::core::CampaignResult& result);

}  // namespace perfbench
