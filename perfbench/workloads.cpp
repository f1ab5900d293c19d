#include "workloads.hpp"

#include <sstream>
#include <stdexcept>

#include "exec/campaign.hpp"

namespace perfbench {

namespace core = f2t::core;
namespace sim = f2t::sim;

namespace {

/// The recover defaults f2tsim applies (detection 60 ms, SPF 200 ms).
core::RunKnobs recover_knobs(std::uint64_t seed) {
  core::RunKnobs knobs;
  knobs.config.detection.down_delay = sim::millis(60);
  knobs.config.detection.up_delay = knobs.config.detection.down_delay;
  knobs.config.ospf.throttle.initial_delay = sim::millis(200);
  knobs.config.seed = seed;
  return knobs;
}

/// 64-bit FNV-1a over `size` bytes at `data`.
std::uint64_t fnv1a(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t value) {
  std::ostringstream os;
  os << std::hex << value;
  return os.str();
}

}  // namespace

Workload parse_workload(const std::string& name) {
  if (name == "packet-tcp-k8") return Workload::kPacketTcp;
  if (name == "flow-central-k32") return Workload::kFlowCentral;
  if (name == "campaign-k8") return Workload::kCampaign;
  throw std::invalid_argument("unknown workload: " + name);
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kPacketTcp:
      return "packet-tcp-k8";
    case Workload::kFlowCentral:
      return "flow-central-k32";
    case Workload::kCampaign:
      return "campaign-k8";
  }
  return "?";
}

int default_ports(Workload w) { return w == Workload::kFlowCentral ? 32 : 8; }

int seed_pool(Workload w) { return w == Workload::kPacketTcp ? 12 : 1; }

std::uint64_t run_seed(Workload w, std::uint64_t seed, int run) {
  const auto pool = static_cast<std::uint64_t>(seed_pool(w));
  if (pool == 1) return seed;
  return (seed - 1 + static_cast<std::uint64_t>(run)) % pool + 1;
}

SingleRun single_run(Workload w, int ports, std::uint64_t seed) {
  SingleRun run;
  run.knobs = recover_knobs(seed);
  if (w == Workload::kPacketTcp) {
    run.builder = core::topology_builder("f2", ports);
    // What `f2tsim recover --workload poisson --wl-load kTcpLoad` runs.
    core::CampaignSpec::WorkloadAxis axis;
    axis.enabled = true;
    axis.load = kTcpLoad;
    run.knobs.workload_enabled = true;
    run.knobs.workload =
        f2t::exec::workload_options_of(axis, run.knobs.horizon);
  } else if (w == Workload::kFlowCentral) {
    run.builder = core::topology_builder("fat", ports);
    run.knobs.config.control_plane = core::ControlPlane::kCentral;
    run.knobs.fidelity = core::Fidelity::kFlow;
  } else {
    throw std::invalid_argument("single_run: campaign-k8 is not one run");
  }
  return run;
}

core::CampaignSpec campaign_spec(int ports, std::uint64_t seed) {
  core::CampaignSpec spec;
  spec.name = "perfbench-campaign";
  spec.topologies = {core::CampaignSpec::TopologyAxis{"fat", ports},
                     core::CampaignSpec::TopologyAxis{"f2", ports}};
  spec.controls = {"ospf"};
  spec.link_sites = -1;
  // 496 sites at k=8; 8 random-site draws per topology (the survivability
  // sweep) bring the campaign to 512 shards.
  spec.random_sites = 8;
  spec.base_seed = seed;
  // Short runs: the probe stops 500 ms after the failure, which still
  // covers OSPF's ~270 ms reconvergence on every site.
  spec.fail_at = sim::millis(100);
  spec.horizon = sim::millis(800);
  return spec;
}

core::RunKnobs shard_knobs(const core::CampaignSpec& spec,
                           const core::ShardSpec& shard) {
  core::RunKnobs knobs;
  knobs.fail_at = spec.fail_at;
  knobs.horizon = spec.horizon;
  knobs.config.detection.down_delay = sim::millis(spec.detection_ms);
  knobs.config.detection.up_delay = knobs.config.detection.down_delay;
  knobs.config.ospf.throttle.initial_delay = sim::millis(spec.spf_ms);
  knobs.config.seed = shard.seed;
  return knobs;
}

RunOutputs outputs_of(const core::UdpRun& run) {
  RunOutputs o;
  o.ok = run.ok;
  o.gap_ns = run.connectivity_loss;
  o.packets_sent = run.packets_sent;
  o.packets_lost = run.packets_lost;
  o.events = run.observation.profile.events_executed;
  if (run.slo_enabled) {
    o.flows_launched = run.slo.flows;
    o.flows_completed = run.slo.completed;
  }
  // The runner records one delay point per probe arrival, in order.
  std::vector<sim::Time> at;
  at.reserve(run.delay_series.points().size());
  for (const auto& p : run.delay_series.points()) at.push_back(p.at);
  o.arrivals = arrivals_digest(at);
  return o;
}

std::uint64_t arrivals_digest(const std::vector<sim::Time>& at) {
  return fnv1a(at.data(), at.size() * sizeof(sim::Time));
}

std::string outputs_json(const RunOutputs& o) {
  std::ostringstream os;
  os << "\"ok\": " << (o.ok ? "true" : "false") << ", \"gap_ns\": " << o.gap_ns
     << ", \"packets_sent\": " << o.packets_sent
     << ", \"packets_lost\": " << o.packets_lost
     << ", \"events\": " << o.events
     << ", \"flows_launched\": " << o.flows_launched
     << ", \"flows_completed\": " << o.flows_completed
     << ", \"arrivals\": \"" << hex(o.arrivals) << "\"";
  return os.str();
}

std::string campaign_digest(const core::CampaignResult& result) {
  std::ostringstream artifact;
  result.write_json(artifact, /*include_profile=*/false);
  const std::string text = artifact.str();
  return hex(fnv1a(text.data(), text.size()));
}

}  // namespace perfbench
