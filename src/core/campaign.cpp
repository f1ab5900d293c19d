#include "core/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/cli.hpp"
#include "core/runner.hpp"
#include "net/network.hpp"
#include "routing/spf_throttle.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stats/percentile.hpp"

namespace f2t::core {

namespace {

/// Stream id used to decorrelate a survivability shard's link draw from
/// the simulation stream that runs it (both derive from the shard seed).
constexpr std::uint64_t kRandomSiteDrawStream = 0x5117eed;

/// Table IV's structural conditions C1..C7: what "all" names in a spec's
/// and a campaign command's conditions.
std::vector<failure::Condition> table_iv_conditions() {
  using failure::Condition;
  return {Condition::kC1, Condition::kC2, Condition::kC3, Condition::kC4,
          Condition::kC5, Condition::kC6, Condition::kC7};
}

/// Throws std::invalid_argument with the streamed `parts` as its message.
template <typename... Parts>
[[noreturn]] void reject(const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  throw std::invalid_argument(os.str());
}

failure::Condition parse_condition(const std::string& text) {
  for (int i = 0; i <= static_cast<int>(failure::Condition::kC8); ++i) {
    const auto c = static_cast<failure::Condition>(i);
    if (text == failure::condition_name(c)) return c;
  }
  reject("unknown condition \"", text, "\" (C1..C8)");
}

failure::FaultKind parse_fault(const std::string& text) {
  const auto kind = failure::parse_fault_kind(text);
  if (!kind) reject("unknown fault \"", text, "\" (cut|unidir|gray|flap)");
  return *kind;
}

/// Throws unless `value` is one of `names`.
void check_name(const char* what, const std::string& value,
                std::initializer_list<std::string_view> names) {
  if (std::find(names.begin(), names.end(), value) != names.end()) return;
  std::string list;
  for (const std::string_view name : names) {
    if (!list.empty()) list += '|';
    list += name;
  }
  reject("unknown ", what, " \"", value, "\" (", list, ")");
}

/// Throws unless `value >= min`.
void check_at_least(const char* what, std::int64_t value, std::int64_t min) {
  if (value < min) reject(what, " must be >= ", min, ", got ", value);
}

/// A spec's JSON integer for an `int` setting; throws, naming the
/// setting, when it does not fit.
int to_int(std::string_view what, std::int64_t value) {
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    reject(what, " must fit in an int, got ", value);
  }
  return static_cast<int>(value);
}

void check_known_keys(const json::Value& obj,
                      std::initializer_list<std::string_view> known,
                      const char* where) {
  for (const auto& [key, value] : obj.as_object()) {
    (void)value;
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw std::invalid_argument(std::string("campaign: unknown key \"") +
                                  key + "\" in " + where);
    }
  }
}

/// Deterministic double rendering for the campaign artifact (shortest
/// form up to 10 significant digits; -0 normalised).
std::string fmt(double v) {
  if (v == 0) return "0";
  std::ostringstream os;
  os << std::setprecision(10) << v;
  return os.str();
}

/// Exact double rendering for the worker-protocol JSONL records: 17
/// significant digits round-trip any finite double bit-for-bit, so a
/// value that crossed a worker stream re-renders through fmt()
/// identically to one that never left the process.
std::string fmt_exact(double v) {
  if (v == 0) return "0";
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

}  // namespace

std::string CampaignSpec::TopologyAxis::label() const {
  return name + "-" + std::to_string(ports);
}

CampaignSpec::TopologyAxis CampaignSpec::TopologyAxis::from_flags(Cli& cli) {
  TopologyAxis axis;
  axis.name = cli.get("topo", axis.name);
  axis.ports = cli.get_int("ports", axis.ports);
  axis.ring_width = cli.get_int("ring-width", axis.ring_width);
  axis.aspen_f = cli.get_int("aspen-f", axis.aspen_f);
  return axis;
}

CampaignSpec CampaignSpec::parse(std::string_view text) {
  return from_json(json::parse(text));
}

void CampaignSpec::validate() const {
  if (topologies.empty()) reject("no topologies");
  for (const std::string& control : controls) {
    check_name("control", control, {"ospf", "central", "bgp"});
  }
  if (link_sites < -1) {
    reject("link_sites must be >= 0 or \"all\", got ", link_sites);
  }
  check_at_least("seeds", seeds, 1);
  if (horizon <= fail_at) reject("horizon_ms must exceed fail_at_ms");
  check_at_least("detection_ms", detection_ms, 0);
  // The SPF throttle refuses an initial delay above its backoff cap.
  const std::int64_t max_spf_ms =
      routing::SpfThrottleConfig{}.max_wait / sim::millis(1);
  if (spf_ms < 0 || spf_ms > max_spf_ms) {
    reject("spf_ms must be in [0, ", max_spf_ms, "], got ", spf_ms);
  }
  check_name("detection", detection, {"oracle", "probe"});
  check_at_least("bfd_tx_ms", bfd_tx_ms, 1);
  check_at_least("bfd_multiplier", bfd_multiplier, 1);
  if (!(gray_loss >= 0 && gray_loss <= 1)) {
    reject("gray_loss must be in [0, 1], got ", gray_loss);
  }
  check_at_least("flap_period_ms", flap_period_ms, 1);
  check_at_least("flap_cycles", flap_cycles, 1);
  check_name("fidelity", fidelity, {"packet", "flow"});
  check_at_least("sample_interval_ms", sample_interval_ms, 0);
  check_at_least("random_sites", random_sites, 0);
  if (workload.enabled) {
    check_name("workload kind", workload.kind, {"poisson", "incast"});
    check_name("workload size_dist", workload.size_dist,
               {"websearch", "datamining"});
    if (!(workload.load > 0 && workload.load <= 1)) {
      reject("workload load must be in (0, 1], got ", workload.load);
    }
    check_at_least("workload fanin", workload.fanin, 1);
    check_at_least("workload flow_bytes", workload.flow_bytes, 1);
    check_at_least("workload deadline_ms", workload.deadline_ms, 0);
    if (fidelity == "flow") {
      reject("workload requires packet fidelity (the fluid probe has no host "
             "stacks to carry TCP flows)");
    }
  }
  if (conditions.empty() && link_sites == 0 && random_sites == 0) {
    reject("no failure sites (need conditions, link_sites and/or "
           "random_sites)");
  }
}

CampaignSpec CampaignSpec::from_json(const json::Value& doc) {
  check_known_keys(doc,
                   {"name", "topologies", "controls", "conditions",
                    "link_sites", "seeds", "base_seed", "detection_ms",
                    "spf_ms", "fail_at_ms", "horizon_ms", "detection",
                    "bfd_tx_ms", "bfd_multiplier", "dampening", "fault",
                    "gray_loss", "flap_period_ms", "flap_cycles", "fidelity",
                    "trace", "sample_interval_ms", "random_sites", "workload"},
                   "spec");
  CampaignSpec spec;
  const auto int_or = [&doc](std::string_view key, int fallback) {
    return to_int(key, doc.int_or(key, fallback));
  };
  spec.name = doc.string_or("name", spec.name);
  for (const json::Value& t : doc.at("topologies").as_array()) {
    check_known_keys(t, {"name", "ports", "ring_width", "aspen_f"},
                     "topologies[]");
    TopologyAxis axis;
    axis.name = t.at("name").as_string();
    axis.ports = to_int("topology ports", t.at("ports").as_int());
    axis.ring_width = to_int("topology ring_width",
                             t.int_or("ring_width", axis.ring_width));
    axis.aspen_f =
        to_int("topology aspen_f", t.int_or("aspen_f", axis.aspen_f));
    spec.topologies.push_back(std::move(axis));
  }
  if (const json::Value* controls = doc.find("controls")) {
    std::vector<std::string> names;
    for (const json::Value& c : controls->as_array()) {
      names.push_back(c.as_string());
    }
    if (!names.empty()) spec.controls = std::move(names);
  }
  if (const json::Value* conditions = doc.find("conditions")) {
    if (conditions->is_string() && conditions->as_string() == "all") {
      spec.conditions = table_iv_conditions();
    } else {
      for (const json::Value& c : conditions->as_array()) {
        spec.conditions.push_back(parse_condition(c.as_string()));
      }
    }
  }
  if (const json::Value* sites = doc.find("link_sites")) {
    spec.link_sites = sites->is_string() && sites->as_string() == "all"
                          ? -1
                          : to_int("link_sites", sites->as_int());
  }
  spec.seeds = int_or("seeds", spec.seeds);
  spec.base_seed = static_cast<std::uint64_t>(
      doc.int_or("base_seed", static_cast<std::int64_t>(spec.base_seed)));
  spec.detection_ms = int_or("detection_ms", spec.detection_ms);
  spec.spf_ms = int_or("spf_ms", spec.spf_ms);
  spec.fail_at =
      sim::millis(doc.int_or("fail_at_ms", spec.fail_at / sim::millis(1)));
  spec.horizon =
      sim::millis(doc.int_or("horizon_ms", spec.horizon / sim::millis(1)));
  spec.detection = doc.string_or("detection", spec.detection);
  spec.bfd_tx_ms = int_or("bfd_tx_ms", spec.bfd_tx_ms);
  spec.bfd_multiplier = int_or("bfd_multiplier", spec.bfd_multiplier);
  spec.dampening = doc.bool_or("dampening", spec.dampening);
  if (const json::Value* fault = doc.find("fault")) {
    spec.fault = parse_fault(fault->as_string());
  }
  spec.gray_loss = doc.number_or("gray_loss", spec.gray_loss);
  spec.flap_period_ms = int_or("flap_period_ms", spec.flap_period_ms);
  spec.flap_cycles = int_or("flap_cycles", spec.flap_cycles);
  spec.fidelity = doc.string_or("fidelity", spec.fidelity);
  spec.trace = doc.bool_or("trace", spec.trace);
  spec.sample_interval_ms =
      int_or("sample_interval_ms", spec.sample_interval_ms);
  spec.random_sites = int_or("random_sites", spec.random_sites);
  if (const json::Value* workload = doc.find("workload")) {
    check_known_keys(*workload,
                     {"kind", "size_dist", "load", "fanin", "flow_bytes",
                      "deadline_ms"},
                     "workload");
    WorkloadAxis& wl = spec.workload;
    wl.enabled = true;
    wl.kind = workload->string_or("kind", wl.kind);
    wl.size_dist = workload->string_or("size_dist", wl.size_dist);
    wl.load = workload->number_or("load", wl.load);
    wl.fanin = to_int("workload fanin", workload->int_or("fanin", wl.fanin));
    wl.flow_bytes = workload->int_or("flow_bytes", wl.flow_bytes);
    wl.deadline_ms = to_int("workload deadline_ms",
                            workload->int_or("deadline_ms", wl.deadline_ms));
  }
  spec.validate();
  return spec;
}

namespace {

/// The run-setting flags `f2tsim recover` and ad hoc `f2tsim campaign`
/// share, read over `spec`'s current values.
void read_shared_flags(Cli& cli, CampaignSpec& spec) {
  spec.topologies = {CampaignSpec::TopologyAxis::from_flags(cli)};
  spec.controls = {cli.get("control", spec.controls.front())};
  spec.detection_ms = cli.get_int("detection-ms", spec.detection_ms);
  spec.spf_ms = cli.get_int("spf-ms", spec.spf_ms);
  spec.detection = cli.get("detection", spec.detection);
  spec.bfd_tx_ms = cli.get_int("bfd-tx-ms", spec.bfd_tx_ms);
  spec.bfd_multiplier = cli.get_int("bfd-multiplier", spec.bfd_multiplier);
  if (cli.get_flag("no-dampening")) spec.dampening = false;
  spec.fault =
      parse_fault(cli.get("fault", failure::fault_kind_name(spec.fault)));
  spec.gray_loss = cli.get_double("gray-loss", spec.gray_loss);
  spec.flap_period_ms = cli.get_int("flap-period-ms", spec.flap_period_ms);
  spec.flap_cycles = cli.get_int("flap-cycles", spec.flap_cycles);
  spec.fidelity = cli.get("fidelity", spec.fidelity);
  // The workload's other flags are read (so marked known) even
  // without --workload, where they are inert.
  CampaignSpec::WorkloadAxis& wl = spec.workload;
  const std::string kind = cli.get("workload", "");
  wl.size_dist = cli.get("size-dist", wl.size_dist);
  wl.load = cli.get_double("wl-load", wl.load);
  wl.fanin = cli.get_int("wl-fanin", wl.fanin);
  wl.flow_bytes =
      cli.get_int("wl-flow-bytes", static_cast<int>(wl.flow_bytes));
  wl.deadline_ms = cli.get_int("wl-deadline-ms", wl.deadline_ms);
  if (!kind.empty()) {
    wl.enabled = true;
    wl.kind = kind;
  }
}

}  // namespace

CampaignSpec CampaignSpec::from_recover_flags(Cli& cli) {
  CampaignSpec spec;
  spec.conditions = {parse_condition(cli.get("condition", "C1"))};
  spec.base_seed = static_cast<std::uint64_t>(
      cli.get_int("seed", static_cast<int>(spec.base_seed)));
  read_shared_flags(cli, spec);
  spec.validate();
  return spec;
}

CampaignSpec CampaignSpec::from_campaign_flags(Cli& cli) {
  CampaignSpec spec;
  spec.name = cli.get("name", "cli");
  const std::string conditions = cli.get("conditions", "");
  if (conditions == "all") {
    spec.conditions = table_iv_conditions();
  } else if (!conditions.empty()) {
    std::istringstream in(conditions);
    std::string token;
    while (std::getline(in, token, ',')) {
      spec.conditions.push_back(parse_condition(token));
    }
  }
  spec.link_sites = cli.get("link-sites", "") == "all"
                        ? -1
                        : cli.get_int("link-sites", spec.link_sites);
  spec.random_sites = cli.get_int("random-sites", spec.random_sites);
  spec.seeds = cli.get_int("seeds", spec.seeds);
  spec.base_seed = static_cast<std::uint64_t>(
      cli.get_int("base-seed", static_cast<int>(spec.base_seed)));
  if (cli.get_flag("trace")) spec.trace = true;
  spec.sample_interval_ms =
      cli.get_int("sample-interval-ms", spec.sample_interval_ms);
  if (spec.conditions.empty() && spec.link_sites == 0 &&
      spec.random_sites == 0) {
    spec.conditions = table_iv_conditions();
  }
  read_shared_flags(cli, spec);
  spec.validate();
  return spec;
}

void CampaignSpec::write_json(std::ostream& os, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  os << "{\n" << pad << "  \"name\": \"" << json::escape(name) << "\",\n";
  os << pad << "  \"topologies\": [";
  for (std::size_t i = 0; i < topologies.size(); ++i) {
    const TopologyAxis& t = topologies[i];
    os << (i ? ", " : "") << "{\"name\": \"" << json::escape(t.name)
       << "\", \"ports\": " << t.ports << ", \"ring_width\": " << t.ring_width
       << ", \"aspen_f\": " << t.aspen_f << "}";
  }
  os << "],\n" << pad << "  \"controls\": [";
  for (std::size_t i = 0; i < controls.size(); ++i) {
    os << (i ? ", " : "") << "\"" << controls[i] << "\"";
  }
  os << "],\n" << pad << "  \"conditions\": [";
  for (std::size_t i = 0; i < conditions.size(); ++i) {
    os << (i ? ", " : "") << "\"" << failure::condition_name(conditions[i])
       << "\"";
  }
  os << "],\n"
     << pad << "  \"link_sites\": " << link_sites << ",\n"
     << pad << "  \"seeds\": " << seeds << ",\n"
     << pad << "  \"base_seed\": " << base_seed << ",\n"
     << pad << "  \"detection_ms\": " << detection_ms << ",\n"
     << pad << "  \"spf_ms\": " << spf_ms << ",\n"
     << pad << "  \"fail_at_ms\": " << sim::to_millis(fail_at) << ",\n"
     << pad << "  \"horizon_ms\": " << sim::to_millis(horizon);
  // Detection/fault axes appear only when they differ from the defaults,
  // so a spec that predates them echoes byte-identically.
  const CampaignSpec defaults;
  if (detection != defaults.detection) {
    os << ",\n" << pad << "  \"detection\": \"" << detection << "\"";
  }
  if (bfd_tx_ms != defaults.bfd_tx_ms) {
    os << ",\n" << pad << "  \"bfd_tx_ms\": " << bfd_tx_ms;
  }
  if (bfd_multiplier != defaults.bfd_multiplier) {
    os << ",\n" << pad << "  \"bfd_multiplier\": " << bfd_multiplier;
  }
  if (dampening != defaults.dampening) {
    os << ",\n" << pad << "  \"dampening\": " << (dampening ? "true" : "false");
  }
  if (fault != defaults.fault) {
    os << ",\n"
       << pad << "  \"fault\": \"" << failure::fault_kind_name(fault) << "\"";
  }
  if (gray_loss != defaults.gray_loss) {
    os << ",\n" << pad << "  \"gray_loss\": " << fmt(gray_loss);
  }
  if (flap_period_ms != defaults.flap_period_ms) {
    os << ",\n" << pad << "  \"flap_period_ms\": " << flap_period_ms;
  }
  if (flap_cycles != defaults.flap_cycles) {
    os << ",\n" << pad << "  \"flap_cycles\": " << flap_cycles;
  }
  if (fidelity != defaults.fidelity) {
    os << ",\n" << pad << "  \"fidelity\": \"" << fidelity << "\"";
  }
  if (trace != defaults.trace) {
    os << ",\n" << pad << "  \"trace\": " << (trace ? "true" : "false");
  }
  if (sample_interval_ms != defaults.sample_interval_ms) {
    os << ",\n"
       << pad << "  \"sample_interval_ms\": " << sample_interval_ms;
  }
  if (random_sites != defaults.random_sites) {
    os << ",\n" << pad << "  \"random_sites\": " << random_sites;
  }
  if (workload.enabled) {
    os << ",\n"
       << pad << "  \"workload\": {\"kind\": \"" << workload.kind
       << "\", \"size_dist\": \"" << workload.size_dist
       << "\", \"load\": " << fmt(workload.load)
       << ", \"fanin\": " << workload.fanin
       << ", \"flow_bytes\": " << workload.flow_bytes
       << ", \"deadline_ms\": " << workload.deadline_ms << "}";
  }
  os << "\n" << pad << "}";
}

std::string ShardSpec::site() const {
  if (random_site >= 0) return "R" + std::to_string(random_site);
  return is_link_site ? "L" + std::to_string(link_site)
                      : failure::condition_name(condition);
}

std::vector<ShardSpec> enumerate_shards(const CampaignSpec& spec) {
  std::vector<ShardSpec> shards;
  for (const auto& topology : spec.topologies) {
    // Resolve the topology's failure-site universe off the simulation
    // clock; construction order is deterministic for a given axis.
    int sites = spec.link_sites;
    int all_links = 0;
    if (sites != 0 || spec.random_sites > 0) {
      sim::Simulator sim(1);
      net::Network net(sim);
      const auto built = topology_builder(topology.name, topology.ports,
                                          topology.ring_width,
                                          topology.aspen_f)(net);
      all_links = static_cast<int>(failure::switch_links(built).size());
      sites = sites < 0 ? all_links : std::min(sites, all_links);
    }
    for (const auto& control : spec.controls) {
      const auto add = [&](bool is_link, failure::Condition condition,
                           int link_site, int random_site) {
        for (int replicate = 0; replicate < spec.seeds; ++replicate) {
          ShardSpec shard;
          shard.index = static_cast<int>(shards.size());
          shard.topology = topology;
          shard.control = control;
          shard.is_link_site = is_link;
          shard.condition = condition;
          shard.link_site = link_site;
          shard.replicate = replicate;
          shard.random_site = random_site;
          shard.seed = sim::Random::derive_stream_seed(
              spec.base_seed, static_cast<std::uint64_t>(shard.index));
          if (random_site >= 0 && all_links > 0) {
            // Survivability draw: the failed link is a pure function of
            // the shard's derived seed (decorrelated from the run
            // stream), so workers re-enumerating the spec see the same
            // failure process whatever process runs the shard.
            sim::Random draw(sim::Random::derive_stream_seed(
                shard.seed, kRandomSiteDrawStream));
            shard.link_site = static_cast<int>(
                draw.index(static_cast<std::size_t>(all_links)));
          }
          shards.push_back(std::move(shard));
        }
      };
      for (const failure::Condition condition : spec.conditions) {
        add(false, condition, -1, -1);
      }
      for (int site = 0; site < sites; ++site) {
        add(true, failure::Condition::kC1, site, -1);
      }
      for (int draw = 0; draw < spec.random_sites; ++draw) {
        add(true, failure::Condition::kC1, -1, draw);
      }
    }
  }
  return shards;
}

std::vector<ClassAggregate> aggregate_runs(
    const std::vector<ShardResult>& runs) {
  // Group deterministically by key; "total" spans every run.
  std::vector<std::string> keys{"total"};
  for (const ShardResult& r : runs) {
    const std::string key = r.topology + "/" + r.control + "/" +
                            (r.site_class.empty() ? r.site : r.site_class);
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      keys.push_back(key);
    }
  }
  std::sort(keys.begin() + 1, keys.end());

  std::vector<ClassAggregate> out;
  out.reserve(keys.size());
  for (const std::string& key : keys) {
    ClassAggregate agg;
    agg.key = key;
    std::vector<double> losses_ms;
    for (const ShardResult& r : runs) {
      const std::string rkey = r.topology + "/" + r.control + "/" +
                               (r.site_class.empty() ? r.site : r.site_class);
      if (key != "total" && rkey != key) continue;
      ++agg.runs;
      if (!r.ok) {
        ++agg.failed;
        continue;
      }
      if (!r.on_path) continue;
      ++agg.affected;
      losses_ms.push_back(sim::to_millis(r.connectivity_loss));
      agg.packets_lost_total += r.packets_lost;
      const std::uint64_t lost = r.packets_lost;
      const int bucket = lost == 0 ? 0
                         : lost < 10 ? 1
                         : lost < 100 ? 2
                         : lost < 1000 ? 3
                                       : 4;
      ++agg.gap_loss_hist[bucket];
    }
    if (!losses_ms.empty()) {
      std::sort(losses_ms.begin(), losses_ms.end());
      double sum = 0;
      for (const double v : losses_ms) sum += v;
      agg.loss_ms_mean = sum / static_cast<double>(losses_ms.size());
      agg.loss_ms_p50 = stats::nearest_rank_sorted(losses_ms, 0.50);
      agg.loss_ms_p99 = stats::nearest_rank_sorted(losses_ms, 0.99);
      agg.loss_ms_max = losses_ms.back();
    }
    out.push_back(std::move(agg));
  }
  return out;
}

std::vector<SurvivabilityAggregate> aggregate_survivability(
    const std::vector<ShardResult>& runs, sim::Time window) {
  std::vector<std::string> keys;
  for (const ShardResult& r : runs) {
    if (r.site.empty() || r.site[0] != 'R') continue;
    const std::string key = r.topology + "/" + r.control;
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      keys.push_back(key);
    }
  }
  std::sort(keys.begin(), keys.end());

  std::vector<SurvivabilityAggregate> out;
  out.reserve(keys.size());
  for (const std::string& key : keys) {
    SurvivabilityAggregate agg;
    agg.key = key;
    std::vector<double> availability;
    int recovered[4] = {0, 0, 0, 0};
    int measured = 0;
    for (const ShardResult& r : runs) {
      if (r.site.empty() || r.site[0] != 'R') continue;
      if (r.topology + "/" + r.control != key) continue;
      ++agg.draws;
      if (!r.ok) {
        ++agg.failed;
        continue;
      }
      // A draw the probe flow never crossed is fully available: a random
      // failure that misses your path costs nothing, and that is part of
      // the survivability distribution, not noise to exclude.
      if (r.on_path) ++agg.affected;
      const double loss_ms = sim::to_millis(r.connectivity_loss);
      const double window_ms = sim::to_millis(window);
      availability.push_back(
          window_ms > 0
              ? std::max(0.0, 1.0 - loss_ms / window_ms)
              : 1.0);
      ++measured;
      for (int t = 0; t < 4; ++t) {
        if (loss_ms <= SurvivabilityAggregate::kReliabilityMs[t]) {
          ++recovered[t];
        }
      }
    }
    if (!availability.empty()) {
      std::sort(availability.begin(), availability.end());
      double sum = 0;
      for (const double v : availability) sum += v;
      agg.availability_mean = sum / static_cast<double>(availability.size());
      agg.availability_p50 = stats::nearest_rank_sorted(availability, 0.50);
      agg.availability_min = availability.front();
    }
    for (int t = 0; t < 4; ++t) {
      agg.reliability[t] =
          measured > 0
              ? static_cast<double>(recovered[t]) / measured
              : 0;
    }
    out.push_back(std::move(agg));
  }
  return out;
}

CampaignSpec survivability_spec(
    const std::vector<CampaignSpec::TopologyAxis>& topologies, int draws,
    std::uint64_t base_seed) {
  CampaignSpec spec;
  spec.name = "survivability";
  spec.topologies = topologies;
  spec.random_sites = draws;
  spec.base_seed = base_seed;
  spec.validate();
  return spec;
}

// ---------------------------------------------------------------------
// Worker protocol: shard ranges, JSONL shard records, checkpoint
// manifest.

std::string format_shard_ranges(
    const std::vector<std::pair<int, int>>& ranges) {
  std::ostringstream os;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    os << (i ? "," : "") << ranges[i].first << ":" << ranges[i].second;
  }
  return os.str();
}

std::vector<std::pair<int, int>> parse_shard_ranges(std::string_view text) {
  std::vector<std::pair<int, int>> ranges;
  std::string token;
  std::istringstream in{std::string(text)};
  while (std::getline(in, token, ',')) {
    const auto colon = token.find(':');
    if (colon == std::string::npos) {
      throw std::invalid_argument("shard ranges: expected a:b, got '" +
                                  token + "'");
    }
    int a = 0;
    int b = 0;
    try {
      std::size_t used_a = 0;
      std::size_t used_b = 0;
      a = std::stoi(token.substr(0, colon), &used_a);
      b = std::stoi(token.substr(colon + 1), &used_b);
      if (used_a != colon || used_b != token.size() - colon - 1) {
        throw std::invalid_argument("trailing junk");
      }
    } catch (const std::exception&) {
      throw std::invalid_argument("shard ranges: malformed range '" + token +
                                  "'");
    }
    if (a < 0 || b <= a) {
      throw std::invalid_argument("shard ranges: empty or negative range '" +
                                  token + "'");
    }
    ranges.emplace_back(a, b);
  }
  if (ranges.empty()) {
    throw std::invalid_argument("shard ranges: empty specification");
  }
  return ranges;
}

std::vector<std::pair<int, int>> contiguous_ranges(
    const std::vector<int>& sorted_indices) {
  std::vector<std::pair<int, int>> ranges;
  for (const int i : sorted_indices) {
    if (!ranges.empty() && ranges.back().second == i) {
      ++ranges.back().second;
    } else {
      ranges.emplace_back(i, i + 1);
    }
  }
  return ranges;
}

void write_shard_record(std::ostream& os, const ShardResult& r) {
  os << "{\"v\": 1, \"i\": " << r.index << ", \"topo\": \""
     << json::escape(r.topology) << "\", \"control\": \""
     << json::escape(r.control) << "\", \"site\": \"" << json::escape(r.site)
     << "\", \"class\": \"" << json::escape(r.site_class)
     << "\", \"rep\": " << r.replicate << ", \"seed\": \"" << r.seed
     << "\", \"ok\": " << (r.ok ? "true" : "false")
     << ", \"on_path\": " << (r.on_path ? "true" : "false")
     << ", \"loss_ns\": " << r.connectivity_loss
     << ", \"sent\": " << r.packets_sent << ", \"lost\": " << r.packets_lost
     << ", \"events\": " << r.events_executed
     << ", \"wall\": " << fmt_exact(r.wall_seconds) << ", \"scenario\": \""
     << json::escape(r.scenario) << "\", \"spans\": " << r.spans
     << ", \"detect_ns\": " << r.detect_ns
     << ", \"converge_ns\": " << r.converge_ns
     << ", \"samples\": " << r.samples;
  if (r.queue_rollup) {
    os << ", \"queue_p99\": " << fmt_exact(r.queue_p99)
       << ", \"queue_max\": " << fmt_exact(r.queue_max);
  }
  if (r.slo) {
    os << ", \"slo_flows\": " << r.slo_flows
       << ", \"slo_completed\": " << r.slo_completed
       << ", \"fct_p50_ms\": " << fmt_exact(r.fct_p50_ms)
       << ", \"fct_p99_ms\": " << fmt_exact(r.fct_p99_ms)
       << ", \"fct_p999_ms\": " << fmt_exact(r.fct_p999_ms)
       << ", \"dl_in\": " << r.slo_deadline_in
       << ", \"dl_out\": " << r.slo_deadline_out
       << ", \"miss_in\": " << fmt_exact(r.slo_miss_in)
       << ", \"miss_out\": " << fmt_exact(r.slo_miss_out);
  }
  if (!r.error.empty()) {
    os << ", \"error\": \"" << json::escape(r.error) << "\"";
  }
  os << "}\n";
}

ShardResult parse_shard_record(std::string_view line) {
  const json::Value doc = json::parse(line);
  if (doc.int_or("v", 0) != 1) {
    throw std::invalid_argument("shard record: unknown protocol version");
  }
  ShardResult r;
  r.index = static_cast<int>(doc.at("i").as_int());
  r.topology = doc.at("topo").as_string();
  r.control = doc.at("control").as_string();
  r.site = doc.at("site").as_string();
  r.site_class = doc.at("class").as_string();
  r.replicate = static_cast<int>(doc.at("rep").as_int());
  const std::string& seed_text = doc.at("seed").as_string();
  std::size_t used = 0;
  r.seed = std::stoull(seed_text, &used);
  if (used != seed_text.size()) {
    throw std::invalid_argument("shard record: malformed seed");
  }
  r.ok = doc.at("ok").as_bool();
  r.on_path = doc.at("on_path").as_bool();
  r.connectivity_loss = doc.at("loss_ns").as_int();
  r.packets_sent = static_cast<std::uint64_t>(doc.at("sent").as_int());
  r.packets_lost = static_cast<std::uint64_t>(doc.at("lost").as_int());
  r.events_executed = static_cast<std::size_t>(doc.at("events").as_int());
  r.wall_seconds = doc.at("wall").as_double();
  r.scenario = doc.at("scenario").as_string();
  r.spans = static_cast<std::size_t>(doc.at("spans").as_int());
  r.detect_ns = doc.at("detect_ns").as_int();
  r.converge_ns = doc.at("converge_ns").as_int();
  r.samples = static_cast<std::size_t>(doc.at("samples").as_int());
  if (const json::Value* p99 = doc.find("queue_p99")) {
    r.queue_rollup = true;
    r.queue_p99 = p99->as_double();
    r.queue_max = doc.at("queue_max").as_double();
  }
  if (const json::Value* slo_flows = doc.find("slo_flows")) {
    r.slo = true;
    r.slo_flows = static_cast<std::size_t>(slo_flows->as_int());
    r.slo_completed =
        static_cast<std::size_t>(doc.at("slo_completed").as_int());
    r.fct_p50_ms = doc.at("fct_p50_ms").as_double();
    r.fct_p99_ms = doc.at("fct_p99_ms").as_double();
    r.fct_p999_ms = doc.at("fct_p999_ms").as_double();
    r.slo_deadline_in = static_cast<std::size_t>(doc.at("dl_in").as_int());
    r.slo_deadline_out = static_cast<std::size_t>(doc.at("dl_out").as_int());
    r.slo_miss_in = doc.at("miss_in").as_double();
    r.slo_miss_out = doc.at("miss_out").as_double();
  }
  if (const json::Value* error = doc.find("error")) {
    r.error = error->as_string();
  }
  return r;
}

void CheckpointManifest::write_json(std::ostream& os) const {
  os << "{\n  \"schema_version\": " << kSchemaVersion
     << ",\n  \"kind\": \"f2t-campaign-checkpoint\",\n  \"shards\": "
     << shards << ",\n  \"workers\": " << workers << ",\n  \"spec\": ";
  spec.write_json(os, 2);
  os << "\n}\n";
}

CheckpointManifest CheckpointManifest::parse(std::string_view text) {
  const json::Value doc = json::parse(text);
  if (doc.int_or("schema_version", 0) != kSchemaVersion ||
      doc.string_or("kind", "") != "f2t-campaign-checkpoint") {
    throw std::invalid_argument(
        "checkpoint manifest: bad schema_version/kind");
  }
  CheckpointManifest m;
  m.shards = static_cast<int>(doc.at("shards").as_int());
  m.workers = static_cast<int>(doc.at("workers").as_int());
  m.spec = CampaignSpec::from_json(doc.at("spec"));
  if (m.shards < 1 || m.workers < 1) {
    throw std::invalid_argument("checkpoint manifest: shards/workers < 1");
  }
  return m;
}

void CampaignResult::write_json(std::ostream& os,
                                bool include_profile) const {
  os << "{\n  \"schema_version\": " << kSchemaVersion
     << ",\n  \"kind\": \"f2t-campaign\",\n  \"spec\": ";
  spec.write_json(os, 2);
  os << ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ShardResult& r = runs[i];
    os << "    {\"i\": " << r.index << ", \"topo\": \""
       << json::escape(r.topology) << "\", \"control\": \"" << r.control
       << "\", \"site\": \"" << json::escape(r.site) << "\", \"class\": \""
       << json::escape(r.site_class) << "\", \"rep\": " << r.replicate
       << ", \"seed\": \"" << r.seed << "\", \"ok\": "
       << (r.ok ? "true" : "false")
       << ", \"on_path\": " << (r.on_path ? "true" : "false")
       << ", \"loss_ns\": " << r.connectivity_loss
       << ", \"sent\": " << r.packets_sent << ", \"lost\": " << r.packets_lost
       << ", \"events\": " << r.events_executed;
    // Observability fields ride along only when the spec asked for the
    // corresponding axis — the emission condition is the *spec*, not the
    // per-run values, so the record shape is uniform and deterministic.
    if (spec.trace) {
      os << ", \"spans\": " << r.spans << ", \"detect_ns\": " << r.detect_ns
         << ", \"converge_ns\": " << r.converge_ns;
    }
    if (spec.sample_interval_ms > 0) {
      os << ", \"samples\": " << r.samples;
      // The queue rollup is emitted only when the sampler actually
      // retained rows with a queue-depth series; a missing rollup is an
      // omitted key, not a fabricated 0.
      if (r.queue_rollup) {
        os << ", \"queue_p99\": " << fmt(r.queue_p99)
           << ", \"queue_max\": " << fmt(r.queue_max);
      }
    }
    if (spec.workload.enabled && r.slo) {
      os << ", \"slo_flows\": " << r.slo_flows
         << ", \"slo_completed\": " << r.slo_completed
         << ", \"fct_p50_ms\": " << fmt(r.fct_p50_ms)
         << ", \"fct_p99_ms\": " << fmt(r.fct_p99_ms)
         << ", \"fct_p999_ms\": " << fmt(r.fct_p999_ms)
         << ", \"dl_in\": " << r.slo_deadline_in
         << ", \"dl_out\": " << r.slo_deadline_out
         << ", \"miss_in\": " << fmt(r.slo_miss_in)
         << ", \"miss_out\": " << fmt(r.slo_miss_out);
    }
    if (!r.error.empty()) {
      os << ", \"error\": \"" << json::escape(r.error) << "\"";
    }
    os << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"aggregates\": [\n";
  const auto aggregates = aggregate_runs(runs);
  for (std::size_t i = 0; i < aggregates.size(); ++i) {
    const ClassAggregate& a = aggregates[i];
    os << "    {\"class\": \"" << json::escape(a.key)
       << "\", \"runs\": " << a.runs << ", \"affected\": " << a.affected
       << ", \"failed\": " << a.failed << ", \"loss_ms_mean\": "
       << fmt(a.loss_ms_mean) << ", \"loss_ms_p50\": " << fmt(a.loss_ms_p50)
       << ", \"loss_ms_p99\": " << fmt(a.loss_ms_p99)
       << ", \"loss_ms_max\": " << fmt(a.loss_ms_max)
       << ", \"packets_lost\": " << a.packets_lost_total
       << ", \"gap_loss_hist\": [";
    for (int b = 0; b < 5; ++b) {
      os << (b ? ", " : "") << a.gap_loss_hist[b];
    }
    os << "]}" << (i + 1 < aggregates.size() ? "," : "") << "\n";
  }
  os << "  ]";
  if (spec.random_sites > 0) {
    const auto surv =
        aggregate_survivability(runs, spec.horizon - spec.fail_at);
    os << ",\n  \"survivability\": {\"reliability_ms\": [";
    for (int t = 0; t < 4; ++t) {
      os << (t ? ", " : "") << SurvivabilityAggregate::kReliabilityMs[t];
    }
    os << "], \"groups\": [\n";
    for (std::size_t i = 0; i < surv.size(); ++i) {
      const SurvivabilityAggregate& a = surv[i];
      os << "    {\"class\": \"" << json::escape(a.key)
         << "\", \"draws\": " << a.draws << ", \"affected\": " << a.affected
         << ", \"failed\": " << a.failed << ", \"availability_mean\": "
         << fmt(a.availability_mean) << ", \"availability_p50\": "
         << fmt(a.availability_p50) << ", \"availability_min\": "
         << fmt(a.availability_min) << ", \"reliability\": [";
      for (int t = 0; t < 4; ++t) {
        os << (t ? ", " : "") << fmt(a.reliability[t]);
      }
      os << "]}" << (i + 1 < surv.size() ? "," : "") << "\n";
    }
    os << "  ]}";
  }
  if (spec.workload.enabled) {
    // Campaign-level SLO rollup over the shards that carried the
    // workload: flow totals, the mean/max of the per-run FCT tail
    // percentiles, and the *pooled* deadline-miss fractions (weighted by
    // each run's deadline-bearing flow count — a run with 10x the flows
    // moves the pooled fraction 10x as much).
    int slo_runs = 0;
    std::size_t flows = 0;
    std::size_t completed = 0;
    std::size_t dl_in = 0;
    std::size_t dl_out = 0;
    double missed_in = 0;
    double missed_out = 0;
    double p50_sum = 0;
    double p99_sum = 0;
    double p999_sum = 0;
    double p99_max = 0;
    double p999_max = 0;
    for (const ShardResult& r : runs) {
      if (!r.slo) continue;
      ++slo_runs;
      flows += r.slo_flows;
      completed += r.slo_completed;
      dl_in += r.slo_deadline_in;
      dl_out += r.slo_deadline_out;
      missed_in += r.slo_miss_in * static_cast<double>(r.slo_deadline_in);
      missed_out += r.slo_miss_out * static_cast<double>(r.slo_deadline_out);
      p50_sum += r.fct_p50_ms;
      p99_sum += r.fct_p99_ms;
      p999_sum += r.fct_p999_ms;
      p99_max = std::max(p99_max, r.fct_p99_ms);
      p999_max = std::max(p999_max, r.fct_p999_ms);
    }
    const double n = slo_runs > 0 ? static_cast<double>(slo_runs) : 1;
    os << ",\n  \"slo\": {\"runs\": " << slo_runs << ", \"flows\": " << flows
       << ", \"completed\": " << completed
       << ", \"fct_p50_ms_mean\": " << fmt(p50_sum / n)
       << ", \"fct_p99_ms_mean\": " << fmt(p99_sum / n)
       << ", \"fct_p999_ms_mean\": " << fmt(p999_sum / n)
       << ", \"fct_p99_ms_max\": " << fmt(p99_max)
       << ", \"fct_p999_ms_max\": " << fmt(p999_max)
       << ", \"deadline_flows_in\": " << dl_in
       << ", \"deadline_flows_out\": " << dl_out << ", \"miss_in\": "
       << fmt(dl_in > 0 ? missed_in / static_cast<double>(dl_in) : 0)
       << ", \"miss_out\": "
       << fmt(dl_out > 0 ? missed_out / static_cast<double>(dl_out) : 0)
       << "}";
  }
  if (include_profile) {
    double shard_wall = 0;
    std::size_t events = 0;
    for (const ShardResult& r : runs) {
      shard_wall += r.wall_seconds;
      events += r.events_executed;
    }
    os << ",\n  \"profile\": {\"jobs\": " << jobs;
    if (workers > 0) os << ", \"workers\": " << workers;
    os << ", \"wall_seconds\": "
       << fmt(wall_seconds) << ", \"shard_wall_seconds\": " << fmt(shard_wall)
       << ", \"events_executed\": " << events
       << ", \"runs_per_second\": "
       << fmt(wall_seconds > 0 ? static_cast<double>(runs.size()) /
                                     wall_seconds
                               : 0)
       << ", \"hardware_threads\": " << hardware_threads
       << ", \"steals\": " << steals << "}";
  }
  os << "\n}\n";
}

}  // namespace f2t::core
