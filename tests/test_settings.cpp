// One settings path: a JSON campaign spec, `f2tsim recover` flags and ad
// hoc `f2tsim campaign` flags all become a core::CampaignSpec through one
// validator, and exec::run_knobs maps it onto a run.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/cli.hpp"
#include "exec/campaign.hpp"

namespace f2t::core {
namespace {

/// `f2tsim <command> <flags>` as the Cli sees it; `flags` is split on
/// spaces.
Cli cli_of(const char* command, const std::string& flags) {
  std::vector<std::string> words;
  std::istringstream in(flags);
  for (std::string word; in >> word;) words.push_back(word);
  std::vector<const char*> argv{"f2tsim", command};
  for (const std::string& word : words) argv.push_back(word.c_str());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

/// The what() of an std::invalid_argument `read` throws; empty if none.
template <typename Read>
std::string error_of(Read read) {
  try {
    read();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

std::string echo(const CampaignSpec& spec) {
  std::ostringstream os;
  spec.write_json(os);
  return os.str();
}

/// One invalid value on every surface. `json` holds spec members (unless
/// given, the topology f2-4 and conditions ["C1"] are added); `recover`
/// and `campaign` hold the same value as flags, on top of --topo f2
/// --ports 4 (and --conditions C1 unless given). `recover` is null for a
/// campaign-only setting, and both are null for a value only a spec can
/// hold (a flag outside `int` already fails as not an integer).
struct InvalidValue {
  const char* json;
  const char* recover;
  const char* campaign;
};

const InvalidValue kInvalidValues[] = {
    {R"("bfd_tx_ms": 0)", "--bfd-tx-ms 0", "--bfd-tx-ms 0"},
    {R"("bfd_multiplier": 0)", "--bfd-multiplier 0", "--bfd-multiplier 0"},
    {R"("gray_loss": 2)", "--gray-loss 2", "--gray-loss 2"},
    {R"("flap_period_ms": 0)", "--flap-period-ms 0", "--flap-period-ms 0"},
    {R"("flap_cycles": 0)", "--flap-cycles 0", "--flap-cycles 0"},
    {R"("detection_ms": -5)", "--detection-ms -5", "--detection-ms -5"},
    {R"("spf_ms": -5)", "--spf-ms -5", "--spf-ms -5"},
    {R"("spf_ms": 10001)", "--spf-ms 10001", "--spf-ms 10001"},
    {R"("detection": "psychic")", "--detection psychic",
     "--detection psychic"},
    {R"("fault": "meteor")", "--fault meteor", "--fault meteor"},
    {R"("fidelity": "warp")", "--fidelity warp", "--fidelity warp"},
    {R"("controls": ["rip"])", "--control rip", "--control rip"},
    {R"("conditions": ["C9"])", "--condition C9", "--conditions C9"},
    {R"("workload": {"load": 0})", "--workload poisson --wl-load 0",
     "--workload poisson --wl-load 0"},
    {R"("workload": {"fanin": 0})", "--workload poisson --wl-fanin 0",
     "--workload poisson --wl-fanin 0"},
    {R"("workload": {"flow_bytes": 0})",
     "--workload poisson --wl-flow-bytes 0",
     "--workload poisson --wl-flow-bytes 0"},
    {R"("workload": {"deadline_ms": -1})",
     "--workload poisson --wl-deadline-ms -1",
     "--workload poisson --wl-deadline-ms -1"},
    {R"("workload": {"size_dist": "uniform"})",
     "--workload poisson --size-dist uniform",
     "--workload poisson --size-dist uniform"},
    {R"("workload": {"kind": "storm"})", "--workload storm",
     "--workload storm"},
    {R"("fidelity": "flow", "workload": {})",
     "--fidelity flow --workload poisson",
     "--fidelity flow --workload poisson"},
    {R"("seeds": 0)", nullptr, "--seeds 0"},
    {R"("link_sites": -3)", nullptr, "--link-sites -3"},
    {R"("random_sites": -1)", nullptr, "--random-sites -1"},
    {R"("sample_interval_ms": -1)", nullptr, "--sample-interval-ms -1"},
    // Narrowed to int these would read as a valid 1 and 4.
    {R"("seeds": 4294967297)", nullptr, nullptr},
    {R"("topologies": [{"name": "f2", "ports": 4294967300}])", nullptr,
     nullptr},
    // Times are spec-only: in nanoseconds these would overflow sim::Time,
    // or fail the run inside the scheduler.
    {R"("horizon_ms": 9300000000000)", nullptr, nullptr},
    {R"("fail_at_ms": -5)", nullptr, nullptr},
};

TEST(SettingsPath, InvalidValuesFailAlikeOnEverySurface) {
  for (const InvalidValue& v : kInvalidValues) {
    SCOPED_TRACE(v.json);
    const std::string json = v.json;
    const bool own_topologies = json.find("\"topologies\"") == 0;
    const bool own_conditions = json.find("\"conditions\"") == 0;
    const std::string spec =
        std::string("{") +
        (own_topologies ? ""
                        : R"("topologies": [{"name": "f2", "ports": 4}], )") +
        (own_conditions ? "" : R"("conditions": ["C1"], )") + json + "}";
    const std::string expected =
        error_of([&] { CampaignSpec::parse(spec); });
    ASSERT_FALSE(expected.empty()) << "the JSON spec must reject it";
    if (v.campaign == nullptr) continue;

    if (v.recover != nullptr) {
      Cli cli = cli_of("recover",
                       std::string("--topo f2 --ports 4 ") + v.recover);
      EXPECT_EQ(error_of([&] { CampaignSpec::from_recover_flags(cli); }),
                expected);
    }
    const std::string campaign = v.campaign;
    Cli cli = cli_of(
        "campaign",
        "--topo f2 --ports 4 " +
            std::string(campaign.find("--conditions") == 0
                            ? ""
                            : "--conditions C1 ") +
            campaign);
    EXPECT_EQ(error_of([&] { CampaignSpec::from_campaign_flags(cli); }),
              expected);
  }
}

TEST(SettingsPath, SpecTimesOutOfRangeNameTheirKey) {
  const auto parse_error = [](const std::string& member) {
    return error_of([&] {
      CampaignSpec::parse(R"({"topologies": [{"name": "f2", "ports": 4}], )"
                          R"("conditions": ["C1"], )" +
                          member + "}");
    });
  };
  EXPECT_EQ(parse_error(R"("horizon_ms": 9300000000000)"),
            "horizon_ms must be in [0, 9223372036854], got 9300000000000");
  EXPECT_EQ(parse_error(R"("fail_at_ms": -5)"),
            "fail_at_ms must be in [0, 9223372036854], got -5");
  EXPECT_EQ(parse_error(R"("fail_at_ms": 9223372036854, )"
                        R"("horizon_ms": 9223372036854)"),
            "horizon_ms must exceed fail_at_ms");
  // A spec built in code meets the same sign rule in validate().
  CampaignSpec spec =
      CampaignSpec::parse(R"({"topologies": [{"name": "f2", "ports": 4}],
                              "conditions": ["C1"]})");
  spec.fail_at = -sim::millis(5);
  EXPECT_EQ(error_of([&] { spec.validate(); }),
            "fail_at_ms must be >= 0, got -5");
}

TEST(SettingsPath, RecoverLeavesCampaignFlagsUnknown) {
  Cli cli = cli_of("recover", "--seeds 3 --link-sites 2 --condition C2");
  const CampaignSpec spec = CampaignSpec::from_recover_flags(cli);
  EXPECT_EQ(spec.conditions,
            std::vector<failure::Condition>{failure::Condition::kC2});
  auto unknown = cli.unknown_keys();
  std::sort(unknown.begin(), unknown.end());
  EXPECT_EQ(unknown, (std::vector<std::string>{"link-sites", "seeds"}));
}

TEST(SettingsPath, C8ParsesOnBothCommands) {
  Cli recover = cli_of("recover", "--condition C8");
  EXPECT_EQ(CampaignSpec::from_recover_flags(recover).conditions,
            std::vector<failure::Condition>{failure::Condition::kC8});
  Cli campaign = cli_of("campaign", "--conditions C1,C8");
  EXPECT_EQ(CampaignSpec::from_campaign_flags(campaign).conditions,
            (std::vector<failure::Condition>{failure::Condition::kC1,
                                             failure::Condition::kC8}));
}

TEST(SettingsPath, DefaultsAreTheMemberInitialisers) {
  // Bare flags and a minimal JSON spec both fall back to the same
  // defaults: the only difference is the ad hoc campaign's name.
  Cli recover = cli_of("recover", "");
  EXPECT_EQ(echo(CampaignSpec::from_recover_flags(recover)),
            echo(CampaignSpec::parse(
                R"({"topologies": [{"name": "f2", "ports": 8}],
                    "conditions": ["C1"]})")));
  Cli campaign = cli_of("campaign", "");
  EXPECT_EQ(echo(CampaignSpec::from_campaign_flags(campaign)),
            echo(CampaignSpec::parse(
                R"({"name": "cli",
                    "topologies": [{"name": "f2", "ports": 8}],
                    "conditions": "all"})")));
}

TEST(SettingsPath, AdHocCampaignsEchoLikeTheirJsonSpecs) {
  // Every ad hoc campaign scripts/run_all.sh and the sanitize_smoke
  // target run (spec flags only; --jobs, --workers and --out are
  // runtime flags), next to the JSON spec that says the same.
  struct Case {
    const char* flags;
    const char* json;
  };
  const Case cases[] = {
      {"--topo f2 --ports 4 --conditions C1,C2 --link-sites 2 --seeds 2",
       R"({"name": "cli", "topologies": [{"name": "f2", "ports": 4}],
           "conditions": ["C1", "C2"], "link_sites": 2, "seeds": 2})"},
      {"--topo f2 --ports 4 --conditions C1 --link-sites 2 --seeds 2 "
       "--detection probe --fault gray",
       R"({"name": "cli", "topologies": [{"name": "f2", "ports": 4}],
           "conditions": ["C1"], "link_sites": 2, "seeds": 2,
           "detection": "probe", "fault": "gray"})"},
      {"--topo f2 --ports 4 --conditions C1 --seeds 2 --workload incast "
       "--wl-fanin 4 --wl-flow-bytes 2000 --wl-deadline-ms 100",
       R"({"name": "cli", "topologies": [{"name": "f2", "ports": 4}],
           "conditions": ["C1"], "seeds": 2,
           "workload": {"kind": "incast", "fanin": 4, "flow_bytes": 2000,
                        "deadline_ms": 100}})"},
      {"--topo f2 --ports 4 --conditions C1,C2 --link-sites 2 --seeds 2 "
       "--fidelity flow",
       R"({"name": "cli", "topologies": [{"name": "f2", "ports": 4}],
           "conditions": ["C1", "C2"], "link_sites": 2, "seeds": 2,
           "fidelity": "flow"})"},
      {"--topo f2 --ports 4 --conditions C1 --link-sites 2 --seeds 2 "
       "--trace --sample-interval-ms 5",
       R"({"name": "cli", "topologies": [{"name": "f2", "ports": 4}],
           "conditions": ["C1"], "link_sites": 2, "seeds": 2,
           "trace": true, "sample_interval_ms": 5})"},
      {"--topo f2 --ports 4 --conditions C1 --link-sites 2 --seeds 2 "
       "--workload incast --wl-fanin 4 --wl-flow-bytes 2000 "
       "--wl-deadline-ms 50",
       R"({"name": "cli", "topologies": [{"name": "f2", "ports": 4}],
           "conditions": ["C1"], "link_sites": 2, "seeds": 2,
           "workload": {"kind": "incast", "fanin": 4, "flow_bytes": 2000,
                        "deadline_ms": 50}})"},
      {"--topo f2 --ports 4 --conditions C1,C2 --link-sites 2 --seeds 2 "
       "--random-sites 2",
       R"({"name": "cli", "topologies": [{"name": "f2", "ports": 4}],
           "conditions": ["C1", "C2"], "link_sites": 2, "seeds": 2,
           "random_sites": 2})"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.flags);
    Cli cli = cli_of("campaign", c.flags);
    EXPECT_EQ(echo(CampaignSpec::from_campaign_flags(cli)),
              echo(CampaignSpec::parse(c.json)));
    EXPECT_TRUE(cli.unknown_keys().empty());
  }
}

TEST(SettingsPath, AllLinkSitesEchoReparses) {
  // "all" is echoed as -1; process workers and --resume re-parse that
  // echo, so it must read back as "all".
  Cli cli = cli_of("campaign", "--topo f2 --ports 4 --link-sites all");
  const CampaignSpec spec = CampaignSpec::from_campaign_flags(cli);
  EXPECT_EQ(spec.link_sites, -1);
  EXPECT_EQ(CampaignSpec::parse(echo(spec)).link_sites, -1);
  EXPECT_EQ(echo(CampaignSpec::parse(echo(spec))), echo(spec));
}

TEST(SettingsPath, RunKnobsMapTheSpec) {
  Cli cli = cli_of("recover",
                   "--detection probe --bfd-tx-ms 10 --bfd-multiplier 4 "
                   "--no-dampening --fault flap --flap-period-ms 100 "
                   "--flap-cycles 2 --detection-ms 30 --spf-ms 50 "
                   "--workload incast --wl-fanin 3");
  const CampaignSpec spec = CampaignSpec::from_recover_flags(cli);
  const RunKnobs knobs = exec::run_knobs(spec, "bgp", 7);
  EXPECT_EQ(knobs.config.control_plane, ControlPlane::kPathVector);
  EXPECT_EQ(knobs.config.seed, 7u);
  EXPECT_EQ(knobs.config.detection.mode, routing::DetectionMode::kProbe);
  EXPECT_EQ(knobs.config.detection.down_delay, sim::millis(30));
  EXPECT_EQ(knobs.config.bfd.tx_interval, sim::millis(10));
  EXPECT_EQ(knobs.config.bfd.miss_multiplier, 4);
  EXPECT_FALSE(knobs.config.bfd.dampening.enabled);
  EXPECT_EQ(knobs.config.ospf.throttle.initial_delay, sim::millis(50));
  EXPECT_EQ(knobs.fault.kind, failure::FaultKind::kFlap);
  EXPECT_EQ(knobs.fault.flap_period, sim::millis(100));
  EXPECT_EQ(knobs.fault.flap_cycles, 2);
  EXPECT_EQ(knobs.fidelity, Fidelity::kPacket);
  EXPECT_TRUE(knobs.workload_enabled);
  EXPECT_EQ(knobs.workload.kind, transport::WorkloadKind::kIncast);
  EXPECT_EQ(knobs.workload.fanin, 3u);

  // A spec built in code is validated before it is mapped.
  CampaignSpec bad = spec;
  bad.bfd_multiplier = 0;
  const std::string expected = error_of([&] { bad.validate(); });
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(error_of([&] { exec::run_knobs(bad, "ospf", 1); }), expected);
}

}  // namespace
}  // namespace f2t::core
