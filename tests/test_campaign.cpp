#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "exec/campaign.hpp"
#include "sim/random.hpp"

namespace f2t {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(Json, ParsesScalarsArraysObjects) {
  const auto v = core::json::parse(
      R"({"a": 1, "b": -2.5e2, "c": "x\ny\u0041", "d": [true, false, null],
          "e": {"nested": [1, 2]}})");
  EXPECT_EQ(v.at("a").as_int(), 1);
  EXPECT_DOUBLE_EQ(v.at("b").as_double(), -250.0);
  EXPECT_EQ(v.at("c").as_string(), "x\nyA");
  ASSERT_EQ(v.at("d").as_array().size(), 3u);
  EXPECT_TRUE(v.at("d").as_array()[0].as_bool());
  EXPECT_TRUE(v.at("d").as_array()[2].is_null());
  EXPECT_EQ(v.at("e").at("nested").as_array()[1].as_int(), 2);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(core::json::parse("{"), std::invalid_argument);
  EXPECT_THROW(core::json::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW(core::json::parse("{\"a\" 1}"), std::invalid_argument);
  EXPECT_THROW(core::json::parse("nul"), std::invalid_argument);
  EXPECT_THROW(core::json::parse("1 2"), std::invalid_argument);
  EXPECT_THROW(core::json::parse("\"\\x\""), std::invalid_argument);
  // Nesting is bounded instead of recursing until the stack overflows.
  const auto nested = [](int depth, std::string_view open,
                         std::string_view leaf, std::string_view close) {
    std::string text;
    for (int i = 0; i < depth; ++i) text += open;
    text += leaf;
    for (int i = 0; i < depth; ++i) text += close;
    return text;
  };
  EXPECT_THROW(core::json::parse(nested(200000, "[", "", "]")),
               std::invalid_argument);
  EXPECT_THROW(core::json::parse(nested(200000, "{\"a\":", "1", "}")),
               std::invalid_argument);
  constexpr int kMax = core::json::kMaxDepth;
  EXPECT_NO_THROW(core::json::parse(nested(kMax, "[", "", "]")));
  EXPECT_NO_THROW(core::json::parse(nested(kMax, "{\"a\":", "1", "}")));
  try {
    core::json::parse(nested(kMax + 1, "[", "", "]"));
    ADD_FAILURE() << "nesting past the bound parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("at byte 256"), std::string::npos)
        << e.what();
  }
}

TEST(Json, TypeMismatchThrows) {
  const auto v = core::json::parse(R"({"a": 1})");
  EXPECT_THROW(v.at("a").as_string(), std::invalid_argument);
  EXPECT_THROW(v.at("missing"), std::invalid_argument);
  EXPECT_EQ(v.find("missing"), nullptr);
}

// --------------------------------------------------------- random split --

TEST(RandomSplit, StreamsAreStableAndDistinct) {
  sim::Random root(42);
  // Pure function of (root seed, stream id): any thread, any order.
  EXPECT_EQ(root.split(3).seed(), sim::Random(42).split(3).seed());
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seeds.insert(sim::Random::derive_stream_seed(42, i));
  }
  EXPECT_EQ(seeds.size(), 1000u);
  // Nearby roots must not collide with nearby streams.
  EXPECT_NE(sim::Random::derive_stream_seed(42, 1),
            sim::Random::derive_stream_seed(43, 0));
}

TEST(RandomSplit, SplitStreamsProduceIndependentSequences) {
  sim::Random root(7);
  sim::Random a = root.split(0);
  sim::Random b = root.split(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.engine()() == b.engine()()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

// ---------------------------------------------------------------- spec --

const char* kSpecText = R"({
  "name": "unit",
  "topologies": [{"name": "f2", "ports": 4}],
  "controls": ["ospf"],
  "conditions": ["C1", "C2"],
  "link_sites": 2,
  "seeds": 2,
  "base_seed": 9,
  "horizon_ms": 1500
})";

TEST(CampaignSpec, ParsesAndEchoesCanonically) {
  const auto spec = core::CampaignSpec::parse(kSpecText);
  EXPECT_EQ(spec.name, "unit");
  ASSERT_EQ(spec.topologies.size(), 1u);
  EXPECT_EQ(spec.topologies[0].label(), "f2-4");
  EXPECT_EQ(spec.conditions.size(), 2u);
  EXPECT_EQ(spec.link_sites, 2);
  EXPECT_EQ(spec.seeds, 2);
  EXPECT_EQ(spec.base_seed, 9u);

  // The canonical echo re-parses to the same spec.
  std::ostringstream os;
  spec.write_json(os);
  const auto again = core::CampaignSpec::parse(os.str());
  std::ostringstream os2;
  again.write_json(os2);
  EXPECT_EQ(os.str(), os2.str());
}

TEST(CampaignSpec, RejectsUnknownKeysAndBadValues) {
  EXPECT_THROW(core::CampaignSpec::parse(
                   R"({"topologies": [{"name": "f2", "ports": 4}],
                       "condtions": ["C1"]})"),
               std::invalid_argument);
  EXPECT_THROW(core::CampaignSpec::parse(R"({"topologies": []})"),
               std::invalid_argument);
  EXPECT_THROW(core::CampaignSpec::parse(
                   R"({"topologies": [{"name": "f2", "ports": 4}],
                       "conditions": ["C9"]})"),
               std::invalid_argument);
  EXPECT_THROW(core::CampaignSpec::parse(
                   R"({"topologies": [{"name": "f2", "ports": 4}],
                       "controls": ["rip"], "conditions": ["C1"]})"),
               std::invalid_argument);
}

TEST(CampaignSpec, DefaultDetectionAndFaultKnobsAreOmittedFromEcho) {
  // Byte-identity guarantee: a spec that never mentions the probe/fault
  // knobs must echo exactly as it did before those knobs existed.
  const auto spec = core::CampaignSpec::parse(kSpecText);
  std::ostringstream os;
  spec.write_json(os);
  const std::string echoed = os.str();
  for (const char* key : {"\"detection\"", "\"bfd_tx_ms\"", "\"bfd_multiplier\"",
                          "\"dampening\"", "\"fault\"", "\"gray_loss\"",
                          "\"flap_period_ms\"", "\"flap_cycles\""}) {
    EXPECT_EQ(echoed.find(key), std::string::npos)
        << key << " must not appear for a default spec";
  }
}

TEST(CampaignSpec, ParsesDetectionAndFaultKnobs) {
  const auto spec = core::CampaignSpec::parse(R"({
    "topologies": [{"name": "f2", "ports": 4}],
    "conditions": ["C1"],
    "detection": "probe",
    "bfd_tx_ms": 10,
    "bfd_multiplier": 4,
    "dampening": false,
    "fault": "gray",
    "gray_loss": 0.5,
    "flap_period_ms": 200,
    "flap_cycles": 7
  })");
  EXPECT_EQ(spec.detection, "probe");
  EXPECT_EQ(spec.bfd_tx_ms, 10);
  EXPECT_EQ(spec.bfd_multiplier, 4);
  EXPECT_FALSE(spec.dampening);
  EXPECT_EQ(spec.fault, failure::FaultKind::kGray);
  EXPECT_DOUBLE_EQ(spec.gray_loss, 0.5);
  EXPECT_EQ(spec.flap_period_ms, 200);
  EXPECT_EQ(spec.flap_cycles, 7);

  // Non-default knobs survive a canonical echo round trip.
  std::ostringstream os;
  spec.write_json(os);
  const auto again = core::CampaignSpec::parse(os.str());
  EXPECT_EQ(again.detection, "probe");
  EXPECT_EQ(again.fault, failure::FaultKind::kGray);
  EXPECT_DOUBLE_EQ(again.gray_loss, 0.5);
  std::ostringstream os2;
  again.write_json(os2);
  EXPECT_EQ(os.str(), os2.str());
}

TEST(CampaignSpec, RejectsBadDetectionAndFaultValues) {
  EXPECT_THROW(core::CampaignSpec::parse(
                   R"({"topologies": [{"name": "f2", "ports": 4}],
                       "conditions": ["C1"], "detection": "psychic"})"),
               std::invalid_argument);
  EXPECT_THROW(core::CampaignSpec::parse(
                   R"({"topologies": [{"name": "f2", "ports": 4}],
                       "conditions": ["C1"], "fault": "meteor"})"),
               std::invalid_argument);
  EXPECT_THROW(core::CampaignSpec::parse(
                   R"({"topologies": [{"name": "f2", "ports": 4}],
                       "conditions": ["C1"], "gray_loss": 1.5})"),
               std::invalid_argument);
  EXPECT_THROW(core::CampaignSpec::parse(
                   R"({"topologies": [{"name": "f2", "ports": 4}],
                       "conditions": ["C1"], "bfd_multiplier": 0})"),
               std::invalid_argument);
}

TEST(CampaignSpec, ParsesObservabilityKnobsAndOmitsDefaults) {
  // Defaults: no trace, no sampling — and crucially the keys must not
  // appear in the canonical echo, so artifacts recorded before these
  // knobs existed stay byte-identical.
  const auto plain = core::CampaignSpec::parse(kSpecText);
  EXPECT_FALSE(plain.trace);
  EXPECT_EQ(plain.sample_interval_ms, 0);
  std::ostringstream os0;
  plain.write_json(os0);
  EXPECT_EQ(os0.str().find("\"trace\""), std::string::npos);
  EXPECT_EQ(os0.str().find("\"sample_interval_ms\""), std::string::npos);

  const auto spec = core::CampaignSpec::parse(R"({
    "topologies": [{"name": "f2", "ports": 4}],
    "conditions": ["C1"],
    "trace": true,
    "sample_interval_ms": 5
  })");
  EXPECT_TRUE(spec.trace);
  EXPECT_EQ(spec.sample_interval_ms, 5);
  std::ostringstream os;
  spec.write_json(os);
  EXPECT_NE(os.str().find("\"trace\": true"), std::string::npos);
  EXPECT_NE(os.str().find("\"sample_interval_ms\": 5"), std::string::npos);
  const auto again = core::CampaignSpec::parse(os.str());
  EXPECT_TRUE(again.trace);
  EXPECT_EQ(again.sample_interval_ms, 5);
  std::ostringstream os2;
  again.write_json(os2);
  EXPECT_EQ(os.str(), os2.str());

  EXPECT_THROW(core::CampaignSpec::parse(
                   R"({"topologies": [{"name": "f2", "ports": 4}],
                       "conditions": ["C1"], "sample_interval_ms": -1})"),
               std::invalid_argument);
}

TEST(CampaignSpec, EnumerateShardsIsDeterministic) {
  const auto spec = core::CampaignSpec::parse(kSpecText);
  const auto shards = core::enumerate_shards(spec);
  // (2 conditions + 2 link sites) x 2 seeds.
  ASSERT_EQ(shards.size(), 8u);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    EXPECT_EQ(shards[i].index, static_cast<int>(i));
    EXPECT_EQ(shards[i].seed,
              sim::Random::derive_stream_seed(9, static_cast<std::uint64_t>(i)));
  }
  EXPECT_EQ(shards[0].site(), "C1");
  EXPECT_EQ(shards[0].replicate, 0);
  EXPECT_EQ(shards[1].replicate, 1);
  EXPECT_EQ(shards[4].site(), "L0");
  // "all" link sites resolves to every switch-to-switch link, stably.
  auto all = spec;
  all.link_sites = -1;
  const auto a = core::enumerate_shards(all);
  const auto b = core::enumerate_shards(all);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GT(a.size(), shards.size());
}

// ------------------------------------------------------------ execution --

/// Shared tiny campaign: 1 condition + 2 link sites, 2 seeds, short
/// horizon, f2-4 — small enough for a unit test, rich enough to exercise
/// both failure-site enumerators and the aggregation.
core::CampaignSpec tiny_spec() {
  return core::CampaignSpec::parse(R"({
    "name": "tiny",
    "topologies": [{"name": "f2", "ports": 4}],
    "conditions": ["C1"],
    "link_sites": 2,
    "seeds": 2,
    "horizon_ms": 1200
  })");
}

TEST(CampaignRun, DeterministicAcrossJobCounts) {
  const auto spec = tiny_spec();
  exec::CampaignOptions serial;
  serial.jobs = 1;
  exec::CampaignOptions parallel;
  parallel.jobs = 8;
  const auto r1 = exec::run_campaign(spec, serial);
  const auto r8 = exec::run_campaign(spec, parallel);
  ASSERT_EQ(r1.runs.size(), 6u);
  std::ostringstream a;
  std::ostringstream b;
  r1.write_json(a, /*include_profile=*/false);
  r8.write_json(b, /*include_profile=*/false);
  EXPECT_EQ(a.str(), b.str())
      << "campaign artifact must be byte-identical for any --jobs";
}

TEST(CampaignRun, SingleShardRerunReproducesCampaignRecord) {
  const auto spec = tiny_spec();
  const auto shards = core::enumerate_shards(spec);
  exec::CampaignOptions options;
  options.jobs = 4;
  const auto full = exec::run_campaign(spec, options);
  ASSERT_EQ(full.runs.size(), shards.size());
  // Re-running one shard in isolation (as after a killed campaign)
  // reproduces the exact record the full campaign stored at that index.
  for (const std::size_t i : {std::size_t{0}, shards.size() - 1}) {
    const auto redo = exec::run_shard(spec, shards[i]);
    const auto& ref = full.runs[i];
    EXPECT_EQ(redo.seed, ref.seed);
    EXPECT_EQ(redo.ok, ref.ok);
    EXPECT_EQ(redo.on_path, ref.on_path);
    EXPECT_EQ(redo.connectivity_loss, ref.connectivity_loss);
    EXPECT_EQ(redo.packets_sent, ref.packets_sent);
    EXPECT_EQ(redo.packets_lost, ref.packets_lost);
    EXPECT_EQ(redo.events_executed, ref.events_executed);
    EXPECT_EQ(redo.scenario, ref.scenario);
  }
}

TEST(CampaignRun, AggregatesCoverEveryRunAndClass) {
  const auto spec = tiny_spec();
  exec::CampaignOptions options;
  options.jobs = 2;
  const auto result = exec::run_campaign(spec, options);
  const auto aggregates = core::aggregate_runs(result.runs);
  ASSERT_FALSE(aggregates.empty());
  EXPECT_EQ(aggregates[0].key, "total");
  EXPECT_EQ(aggregates[0].runs, static_cast<int>(result.runs.size()));
  int grouped = 0;
  for (std::size_t i = 1; i < aggregates.size(); ++i) {
    grouped += aggregates[i].runs;
  }
  EXPECT_EQ(grouped, aggregates[0].runs);
  // A C1 failure on the probe path must cost packets; the aggregate's
  // histogram has to see them.
  std::uint64_t hist = 0;
  for (const auto b : aggregates[0].gap_loss_hist) hist += b;
  EXPECT_EQ(hist, static_cast<std::uint64_t>(aggregates[0].affected));
}

TEST(CampaignRun, ThrowingShardBecomesDeterministicErrorRecord) {
  // "nope" passes spec parsing (topology names are resolved at run time)
  // but makes every shard's topology_builder throw. The campaign must
  // still complete, with the exception captured as a per-shard error
  // record — byte-identical for any job count.
  const auto spec = core::CampaignSpec::parse(R"({
    "name": "broken",
    "topologies": [{"name": "nope", "ports": 4}],
    "conditions": ["C1", "C2"],
    "seeds": 2,
    "horizon_ms": 500
  })");
  exec::CampaignOptions serial;
  serial.jobs = 1;
  exec::CampaignOptions parallel;
  parallel.jobs = 4;
  const auto r1 = exec::run_campaign(spec, serial);
  const auto r4 = exec::run_campaign(spec, parallel);
  ASSERT_EQ(r1.runs.size(), 4u);
  for (const auto& run : r1.runs) {
    EXPECT_FALSE(run.ok);
    EXPECT_EQ(run.error, "unknown topology: nope");
  }
  std::ostringstream a;
  std::ostringstream b;
  r1.write_json(a, /*include_profile=*/false);
  r4.write_json(b, /*include_profile=*/false);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("\"error\": \"unknown topology: nope\""),
            std::string::npos);

  const auto aggregates = core::aggregate_runs(r1.runs);
  ASSERT_FALSE(aggregates.empty());
  EXPECT_EQ(aggregates[0].failed, 4);
}

TEST(CampaignRun, SuccessfulRunRecordsCarryNoErrorField) {
  const auto spec = tiny_spec();
  exec::CampaignOptions options;
  options.jobs = 2;
  const auto result = exec::run_campaign(spec, options);
  std::ostringstream os;
  result.write_json(os, /*include_profile=*/false);
  EXPECT_EQ(os.str().find("\"error\""), std::string::npos);
  // And no observability fields either: the spec did not ask for them.
  EXPECT_EQ(os.str().find("\"spans\""), std::string::npos);
  EXPECT_EQ(os.str().find("\"samples\""), std::string::npos);
}

TEST(CampaignRun, TracedShardsRecordSpansAndMilestones) {
  auto spec = tiny_spec();
  spec.trace = true;
  spec.sample_interval_ms = 5;
  exec::CampaignOptions options;
  options.jobs = 2;
  std::atomic<int> started{0};
  options.on_shard_start = [&started](const core::ShardSpec&) {
    started.fetch_add(1, std::memory_order_relaxed);
  };
  const auto result = exec::run_campaign(spec, options);
  EXPECT_EQ(started.load(), static_cast<int>(result.runs.size()));
  for (const auto& run : result.runs) {
    ASSERT_TRUE(run.ok);
    EXPECT_GT(run.spans, 0u);
    EXPECT_GT(run.samples, 0u);
    if (run.on_path) {
      EXPECT_GT(run.detect_ns, 0);
      EXPECT_GT(run.converge_ns, run.detect_ns);
    }
  }
  std::ostringstream os;
  result.write_json(os, /*include_profile=*/false);
  EXPECT_NE(os.str().find("\"spans\""), std::string::npos);
  EXPECT_NE(os.str().find("\"detect_ns\""), std::string::npos);
  EXPECT_NE(os.str().find("\"samples\""), std::string::npos);
  EXPECT_NE(os.str().find("\"queue_p99\""), std::string::npos);

  // Still byte-identical across job counts with observability on.
  exec::CampaignOptions serial;
  serial.jobs = 1;
  const auto r1 = exec::run_campaign(spec, serial);
  std::ostringstream os1;
  r1.write_json(os1, /*include_profile=*/false);
  EXPECT_EQ(os.str(), os1.str());
}

TEST(CampaignRun, CallbacksAreSerializedAcrossPoolThreads) {
  // The engine's documented contract: on_shard_start/on_result never run
  // concurrently, so hooks may touch un-synchronized state. Both hooks
  // append to one plain (unlocked) vector; under TSan or with enough
  // shards, a violated contract corrupts it or trips the re-entrancy
  // flag.
  const auto spec = tiny_spec();
  exec::CampaignOptions options;
  options.jobs = 8;
  std::vector<int> order;  // deliberately unsynchronized
  std::atomic<bool> inside{false};
  const auto enter = [&inside] {
    ASSERT_FALSE(inside.exchange(true)) << "callback ran concurrently";
  };
  const auto leave = [&inside] { inside.store(false); };
  options.on_shard_start = [&](const core::ShardSpec& s) {
    enter();
    order.push_back(s.index);
    leave();
  };
  options.on_result = [&](const core::ShardResult& r) {
    enter();
    order.push_back(r.index);
    leave();
  };
  const auto result = exec::run_campaign(spec, options);
  EXPECT_EQ(order.size(), 2 * result.runs.size());
}

// -------------------------------------------------------- survivability --

TEST(CampaignSpec, RandomSitesParseEchoAndEnumerateDeterministically) {
  const auto spec = core::CampaignSpec::parse(R"({
    "name": "surv",
    "topologies": [{"name": "f2", "ports": 4}],
    "random_sites": 5,
    "seeds": 2,
    "horizon_ms": 1200
  })");
  EXPECT_EQ(spec.random_sites, 5);
  std::ostringstream echo;
  spec.write_json(echo);
  EXPECT_NE(echo.str().find("\"random_sites\": 5"), std::string::npos);
  // Echo round-trips.
  const auto again = core::CampaignSpec::parse(echo.str());
  std::ostringstream echo2;
  again.write_json(echo2);
  EXPECT_EQ(echo.str(), echo2.str());

  const auto shards = core::enumerate_shards(spec);
  ASSERT_EQ(shards.size(), 10u);  // 5 draws x 2 seeds
  const auto shards2 = core::enumerate_shards(spec);
  std::set<int> links;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const auto& s = shards[i];
    EXPECT_TRUE(s.is_link_site);
    EXPECT_GE(s.random_site, 0);
    EXPECT_GE(s.link_site, 0);
    EXPECT_EQ(s.site(), std::string("R") + std::to_string(s.random_site));
    // Pure function of the spec: a re-enumeration draws the same links.
    EXPECT_EQ(s.link_site, shards2[i].link_site);
    links.insert(s.link_site);
  }
  // 5 independent draws over an f2-4's links should not collapse to one.
  EXPECT_GT(links.size(), 1u);
}

TEST(CampaignSpec, RandomSitesAloneAreAValidSiteSource) {
  const auto spec = core::CampaignSpec::parse(R"({
    "name": "only-random",
    "topologies": [{"name": "f2", "ports": 4}],
    "random_sites": 3
  })");
  EXPECT_TRUE(spec.conditions.empty());
  EXPECT_EQ(core::enumerate_shards(spec).size(), 3u);
  EXPECT_THROW(core::CampaignSpec::parse(R"({
    "name": "nothing",
    "topologies": [{"name": "f2", "ports": 4}],
    "random_sites": 0
  })"),
               std::invalid_argument);
}

TEST(CampaignRun, SurvivabilitySweepProducesCurves) {
  const auto spec = core::survivability_spec(
      {core::CampaignSpec::TopologyAxis{"f2", 4, 2, 1}}, /*draws=*/8);
  EXPECT_EQ(spec.random_sites, 8);
  exec::CampaignOptions options;
  options.jobs = 4;
  const auto result = exec::run_campaign(spec, options);
  ASSERT_EQ(result.runs.size(), 8u);

  const auto surv = core::aggregate_survivability(
      result.runs, spec.horizon - spec.fail_at);
  ASSERT_EQ(surv.size(), 1u);
  const auto& a = surv[0];
  EXPECT_EQ(a.key, "f2-4/ospf");
  EXPECT_EQ(a.draws, 8);
  EXPECT_GE(a.affected, 0);
  EXPECT_GE(a.availability_mean, 0.0);
  EXPECT_LE(a.availability_mean, 1.0);
  EXPECT_GE(a.availability_min, 0.0);
  EXPECT_LE(a.availability_p50, 1.0);
  // The reliability curve is monotone in the threshold.
  for (int t = 1; t < 4; ++t) {
    EXPECT_GE(a.reliability[t], a.reliability[t - 1]);
  }
  EXPECT_LE(a.reliability[3], 1.0);

  // The artifact gains the survivability section — and stays
  // byte-identical across job counts.
  std::ostringstream os;
  result.write_json(os, /*include_profile=*/false);
  EXPECT_NE(os.str().find("\"survivability\""), std::string::npos);
  EXPECT_NE(os.str().find("\"reliability_ms\": [1, 10, 100, 1000]"),
            std::string::npos);
  exec::CampaignOptions serial;
  serial.jobs = 1;
  const auto r1 = exec::run_campaign(spec, serial);
  std::ostringstream os1;
  r1.write_json(os1, /*include_profile=*/false);
  EXPECT_EQ(os.str(), os1.str());

  // Specs without random sites do not grow the section.
  const auto plain = exec::run_campaign(tiny_spec(), serial);
  std::ostringstream pos;
  plain.write_json(pos, /*include_profile=*/false);
  EXPECT_EQ(pos.str().find("\"survivability\""), std::string::npos);
}

/// The SLO rollup on hand-built runs: pooled miss fractions weight each
/// run by its deadline-bearing flow count, runs without the workload are
/// skipped, and no SLO run gives zeros.
TEST(CampaignAggregate, SloPoolsMissFractionsOverWorkloadRuns) {
  const auto run = [](bool slo, std::size_t flows, double p99,
                      std::size_t dl_in, double miss_in, std::size_t dl_out,
                      double miss_out) {
    core::ShardResult r;
    r.slo = slo;
    r.slo_flows = flows;
    r.slo_completed = flows - 1;
    r.fct_p50_ms = p99 / 2;
    r.fct_p99_ms = p99;
    r.fct_p999_ms = p99 * 2;
    r.slo_deadline_in = dl_in;
    r.slo_miss_in = miss_in;
    r.slo_deadline_out = dl_out;
    r.slo_miss_out = miss_out;
    return r;
  };
  const core::ShardResult skipped = run(false, 1000, 100, 1000, 1, 1000, 1);
  const auto a = core::aggregate_slo({run(true, 10, 4, 10, 0.5, 30, 0.1),
                                      skipped,
                                      run(true, 100, 6, 90, 0.1, 10, 0.5)});
  EXPECT_EQ(a.runs, 2);
  EXPECT_EQ(a.flows, 110u);
  EXPECT_EQ(a.completed, 108u);
  EXPECT_DOUBLE_EQ(a.fct_p50_ms_mean, 2.5);
  EXPECT_DOUBLE_EQ(a.fct_p99_ms_mean, 5.0);
  EXPECT_DOUBLE_EQ(a.fct_p999_ms_mean, 10.0);
  EXPECT_DOUBLE_EQ(a.fct_p99_ms_max, 6.0);
  EXPECT_DOUBLE_EQ(a.fct_p999_ms_max, 12.0);
  EXPECT_EQ(a.deadline_flows_in, 100u);
  EXPECT_EQ(a.deadline_flows_out, 40u);
  // (0.5 · 10 + 0.1 · 90) / 100 and (0.1 · 30 + 0.5 · 10) / 40, not the
  // unweighted 0.3 of each.
  EXPECT_DOUBLE_EQ(a.miss_in, 0.14);
  EXPECT_DOUBLE_EQ(a.miss_out, 0.2);

  for (const auto& runs : {std::vector<core::ShardResult>{},
                           std::vector<core::ShardResult>{skipped}}) {
    const auto none = core::aggregate_slo(runs);
    EXPECT_EQ(none.runs, 0);
    EXPECT_EQ(none.flows, 0u);
    EXPECT_EQ(none.completed, 0u);
    EXPECT_EQ(none.fct_p99_ms_mean, 0.0);
    EXPECT_EQ(none.fct_p999_ms_max, 0.0);
    EXPECT_EQ(none.deadline_flows_in, 0u);
    EXPECT_EQ(none.miss_in, 0.0);
    EXPECT_EQ(none.miss_out, 0.0);
  }
}

TEST(CampaignSpec, SurvivabilitySpecRejectsBadArguments) {
  EXPECT_THROW(core::survivability_spec({}, 8), std::invalid_argument);
  EXPECT_THROW(core::survivability_spec(
                   {core::CampaignSpec::TopologyAxis{}}, 0),
               std::invalid_argument);
}

// ------------------------------------------------------ worker protocol --

TEST(WorkerProtocol, ShardRangesRoundTripAndReject) {
  const std::vector<std::pair<int, int>> ranges{{0, 4}, {7, 9}};
  const std::string text = core::format_shard_ranges(ranges);
  EXPECT_EQ(text, "0:4,7:9");
  EXPECT_EQ(core::parse_shard_ranges(text), ranges);
  EXPECT_THROW(core::parse_shard_ranges(""), std::invalid_argument);
  EXPECT_THROW(core::parse_shard_ranges("3"), std::invalid_argument);
  EXPECT_THROW(core::parse_shard_ranges("4:4"), std::invalid_argument);
  EXPECT_THROW(core::parse_shard_ranges("5:3"), std::invalid_argument);
  EXPECT_THROW(core::parse_shard_ranges("-1:3"), std::invalid_argument);
  EXPECT_THROW(core::parse_shard_ranges("0:2,x:3"), std::invalid_argument);
  EXPECT_THROW(core::parse_shard_ranges("0:2junk"), std::invalid_argument);
}

TEST(WorkerProtocol, ContiguousRangesCompressIndexLists) {
  EXPECT_TRUE(core::contiguous_ranges({}).empty());
  EXPECT_EQ(core::contiguous_ranges({3}),
            (std::vector<std::pair<int, int>>{{3, 4}}));
  EXPECT_EQ(core::contiguous_ranges({0, 1, 2, 5, 6, 9}),
            (std::vector<std::pair<int, int>>{{0, 3}, {5, 7}, {9, 10}}));
}

TEST(WorkerProtocol, ShardRecordRoundTripsExactly) {
  core::ShardResult r;
  r.index = 42;
  r.topology = "f2-8";
  r.control = "ospf";
  r.site = "R3";
  r.site_class = "agg-spine";
  r.replicate = 7;
  r.seed = 18446744073709551557ull;  // needs 64 bits: JSON int64 overflows
  r.ok = true;
  r.on_path = true;
  r.connectivity_loss = 123456789;
  r.packets_sent = 100000;
  r.packets_lost = 37;
  r.events_executed = 987654;
  r.wall_seconds = 0.1234567890123456789;  // exercises 17-digit exactness
  r.scenario = "link 3 \"down\"";          // exercises escaping
  r.spans = 5;
  r.detect_ns = 60000000;
  r.converge_ns = 260000001;
  r.samples = 240;
  r.queue_rollup = true;
  r.queue_p99 = 17.000000000000004;  // not representable at 10 digits
  r.queue_max = 19.5;

  std::ostringstream os;
  core::write_shard_record(os, r);
  const std::string line = os.str();
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(line.find('\n'), line.size() - 1) << "one record, one line";

  const auto back =
      core::parse_shard_record(std::string_view(line).substr(0, line.size() - 1));
  EXPECT_EQ(back.index, r.index);
  EXPECT_EQ(back.topology, r.topology);
  EXPECT_EQ(back.control, r.control);
  EXPECT_EQ(back.site, r.site);
  EXPECT_EQ(back.site_class, r.site_class);
  EXPECT_EQ(back.replicate, r.replicate);
  EXPECT_EQ(back.seed, r.seed);
  EXPECT_EQ(back.ok, r.ok);
  EXPECT_EQ(back.on_path, r.on_path);
  EXPECT_EQ(back.connectivity_loss, r.connectivity_loss);
  EXPECT_EQ(back.packets_sent, r.packets_sent);
  EXPECT_EQ(back.packets_lost, r.packets_lost);
  EXPECT_EQ(back.events_executed, r.events_executed);
  EXPECT_EQ(back.wall_seconds, r.wall_seconds);  // bit-exact, not near
  EXPECT_EQ(back.scenario, r.scenario);
  EXPECT_EQ(back.spans, r.spans);
  EXPECT_EQ(back.detect_ns, r.detect_ns);
  EXPECT_EQ(back.converge_ns, r.converge_ns);
  EXPECT_EQ(back.samples, r.samples);
  EXPECT_EQ(back.queue_rollup, r.queue_rollup);
  EXPECT_EQ(back.queue_p99, r.queue_p99);
  EXPECT_EQ(back.queue_max, r.queue_max);
  EXPECT_TRUE(back.error.empty());
}

TEST(WorkerProtocol, ErrorRecordsAndAbsentRollupsRoundTrip) {
  core::ShardResult r;
  r.index = 3;
  r.topology = "nope-4";
  r.control = "ospf";
  r.site = "C1";
  r.seed = 99;
  r.ok = false;
  r.error = "unknown topology: nope";
  std::ostringstream os;
  core::write_shard_record(os, r);
  const std::string line = os.str();
  const auto back = core::parse_shard_record(
      std::string_view(line).substr(0, line.size() - 1));
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.error, r.error);
  EXPECT_FALSE(back.queue_rollup);  // absent fields stay absent
  EXPECT_EQ(line.find("\"queue_p99\""), std::string::npos);
}

TEST(WorkerProtocol, TornLinesAreRejected) {
  core::ShardResult r;
  r.index = 1;
  r.topology = "f2-4";
  r.control = "ospf";
  r.site = "L0";
  r.seed = 7;
  r.ok = true;
  std::ostringstream os;
  core::write_shard_record(os, r);
  const std::string line = os.str();
  // A SIGKILL mid-write leaves a prefix; every strict prefix must fail
  // to parse rather than yield a half-initialized record.
  for (const std::size_t cut : {line.size() / 4, line.size() / 2,
                                line.size() - 2}) {
    EXPECT_THROW(core::parse_shard_record(
                     std::string_view(line).substr(0, cut)),
                 std::exception)
        << "prefix of " << cut << " bytes parsed";
  }
  EXPECT_THROW(core::parse_shard_record("{\"v\": 2}"), std::invalid_argument);
}

TEST(WorkerProtocol, ManifestRoundTripsAndValidates) {
  core::CheckpointManifest m;
  m.spec = tiny_spec();
  m.shards = 6;
  m.workers = 3;
  std::ostringstream os;
  m.write_json(os);
  const auto back = core::CheckpointManifest::parse(os.str());
  EXPECT_EQ(back.shards, 6);
  EXPECT_EQ(back.workers, 3);
  std::ostringstream a;
  std::ostringstream b;
  m.spec.write_json(a);
  back.spec.write_json(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_THROW(core::CheckpointManifest::parse("{}"), std::invalid_argument);
  EXPECT_THROW(core::CheckpointManifest::parse(
                   "{\"schema_version\": 1, \"kind\": \"wrong\"}"),
               std::invalid_argument);
}

// ------------------------------------------------------------- workload --

/// tiny_spec plus an incast workload axis (packet fidelity is the
/// default): small fan-in and short horizon keep this unit-test sized.
core::CampaignSpec tiny_workload_spec() {
  return core::CampaignSpec::parse(R"({
    "name": "tiny-wl",
    "topologies": [{"name": "f2", "ports": 4}],
    "conditions": ["C1"],
    "seeds": 2,
    "horizon_ms": 700,
    "workload": {"kind": "incast", "fanin": 3, "flow_bytes": 4000,
                 "deadline_ms": 200}
  })");
}

TEST(CampaignSpec, WorkloadAxisParsesEchoesAndValidates) {
  const auto spec = tiny_workload_spec();
  EXPECT_TRUE(spec.workload.enabled);
  EXPECT_EQ(spec.workload.kind, "incast");
  EXPECT_EQ(spec.workload.size_dist, "websearch");  // default preserved
  EXPECT_EQ(spec.workload.fanin, 3);
  EXPECT_EQ(spec.workload.flow_bytes, 4000u);
  EXPECT_EQ(spec.workload.deadline_ms, 200);

  std::ostringstream os;
  spec.write_json(os);
  EXPECT_NE(os.str().find("\"workload\""), std::string::npos);
  const auto again = core::CampaignSpec::parse(os.str());
  std::ostringstream os2;
  again.write_json(os2);
  EXPECT_EQ(os.str(), os2.str());

  const auto bad = [](const char* workload_json, const char* fidelity) {
    return std::string(R"({"topologies": [{"name": "f2", "ports": 4}],
                           "conditions": ["C1"], "fidelity": ")") +
           fidelity + R"(", "workload": )" + workload_json + "}";
  };
  // Unknown sub-key, bad kind, bad size_dist, out-of-range load/fanin.
  EXPECT_THROW(core::CampaignSpec::parse(bad(R"({"knd": "poisson"})", "packet")),
               std::invalid_argument);
  EXPECT_THROW(core::CampaignSpec::parse(bad(R"({"kind": "storm"})", "packet")),
               std::invalid_argument);
  EXPECT_THROW(
      core::CampaignSpec::parse(bad(R"({"size_dist": "uniform"})", "packet")),
      std::invalid_argument);
  EXPECT_THROW(core::CampaignSpec::parse(bad(R"({"load": 1.5})", "packet")),
               std::invalid_argument);
  EXPECT_THROW(core::CampaignSpec::parse(bad(R"({"load": 0})", "packet")),
               std::invalid_argument);
  EXPECT_THROW(core::CampaignSpec::parse(bad(R"({"fanin": 0})", "packet")),
               std::invalid_argument);
  // The TCP workload needs host stacks: flow fidelity must refuse.
  EXPECT_THROW(core::CampaignSpec::parse(bad(R"({"kind": "poisson"})", "flow")),
               std::invalid_argument);
}

TEST(CampaignSpec, WorkloadFreeSpecsStayByteIdentical) {
  // Byte-identity guarantee: specs and artifacts without a workload axis
  // must not grow any workload/SLO keys.
  const auto spec = tiny_spec();
  std::ostringstream os;
  spec.write_json(os);
  EXPECT_EQ(os.str().find("\"workload\""), std::string::npos);

  exec::CampaignOptions options;
  options.jobs = 2;
  const auto result = exec::run_campaign(spec, options);
  std::ostringstream artifact;
  result.write_json(artifact, /*include_profile=*/false);
  for (const char* key : {"\"workload\"", "\"slo\"", "\"slo_flows\"",
                          "\"fct_p50_ms\"", "\"miss_in\""}) {
    EXPECT_EQ(artifact.str().find(key), std::string::npos)
        << key << " must not appear without a workload axis";
  }
}

TEST(CampaignRun, WorkloadSloIsDeterministicAcrossJobCounts) {
  const auto spec = tiny_workload_spec();
  exec::CampaignOptions serial;
  serial.jobs = 1;
  exec::CampaignOptions parallel;
  parallel.jobs = 4;
  const auto r1 = exec::run_campaign(spec, serial);
  const auto r4 = exec::run_campaign(spec, parallel);
  std::ostringstream a;
  std::ostringstream b;
  r1.write_json(a, /*include_profile=*/false);
  r4.write_json(b, /*include_profile=*/false);
  EXPECT_EQ(a.str(), b.str())
      << "SLO section must be byte-identical for any --jobs";

  // Every run carries per-flow SLO stats and the artifact the pooled
  // aggregate.
  for (const auto& run : r1.runs) {
    ASSERT_TRUE(run.ok);
    EXPECT_TRUE(run.slo);
    EXPECT_GT(run.slo_flows, 0u);
    EXPECT_GT(run.slo_completed, 0u);
    EXPECT_GT(run.fct_p50_ms, 0.0);
    EXPECT_GE(run.fct_p999_ms, run.fct_p99_ms);
    EXPECT_GE(run.fct_p99_ms, run.fct_p50_ms);
  }
  EXPECT_NE(a.str().find("\"slo\""), std::string::npos);
  EXPECT_NE(a.str().find("\"fct_p999_ms_max\""), std::string::npos);
}

TEST(WorkerProtocol, SloFieldsRoundTripExactly) {
  core::ShardResult r;
  r.index = 5;
  r.topology = "f2-4";
  r.control = "ospf";
  r.site = "C1";
  r.seed = 11;
  r.ok = true;
  r.slo = true;
  r.slo_flows = 120;
  r.slo_completed = 118;
  r.fct_p50_ms = 1.2345678901234567;  // exercises 17-digit exactness
  r.fct_p99_ms = 45.5;
  r.fct_p999_ms = 99.75;
  r.slo_deadline_in = 30;
  r.slo_deadline_out = 80;
  r.slo_miss_in = 0.30000000000000004;
  r.slo_miss_out = 0.0125;
  std::ostringstream os;
  core::write_shard_record(os, r);
  const std::string line = os.str();
  const auto back = core::parse_shard_record(
      std::string_view(line).substr(0, line.size() - 1));
  EXPECT_TRUE(back.slo);
  EXPECT_EQ(back.slo_flows, r.slo_flows);
  EXPECT_EQ(back.slo_completed, r.slo_completed);
  EXPECT_EQ(back.fct_p50_ms, r.fct_p50_ms);  // bit-exact, not near
  EXPECT_EQ(back.fct_p99_ms, r.fct_p99_ms);
  EXPECT_EQ(back.fct_p999_ms, r.fct_p999_ms);
  EXPECT_EQ(back.slo_deadline_in, r.slo_deadline_in);
  EXPECT_EQ(back.slo_deadline_out, r.slo_deadline_out);
  EXPECT_EQ(back.slo_miss_in, r.slo_miss_in);
  EXPECT_EQ(back.slo_miss_out, r.slo_miss_out);

  // A record without SLO fields parses back with slo == false.
  core::ShardResult plain;
  plain.index = 6;
  plain.topology = "f2-4";
  plain.control = "ospf";
  plain.site = "C1";
  plain.seed = 12;
  plain.ok = true;
  std::ostringstream os2;
  core::write_shard_record(os2, plain);
  EXPECT_EQ(os2.str().find("\"slo_flows\""), std::string::npos);
  const auto plain_back = core::parse_shard_record(
      std::string_view(os2.str()).substr(0, os2.str().size() - 1));
  EXPECT_FALSE(plain_back.slo);
}

}  // namespace
}  // namespace f2t
