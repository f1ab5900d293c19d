#include <gtest/gtest.h>

#include <sstream>

#include "core/f2tree.hpp"
#include "core/runner.hpp"
#include "obs/sampler.hpp"

namespace f2t {
namespace {

obs::SamplerConfig config_of(sim::Time interval, std::size_t capacity) {
  obs::SamplerConfig c;
  c.interval = interval;
  c.capacity = capacity;
  return c;
}

TEST(Sampler, GaugeSnapshotsAndRateDifferentiates) {
  sim::Simulator sim(1);
  obs::TelemetrySampler sampler(sim, config_of(sim::millis(10), 64));
  double gauge_value = 3.0;
  double counter = 0.0;
  sampler.add_gauge("g", [&gauge_value] { return gauge_value; });
  // 100 units per tick over 10 ms -> 10000 units/s; scale 2 doubles it.
  sampler.add_rate("r", [&counter] { return counter; }, 2.0);
  sampler.start();

  sim.after(sim::millis(5), [&] {
    gauge_value = 7.0;
    counter = 100.0;
  });
  sim.after(sim::millis(15), [&] { counter = 250.0; });
  sim.run(sim::millis(25));
  sampler.stop();

  const auto report = sampler.report();
  EXPECT_TRUE(report.enabled);
  EXPECT_EQ(report.interval, sim::millis(10));
  ASSERT_EQ(report.series.size(), 2u);
  EXPECT_EQ(report.series[0], "g");
  EXPECT_EQ(report.series[1], "r");
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_EQ(report.rows[0].at, sim::millis(10));
  EXPECT_DOUBLE_EQ(report.rows[0].values[0], 7.0);
  EXPECT_DOUBLE_EQ(report.rows[0].values[1], 2.0 * 100.0 / 0.010);
  EXPECT_EQ(report.rows[1].at, sim::millis(20));
  EXPECT_DOUBLE_EQ(report.rows[1].values[1], 2.0 * 150.0 / 0.010);
}

TEST(Sampler, RingKeepsMostRecentWindowAndCountsDrops) {
  sim::Simulator sim(1);
  obs::TelemetrySampler sampler(sim, config_of(sim::millis(1), 4));
  sampler.add_gauge("t", [&sim] { return sim::to_seconds(sim.now()); });
  sampler.start();
  sim.run(sim::millis(10));
  sampler.stop();

  EXPECT_EQ(sampler.ticks(), 10u);
  EXPECT_EQ(sampler.dropped_rows(), 6u);
  const auto report = sampler.report();
  ASSERT_EQ(report.rows.size(), 4u);
  EXPECT_EQ(report.dropped_rows, 6u);
  // Chronological, and the *oldest* rows were the ones evicted.
  EXPECT_EQ(report.rows[0].at, sim::millis(7));
  EXPECT_EQ(report.rows[3].at, sim::millis(10));
}

TEST(Sampler, SourcesAreFixedAfterFirstTick) {
  sim::Simulator sim(1);
  obs::TelemetrySampler sampler(sim, config_of(sim::millis(1), 8));
  sampler.add_gauge("a", [] { return 1.0; });
  sampler.start();
  // Still allowed before any tick fired (the converge()-then-register
  // window the fluid runner uses).
  sampler.add_gauge("b", [] { return 2.0; });
  sim.run(sim::millis(2));
  EXPECT_GT(sampler.ticks(), 0u);
  EXPECT_THROW(sampler.add_gauge("late", [] { return 0.0; }),
               std::logic_error);
  EXPECT_THROW(sampler.add_rate("late", [] { return 0.0; }),
               std::logic_error);
  EXPECT_EQ(sampler.source_count(), 2u);
}

TEST(Sampler, RejectsBadConfigAndProbes) {
  sim::Simulator sim(1);
  EXPECT_THROW(obs::TelemetrySampler(sim, config_of(0, 8)),
               std::invalid_argument);
  EXPECT_THROW(obs::TelemetrySampler(sim, config_of(sim::millis(1), 0)),
               std::invalid_argument);
  obs::TelemetrySampler sampler(sim, config_of(sim::millis(1), 8));
  EXPECT_THROW(sampler.add_gauge("x", nullptr), std::invalid_argument);
}

TEST(Sampler, RollupsArePerSeriesPercentiles) {
  obs::SamplerReport report;
  report.enabled = true;
  report.series = {"a", "b"};
  for (int i = 1; i <= 100; ++i) {
    obs::SamplerReport::Row row;
    row.at = sim::millis(i);
    row.values = {static_cast<double>(i), 5.0};
    report.rows.push_back(row);
  }
  const auto rolled = report.rollups();
  ASSERT_EQ(rolled.size(), 2u);
  EXPECT_DOUBLE_EQ(rolled[0].p50, 50.0);
  EXPECT_DOUBLE_EQ(rolled[0].p99, 99.0);
  EXPECT_DOUBLE_EQ(rolled[0].max, 100.0);
  EXPECT_DOUBLE_EQ(rolled[1].p50, 5.0);
  EXPECT_DOUBLE_EQ(rolled[1].max, 5.0);
  const auto a = report.rollup_of("a");
  ASSERT_TRUE(a.has_value());
  EXPECT_DOUBLE_EQ(a->p99, 99.0);
  // A series that was never registered is *absent*, not an all-zero
  // rollup — callers can tell a typo'd name from a quiet network.
  EXPECT_FALSE(report.rollup_of("missing").has_value());
  obs::SamplerReport empty;
  empty.series = {"a"};
  EXPECT_FALSE(empty.rollup_of("a").has_value());
}

TEST(Sampler, JsonlIsSchemaVersionedWithRollupTrailer) {
  obs::SamplerReport report;
  report.enabled = true;
  report.interval = sim::millis(10);
  report.series = {"x"};
  obs::SamplerReport::Row row;
  row.at = sim::millis(10);
  row.values = {1.5};
  report.rows.push_back(row);
  report.dropped_rows = 2;

  std::ostringstream os;
  report.write_jsonl(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(text.find("\"stream\": \"f2t-samples\""), std::string::npos);
  EXPECT_NE(text.find("\"interval_ns\": 10000000"), std::string::npos);
  EXPECT_NE(text.find("\"dropped_rows\": 2"), std::string::npos);
  EXPECT_NE(text.find("{\"at\": 10000000, \"v\": [1.5]}"),
            std::string::npos);
  EXPECT_NE(text.find("\"rollups\""), std::string::npos);
  // Header + one row + rollup trailer.
  std::size_t lines = 0;
  for (const char ch : text) {
    if (ch == '\n') ++lines;
  }
  EXPECT_EQ(lines, 3u);
}

// ------------------------------------------------------------ integration

TEST(Sampler, TestbedRunCollectsNetworkTelemetry) {
  core::RunKnobs knobs;
  knobs.config.sample_interval = sim::millis(5);
  const auto builder = core::topology_builder("f2", 4);
  const auto r =
      core::run_udp_condition(builder, failure::Condition::kC1, knobs);
  ASSERT_TRUE(r.ok);
  // Sampling works without metrics observe: the sampler is its own
  // subsystem.
  EXPECT_FALSE(r.observation.enabled);
  ASSERT_TRUE(r.observation.samples.enabled);
  const auto& samples = r.observation.samples;
  EXPECT_EQ(samples.interval, sim::millis(5));
  EXPECT_FALSE(samples.rows.empty());
  // The standard telemetry set is registered: per-link series plus the
  // network-wide aggregates.
  bool saw_link = false;
  bool saw_net = false;
  bool saw_sim = false;
  for (const auto& name : samples.series) {
    if (name.rfind("link", 0) == 0) saw_link = true;
    if (name == "net.queue_depth") saw_net = true;
    if (name == "sim.event_rate") saw_sim = true;
  }
  EXPECT_TRUE(saw_link);
  EXPECT_TRUE(saw_net);
  EXPECT_TRUE(saw_sim);
  // A C1 run executes events, so the engine rate rolls up above zero.
  const auto rate = samples.rollup_of("sim.event_rate");
  ASSERT_TRUE(rate.has_value());
  EXPECT_GT(rate->max, 0.0);
  // Rows are fixed-width and chronological.
  for (std::size_t i = 0; i < samples.rows.size(); ++i) {
    EXPECT_EQ(samples.rows[i].values.size(), samples.series.size());
    if (i > 0) {
      EXPECT_GT(samples.rows[i].at, samples.rows[i - 1].at);
    }
  }
}

TEST(Sampler, DisabledByDefaultAddsNothing) {
  core::Testbed bed([](net::Network& n) { return topo::build_f2tree(n, 4); });
  EXPECT_FALSE(bed.sampling());
  EXPECT_THROW(bed.sampler(), std::logic_error);
}

TEST(EngineProfile, IsFilledWithoutObservation) {
  core::RunKnobs knobs;
  const auto builder = core::topology_builder("f2", 4);
  const auto r =
      core::run_udp_condition(builder, failure::Condition::kC1, knobs);
  ASSERT_TRUE(r.ok);
  // The engine profile is filled even without observe: it is a
  // by-product of the run, not a hook.
  EXPECT_GT(r.observation.profile.events_executed, 0u);
  EXPECT_GE(r.observation.profile.setup_wall_seconds, 0.0);
}

}  // namespace
}  // namespace f2t
