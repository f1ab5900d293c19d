#include <gtest/gtest.h>

#include <algorithm>

#include "sim/random.hpp"
#include "stats/cdf.hpp"
#include "stats/flow_metrics.hpp"
#include "stats/percentile.hpp"
#include "stats/table.hpp"
#include "stats/timeseries.hpp"

namespace f2t::stats {
namespace {

// ------------------------------------------------------------ percentile
//
// nearest_rank_sorted is the single percentile convention shared by the
// sampler rollups and the campaign aggregates — these tests pin the edge
// behaviour both call sites depend on.

TEST(Percentile, EmptySampleIsZero) {
  EXPECT_DOUBLE_EQ(nearest_rank_sorted({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(nearest_rank_sorted({}, 0.99), 0.0);
}

TEST(Percentile, SingleElementIsEveryPercentile) {
  const std::vector<double> one{42.0};
  EXPECT_DOUBLE_EQ(nearest_rank_sorted(one, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(nearest_rank_sorted(one, 0.5), 42.0);
  EXPECT_DOUBLE_EQ(nearest_rank_sorted(one, 0.99), 42.0);
  EXPECT_DOUBLE_EQ(nearest_rank_sorted(one, 1.0), 42.0);
}

TEST(Percentile, NearestRankOverHundredValues) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(nearest_rank_sorted(v, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(nearest_rank_sorted(v, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(nearest_rank_sorted(v, 1.0), 100.0);
}

TEST(Percentile, SmallSamplesClampWithoutExtrapolating) {
  // With n < 100 the p99 rank rounds up to the maximum — never past it,
  // never interpolated.
  const std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(nearest_rank_sorted(v, 0.99), 3.0);
  EXPECT_DOUBLE_EQ(nearest_rank_sorted(v, 0.5), 2.0);
  // p = 0 clamps the rank up to 1: the minimum, not an out-of-range read.
  EXPECT_DOUBLE_EQ(nearest_rank_sorted(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(nearest_rank_sorted(v, 1.0), 3.0);
}

TEST(Percentile, P999SnapsExactRanksAtScale) {
  // 0.999 * 1000 is exactly 999 in IEEE arithmetic; the rank must land on
  // the 999th element, not round up to the maximum via a ceil of
  // 999.0000000000001-style noise. Same for 0.99 * 100.
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(nearest_rank_sorted(v, 0.999), 999.0);
  EXPECT_DOUBLE_EQ(nearest_rank_sorted(v, 0.99), 990.0);
  EXPECT_DOUBLE_EQ(nearest_rank_sorted(v, 0.50), 500.0);
}

TEST(Percentile, TinySamplesCollapseTailPercentiles) {
  // With a handful of samples p99 == p999 == max: the tail ranks all
  // round up to the last element instead of extrapolating.
  const std::vector<double> v{1.0, 5.0, 9.0};
  EXPECT_DOUBLE_EQ(nearest_rank_sorted(v, 0.99), 9.0);
  EXPECT_DOUBLE_EQ(nearest_rank_sorted(v, 0.999), 9.0);
  EXPECT_DOUBLE_EQ(nearest_rank_sorted(v, 1.0), 9.0);
  const std::vector<double> one{7.0};
  EXPECT_DOUBLE_EQ(nearest_rank_sorted(one, 0.999), 7.0);
}

TEST(Percentile, FractionalRankInterpolates) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0};
  // Hyndman-Fan type 7: h = p * (n - 1).
  EXPECT_DOUBLE_EQ(fractional_rank_sorted(v, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(fractional_rank_sorted(v, 0.25), 17.5);
  EXPECT_DOUBLE_EQ(fractional_rank_sorted(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(fractional_rank_sorted(v, 1.0), 40.0);
  // Out-of-range p clamps, empty input is 0 — mirrors nearest-rank.
  EXPECT_DOUBLE_EQ(fractional_rank_sorted(v, -0.5), 10.0);
  EXPECT_DOUBLE_EQ(fractional_rank_sorted(v, 1.5), 40.0);
  EXPECT_DOUBLE_EQ(fractional_rank_sorted({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(fractional_rank_sorted({3.0}, 0.7), 3.0);
}

TEST(ThroughputMeter, BinsAndRates) {
  ThroughputMeter m(sim::millis(20));
  m.add(sim::millis(5), 1000);
  m.add(sim::millis(15), 1000);
  m.add(sim::millis(25), 500);
  const auto series = m.series(0, sim::millis(60));
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[0].bytes, 2000u);
  EXPECT_EQ(series[1].bytes, 500u);
  EXPECT_EQ(series[2].bytes, 0u);
  EXPECT_DOUBLE_EQ(series[0].mbps, 2000 * 8.0 / (0.020 * 1e6));
  EXPECT_EQ(m.total_bytes(), 2500u);
}

TEST(ThroughputMeter, MeanRate) {
  ThroughputMeter m(sim::millis(10));
  for (int i = 0; i < 100; ++i) {
    m.add(sim::millis(i), 1250);  // 1250 B/ms = 10 Mbps
  }
  EXPECT_NEAR(m.mean_mbps(0, sim::millis(100)), 10.0, 0.01);
}

TEST(ThroughputMeter, RejectsBadInput) {
  EXPECT_THROW(ThroughputMeter(0), std::invalid_argument);
  ThroughputMeter m;
  EXPECT_THROW(m.add(-1, 10), std::invalid_argument);
}

TEST(FlowMetrics, FindsFailureGap) {
  std::vector<sim::Time> arrivals;
  for (int i = 0; i < 100; ++i) arrivals.push_back(sim::micros(100 * i));
  // Outage: 60 ms silence starting near 10 ms.
  const sim::Time resume = sim::micros(9900) + sim::millis(60);
  for (int i = 0; i < 50; ++i) {
    arrivals.push_back(resume + sim::micros(100 * i));
  }
  const auto loss = find_connectivity_loss(arrivals, sim::millis(10));
  ASSERT_TRUE(loss.has_value());
  EXPECT_EQ(loss->duration(), sim::millis(60));
}

TEST(FlowMetrics, IgnoresGapsBeforeFailure) {
  std::vector<sim::Time> arrivals{0, sim::millis(50), sim::millis(51),
                                  sim::millis(52), sim::millis(120)};
  // Gap 0->50ms is before the failure at 51ms; gap 52->120 is the one.
  const auto loss = find_connectivity_loss(arrivals, sim::millis(51));
  ASSERT_TRUE(loss.has_value());
  EXPECT_EQ(loss->gap_start, sim::millis(52));
  EXPECT_EQ(loss->gap_end, sim::millis(120));
}

TEST(FlowMetrics, NoGapReturnsNullopt) {
  std::vector<sim::Time> arrivals;
  for (int i = 0; i < 1000; ++i) arrivals.push_back(sim::micros(100 * i));
  EXPECT_FALSE(
      find_connectivity_loss(arrivals, sim::millis(10)).has_value());
}

TEST(FlowMetrics, RejectsUnsortedArrivals) {
  std::vector<sim::Time> arrivals{10, 5};
  EXPECT_THROW(find_connectivity_loss(arrivals, 0), std::invalid_argument);
}

TEST(FlowMetrics, CollapseDurationCountsLowBins) {
  ThroughputMeter m(sim::millis(20));
  // Baseline 100..380ms at ~10 Mbps.
  for (sim::Time t = 0; t < sim::millis(380); t += sim::millis(1)) {
    m.add(t, 1250);
  }
  // Collapse: nothing until 600 ms, then recovery.
  for (sim::Time t = sim::millis(600); t < sim::seconds(1);
       t += sim::millis(1)) {
    m.add(t, 1250);
  }
  const auto collapse = throughput_collapse_duration(
      m, sim::millis(100), sim::millis(380), sim::seconds(1));
  EXPECT_GE(collapse, sim::millis(200));
  EXPECT_LE(collapse, sim::millis(240));
}

TEST(FlowMetrics, PacketsLost) {
  EXPECT_EQ(packets_lost(100, 60), 40u);
  EXPECT_EQ(packets_lost(60, 100), 0u);
}

// ------------------------------------------------------------ SLO rollup

TEST(FlowMetrics, ComputeSloSplitsDeadlineMissesByWindow) {
  using sim::millis;
  std::vector<FlowSample> flows;
  // Completed before the window, met its deadline, slowdown 2.
  flows.push_back({millis(0), millis(10), 1000, millis(5), millis(20)});
  // Started in-window, completed past its deadline.
  flows.push_back({millis(120), millis(180), 1000, millis(30), millis(50)});
  // Started in-window, still open at the horizon, deadline long expired.
  flows.push_back({millis(150), sim::kNever, 1000, millis(30), millis(50)});
  // Started after the window, comfortably met its deadline, slowdown 1.
  flows.push_back({millis(300), millis(320), 1000, millis(20), millis(50)});
  // Open at the horizon with its deadline still live: proves nothing,
  // excluded from the deadline split (but counted as a flow).
  flows.push_back({millis(990), sim::kNever, 1000, millis(20), millis(50)});

  const SloSummary s =
      compute_slo(flows, millis(100), millis(200), millis(1000));
  EXPECT_EQ(s.flows, 5u);
  EXPECT_EQ(s.completed, 3u);
  // Completed FCTs sorted: 10, 20, 60 ms.
  EXPECT_DOUBLE_EQ(s.fct_ms_p50, 20.0);
  EXPECT_DOUBLE_EQ(s.fct_ms_p99, 60.0);
  EXPECT_DOUBLE_EQ(s.fct_ms_p999, 60.0);
  EXPECT_DOUBLE_EQ(s.fct_ms_max, 60.0);
  // Slowdowns sorted: 1, 2, 2 — fractional rank at p50 is the middle.
  EXPECT_DOUBLE_EQ(s.slowdown_p50, 2.0);
  EXPECT_EQ(s.deadline_flows_in_window, 2u);
  EXPECT_EQ(s.deadline_flows_out_window, 2u);
  EXPECT_DOUBLE_EQ(s.miss_in_window, 1.0);
  EXPECT_DOUBLE_EQ(s.miss_out_window, 0.0);
}

TEST(FlowMetrics, ComputeSloEmptyAndBestEffort) {
  EXPECT_EQ(compute_slo({}, 0, 0, sim::seconds(1)).flows, 0u);
  // deadline == 0 means best-effort: no deadline accounting at all.
  std::vector<FlowSample> flows;
  flows.push_back({0, sim::millis(10), 1000, sim::millis(10), 0});
  const SloSummary s = compute_slo(flows, 0, 0, sim::seconds(1));
  EXPECT_EQ(s.deadline_flows_in_window, 0u);
  EXPECT_EQ(s.deadline_flows_out_window, 0u);
  EXPECT_DOUBLE_EQ(s.miss_in_window, 0.0);
  EXPECT_DOUBLE_EQ(s.slowdown_p50, 1.0);
}

TEST(Cdf, QuantilesAndTails) {
  Cdf cdf;
  for (int i = 1; i <= 100; ++i) cdf.add(i);
  EXPECT_EQ(cdf.count(), 100u);
  EXPECT_DOUBLE_EQ(cdf.min(), 1);
  EXPECT_DOUBLE_EQ(cdf.max(), 100);
  EXPECT_NEAR(cdf.quantile(0.5), 50, 1.0);
  EXPECT_NEAR(cdf.quantile(0.99), 99, 1.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_above(90), 0.10);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(90), 0.90);
  EXPECT_NEAR(cdf.mean(), 50.5, 1e-9);
}

TEST(Cdf, TailPoints) {
  Cdf cdf;
  for (int i = 1; i <= 1000; ++i) cdf.add(i);
  const auto points = cdf.tail_points(900, 10);
  ASSERT_FALSE(points.empty());
  EXPECT_GT(points.front().value, 900);
  EXPECT_DOUBLE_EQ(points.back().value, 1000);
  EXPECT_DOUBLE_EQ(points.back().cumulative, 1.0);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].cumulative, points[i - 1].cumulative);
  }
}

TEST(Cdf, EmptyBehaviour) {
  Cdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_EQ(cdf.fraction_above(5), 0.0);
  EXPECT_THROW(cdf.quantile(0.5), std::logic_error);
  EXPECT_THROW(cdf.min(), std::logic_error);
  cdf.add(1);
  EXPECT_THROW(cdf.quantile(1.5), std::invalid_argument);
}

TEST(Table, FormatsAligned) {
  Table t({"name", "value"});
  t.row({"fat tree", "272.8"});
  t.row({"f2tree", "60.6"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| fat tree | 272.8 |"), std::string::npos);
  EXPECT_NE(s.find("| f2tree   | 60.6  |"), std::string::npos);
}

TEST(Table, RejectsBadRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::percent(0.9625, 2), "96.25%");
}

// --------------------------------------------------- shared lognormal draws
//
// TcpWorkload's log-normal arrival gaps and failure/random_failures.cpp
// draw their intervals through sim::lognormal_interval. The helper must
// reproduce the direct draw sequence bit-for-bit — otherwise
// consolidating the call sites would silently shift every seeded
// workload and failure schedule.

TEST(LognormalHelpers, IntervalPinsDirectDrawSequence) {
  sim::Random helper(42);
  sim::Random direct(42);
  for (int i = 0; i < 64; ++i) {
    const sim::Time expected = std::max<sim::Time>(
        sim::from_seconds(direct.lognormal_median(0.05, 1.3)),
        sim::millis(1));
    EXPECT_EQ(sim::lognormal_interval(helper, 0.05, 1.3, sim::millis(1)),
              expected);
  }
}

TEST(TimeSeriesBasics, MeanAndDownsample) {
  TimeSeries ts;
  for (int i = 0; i < 100; ++i) ts.add(sim::millis(i), i < 50 ? 100 : 200);
  EXPECT_DOUBLE_EQ(ts.mean(0, sim::millis(50)), 100);
  EXPECT_DOUBLE_EQ(ts.mean(sim::millis(50), sim::millis(100)), 200);
  const auto ds = ts.downsample(10);
  EXPECT_LE(ds.size(), 10u);
  EXPECT_FALSE(ds.empty());
}

}  // namespace
}  // namespace f2t::stats
