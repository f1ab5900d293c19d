#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "core/runner.hpp"
#include "transport/fluid.hpp"

namespace f2t {
namespace {

// ---------------------------------------------------------------------------
// FluidFlowTable: max-min water-filling over directed channels.

TEST(FluidFlowTable, SingleFlowTakesBottleneck) {
  transport::FluidFlowTable table(4, 10e9);
  table.set_capacity(2, 1e9);
  const auto f = table.add_flow({0, 2, 3});
  EXPECT_DOUBLE_EQ(table.rate_of(f), 1e9);
}

TEST(FluidFlowTable, DemandCeilingCaps) {
  transport::FluidFlowTable table(2, 10e9);
  const auto f = table.add_flow({0}, 50e6);
  EXPECT_DOUBLE_EQ(table.rate_of(f), 50e6);
}

TEST(FluidFlowTable, ClassicMaxMinSplit) {
  // Two flows share channel 0 (cap 10); one continues onto channel 1
  // (cap 3). Max-min: the constrained flow gets 3, the other fills the
  // remaining 7.
  transport::FluidFlowTable table(2, 10.0);
  table.set_capacity(1, 3.0);
  const auto a = table.add_flow({0, 1});
  const auto b = table.add_flow({0});
  EXPECT_DOUBLE_EQ(table.rate_of(a), 3.0);
  EXPECT_DOUBLE_EQ(table.rate_of(b), 7.0);
}

TEST(FluidFlowTable, EqualSplitOnSharedChannel) {
  transport::FluidFlowTable table(1, 9.0);
  const auto a = table.add_flow({0});
  const auto b = table.add_flow({0});
  const auto c = table.add_flow({0});
  EXPECT_DOUBLE_EQ(table.rate_of(a), 3.0);
  EXPECT_DOUBLE_EQ(table.rate_of(b), 3.0);
  EXPECT_DOUBLE_EQ(table.rate_of(c), 3.0);
}

TEST(FluidFlowTable, EmptyPathMeansUnrouted) {
  transport::FluidFlowTable table(2, 10.0);
  const auto f = table.add_flow({});
  EXPECT_DOUBLE_EQ(table.rate_of(f), 0.0);
  table.set_path(f, {1});
  EXPECT_DOUBLE_EQ(table.rate_of(f), 10.0);
}

TEST(FluidFlowTable, RemoveReleasesCapacity) {
  transport::FluidFlowTable table(1, 8.0);
  const auto a = table.add_flow({0});
  const auto b = table.add_flow({0});
  EXPECT_DOUBLE_EQ(table.rate_of(a), 4.0);
  table.remove_flow(b);
  EXPECT_DOUBLE_EQ(table.rate_of(a), 8.0);
  EXPECT_EQ(table.flow_count(), 1u);
}

TEST(FluidFlowTable, SolvesAreLazy) {
  transport::FluidFlowTable table(1, 8.0);
  const auto a = table.add_flow({0});
  table.set_demand(a, 2.0);
  table.set_demand(a, 4.0);
  EXPECT_EQ(table.solve_count(), 0u);  // nothing queried yet
  EXPECT_DOUBLE_EQ(table.rate_of(a), 4.0);
  EXPECT_DOUBLE_EQ(table.rate_of(a), 4.0);
  EXPECT_EQ(table.solve_count(), 1u);  // clean queries don't re-solve
}

// ---------------------------------------------------------------------------
// Fluid runner restrictions: per-packet physics must refuse loudly.

core::RunKnobs flow_knobs() {
  core::RunKnobs knobs;
  knobs.fidelity = core::Fidelity::kFlow;
  knobs.horizon = sim::millis(900);
  return knobs;
}

TEST(FluidRunner, RefusesGrayFaults) {
  auto knobs = flow_knobs();
  knobs.fault.kind = failure::FaultKind::kGray;
  knobs.fault.gray_loss = 0.5;
  const auto builder = core::topology_builder("f2", 8);
  EXPECT_THROW(
      core::run_udp_condition(builder, failure::Condition::kC1, knobs),
      std::invalid_argument);
}

TEST(FluidRunner, RefusesProbeDetection) {
  auto knobs = flow_knobs();
  knobs.config.detection.mode = routing::DetectionMode::kProbe;
  const auto builder = core::topology_builder("f2", 8);
  EXPECT_THROW(
      core::run_udp_condition(builder, failure::Condition::kC1, knobs),
      std::invalid_argument);
}

TEST(FluidRunner, RefusesTcp) {
  auto knobs = flow_knobs();
  const auto builder = core::topology_builder("f2", 8);
  EXPECT_THROW(
      core::run_tcp_condition(builder, failure::Condition::kC1, knobs),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// FluidProbe end-to-end sanity (exhaustive window equality lives in
// test_fidelity_property.cpp).

TEST(FluidRunner, NoFailureDeliversEverySend) {
  // Push the fault past the horizon: the probe sees one unbroken regime
  // and every send must arrive, exactly as in packet mode.
  core::RunKnobs knobs;
  knobs.horizon = sim::millis(700);
  knobs.fail_at = sim::seconds(30);
  knobs.config.control_plane = core::ControlPlane::kCentral;
  const auto builder = core::topology_builder("f2", 8);

  auto packet = core::run_udp_condition(builder, failure::Condition::kC1,
                                        knobs);
  knobs.fidelity = core::Fidelity::kFlow;
  auto flow = core::run_udp_condition(builder, failure::Condition::kC1, knobs);

  ASSERT_TRUE(packet.ok);
  ASSERT_TRUE(flow.ok);
  EXPECT_EQ(flow.packets_sent, packet.packets_sent);
  EXPECT_EQ(flow.packets_lost, 0u);
  EXPECT_EQ(packet.packets_lost, 0u);
  EXPECT_EQ(flow.connectivity_loss, packet.connectivity_loss);
  // Delivered series agree point-for-point.
  ASSERT_EQ(flow.delay_series.points().size(),
            packet.delay_series.points().size());
  for (std::size_t i = 0; i < flow.delay_series.points().size(); ++i) {
    EXPECT_EQ(flow.delay_series.points()[i].at,
              packet.delay_series.points()[i].at);
    EXPECT_DOUBLE_EQ(flow.delay_series.points()[i].value,
                     packet.delay_series.points()[i].value);
  }
}

TEST(FluidRunner, FlowModeExecutesFarFewerEvents) {
  core::RunKnobs knobs;
  knobs.horizon = sim::millis(900);
  knobs.config.control_plane = core::ControlPlane::kCentral;
  const auto builder = core::topology_builder("f2", 8);

  const auto packet =
      core::run_udp_condition(builder, failure::Condition::kC1, knobs);
  knobs.fidelity = core::Fidelity::kFlow;
  const auto flow =
      core::run_udp_condition(builder, failure::Condition::kC1, knobs);
  ASSERT_TRUE(packet.ok);
  ASSERT_TRUE(flow.ok);
  // The whole point: no per-packet events on the fluid path.
  EXPECT_LT(flow.observation.profile.events_executed * 10,
            packet.observation.profile.events_executed);
}

/// The sampled probe rate is the probe's CBR demand while the routing
/// state delivers it and 0 while it does not. A fat tree has no backup
/// route for C1, so under OSPF the path ends in no route from detection
/// until the SPF install: zeros, all inside the connectivity gap.
TEST(FluidRunner, SampledProbeRateIsDemandOrZero) {
  auto knobs = flow_knobs();
  knobs.config.sample_interval = sim::millis(5);
  const auto r = core::run_udp_condition(core::topology_builder("fat", 8),
                                         failure::Condition::kC1, knobs);
  ASSERT_TRUE(r.ok);
  const auto& samples = r.observation.samples;
  const auto column = std::find(samples.series.begin(), samples.series.end(),
                                "fluid.probe_rate_bps");
  ASSERT_NE(column, samples.series.end());
  const auto c = static_cast<std::size_t>(column - samples.series.begin());
  const transport::FluidProbe::Options probe;
  const double demand =
      static_cast<double>(probe.payload_bytes + net::kUdpHeaderBytes) * 8.0 /
      sim::to_seconds(probe.interval);
  const sim::Time gap_end = knobs.fail_at + r.connectivity_loss;
  std::size_t zeros = 0;
  for (const auto& row : samples.rows) {
    const double rate = row.values[c];
    if (rate == 0.0 && row.at >= knobs.fail_at && row.at <= gap_end) {
      ++zeros;
    } else {
      EXPECT_EQ(rate, demand) << "at " << row.at;
    }
  }
  EXPECT_GT(zeros, 0u);
}

}  // namespace
}  // namespace f2t
