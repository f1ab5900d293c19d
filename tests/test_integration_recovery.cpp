#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "core/cli.hpp"
#include "core/f2tree.hpp"
#include "core/runner.hpp"
#include "exec/campaign.hpp"

namespace f2t {
namespace {

using core::Testbed;
using failure::Condition;

/// Runs the paper's testbed experiment (§III): a CBR UDP probe through a
/// single downward ToR<->agg link failure, returning the measured
/// connectivity-loss duration.
struct UdpRunResult {
  sim::Time loss = 0;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  bool gap_found = false;
};

UdpRunResult run_udp_failure(const Testbed::TopoBuilder& builder,
                             Condition condition,
                             sim::Time fail_at = sim::millis(380),
                             sim::Time horizon = sim::seconds(3)) {
  Testbed bed(builder);
  bed.converge();
  auto plan = failure::build_condition(bed.topo(), condition);
  if (!plan) {
    ADD_FAILURE() << "could not build scenario "
                  << failure::condition_name(condition);
    return {};
  }

  auto& src_stack = bed.stack_of(*plan->src);
  auto& dst_stack = bed.stack_of(*plan->dst);
  transport::UdpSink sink(dst_stack, plan->dport);
  transport::UdpCbrSender::Options opts;
  opts.sport = plan->sport;
  opts.dport = plan->dport;
  opts.stop = horizon - sim::millis(200);
  transport::UdpCbrSender sender(src_stack, plan->dst->addr(), opts);
  sender.start();

  for (net::Link* link : plan->fail_links) {
    bed.injector().fail_at(*link, fail_at);
  }
  bed.sim().run(horizon);

  UdpRunResult result;
  result.sent = sender.packets_sent();
  result.received = sink.packets_received();
  std::vector<sim::Time> arrivals;
  arrivals.reserve(sink.arrivals().size());
  for (const auto& a : sink.arrivals()) arrivals.push_back(a.at);
  const auto loss = stats::find_connectivity_loss(arrivals, fail_at);
  result.gap_found = loss.has_value();
  if (loss) result.loss = loss->duration();
  return result;
}

Testbed::TopoBuilder fat4 = [](net::Network& n) {
  return topo::build_fat_tree(n, topo::FatTreeOptions{.ports = 4});
};
Testbed::TopoBuilder f2_4 = [](net::Network& n) {
  return topo::build_f2tree(n, 4);
};
Testbed::TopoBuilder fat8 = [](net::Network& n) {
  return topo::build_fat_tree(n, topo::FatTreeOptions{.ports = 8});
};
Testbed::TopoBuilder f2_8 = [](net::Network& n) {
  return topo::build_f2tree(n, 8);
};

TEST(Recovery, FatTreeLossMatchesControlPlaneAnatomy) {
  // Table III: ~272 ms = 60 ms detection + LSA propagation + 200 ms SPF
  // timer + 10 ms FIB update.
  const auto r = run_udp_failure(fat4, Condition::kC1);
  ASSERT_TRUE(r.gap_found);
  EXPECT_GE(r.loss, sim::millis(265));
  EXPECT_LE(r.loss, sim::millis(290));
  EXPECT_GT(r.sent, 0u);
}

TEST(Recovery, F2TreeLossIsDetectionBound) {
  // Table III: ~60 ms, pure failure-detection time.
  const auto r = run_udp_failure(f2_4, Condition::kC1);
  ASSERT_TRUE(r.gap_found);
  EXPECT_GE(r.loss, sim::millis(58));
  EXPECT_LE(r.loss, sim::millis(70));
}

TEST(Recovery, F2TreeReducesLossByRoughly78Percent) {
  const auto fat = run_udp_failure(fat4, Condition::kC1);
  const auto f2 = run_udp_failure(f2_4, Condition::kC1);
  ASSERT_TRUE(fat.gap_found);
  ASSERT_TRUE(f2.gap_found);
  const double reduction =
      1.0 - sim::to_seconds(f2.loss) / sim::to_seconds(fat.loss);
  EXPECT_NEAR(reduction, 0.78, 0.05);
}

TEST(Recovery, F2TreePacketLossReducedByRoughly75Percent) {
  const auto fat = run_udp_failure(fat4, Condition::kC1);
  const auto f2 = run_udp_failure(f2_4, Condition::kC1);
  const auto fat_lost = stats::packets_lost(fat.sent, fat.received);
  const auto f2_lost = stats::packets_lost(f2.sent, f2.received);
  ASSERT_GT(fat_lost, 0u);
  const double reduction = 1.0 - static_cast<double>(f2_lost) /
                                     static_cast<double>(fat_lost);
  EXPECT_NEAR(reduction, 0.75, 0.07);
}

TEST(Recovery, EmulationScaleC1) {
  const auto fat = run_udp_failure(fat8, Condition::kC1);
  const auto f2 = run_udp_failure(f2_8, Condition::kC1);
  ASSERT_TRUE(fat.gap_found);
  ASSERT_TRUE(f2.gap_found);
  EXPECT_GE(fat.loss, sim::millis(260));
  EXPECT_LE(f2.loss, sim::millis(70));
}

TEST(Recovery, C2CoreLinkFailureRecoversViaCoreRing) {
  const auto f2 = run_udp_failure(f2_8, Condition::kC2);
  ASSERT_TRUE(f2.gap_found);
  EXPECT_LE(f2.loss, sim::millis(70));
  const auto fat = run_udp_failure(fat8, Condition::kC2);
  ASSERT_TRUE(fat.gap_found);
  EXPECT_GE(fat.loss, sim::millis(250));
}

TEST(Recovery, C4TwoAdjacentDownlinksRelayRightward) {
  const auto f2 = run_udp_failure(f2_8, Condition::kC4);
  ASSERT_TRUE(f2.gap_found);
  EXPECT_LE(f2.loss, sim::millis(70));
}

TEST(Recovery, C6RightAcrossDeadFallsBackLeft) {
  const auto f2 = run_udp_failure(f2_8, Condition::kC6);
  ASSERT_TRUE(f2.gap_found);
  EXPECT_LE(f2.loss, sim::millis(70));
}

TEST(Recovery, C7DegradesToFatTreeBehaviour) {
  // Fourth failure condition of §II-C: fast reroute fails, recovery waits
  // for the control plane.
  const auto f2 = run_udp_failure(f2_8, Condition::kC7);
  ASSERT_TRUE(f2.gap_found);
  EXPECT_GE(f2.loss, sim::millis(200));
}

/// The headline runs exactly as `f2tsim recover --ports 8` runs them with
/// its defaults (C1, seed 1): the settings come from recover's flags
/// through the shared reader and exec::run_knobs, as in the CLI. The loss
/// window in ns and the packets lost are the numbers the CLI prints
/// (60.12 ms, 270.4 ms, 114.1 ms), so a change that moves one has changed
/// behaviour.
TEST(Recovery, HeadlineRunsArePinned) {
  struct Pin {
    const char* topo;
    const char* control;
    const char* fidelity;
    sim::Time loss;
    std::uint64_t lost;
  };
  const Pin pins[] = {
      {"f2", "ospf", "packet", 60'116'920, 600},
      {"fat", "ospf", "packet", 270'357'680, 2'700},
      {"fat", "central", "packet", 114'100'000, 1'140},
      {"fat", "central", "flow", 114'100'000, 1'140},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(std::string(pin.topo) + " " + pin.control + " " +
                 pin.fidelity);
    const char* argv[] = {"f2tsim",    "recover", "--ports",   "8",
                          "--topo",    pin.topo,  "--control", pin.control,
                          "--fidelity", pin.fidelity};
    core::Cli cli(static_cast<int>(std::size(argv)), argv);
    const auto spec = core::CampaignSpec::from_recover_flags(cli);
    ASSERT_TRUE(cli.unknown_keys().empty());
    const auto& axis = spec.topologies.front();
    const core::UdpRun run = core::run_udp_condition(
        core::topology_builder(axis.name, axis.ports, axis.ring_width,
                               axis.aspen_f),
        spec.conditions.front(),
        exec::run_knobs(spec, spec.controls.front(), spec.base_seed));
    ASSERT_TRUE(run.ok);
    EXPECT_EQ(run.connectivity_loss, pin.loss);
    EXPECT_EQ(run.packets_lost, pin.lost);
  }
}

}  // namespace
}  // namespace f2t
