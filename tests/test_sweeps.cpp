#include <gtest/gtest.h>

#include "core/f2tree.hpp"

namespace f2t {
namespace {

/// Runs the C1 UDP experiment and returns the connectivity loss.
sim::Time c1_loss(const core::Testbed::TopoBuilder& builder,
                  const core::TestbedConfig& config = {}) {
  core::Testbed bed(builder, config);
  bed.converge();
  const auto plan =
      failure::build_condition(bed.topo(), failure::Condition::kC1);
  if (!plan) {
    ADD_FAILURE() << "no C1 plan";
    return -1;
  }
  transport::UdpSink sink(bed.stack_of(*plan->dst), plan->dport);
  transport::UdpCbrSender::Options so;
  so.sport = plan->sport;
  so.dport = plan->dport;
  so.stop = sim::seconds(2);
  transport::UdpCbrSender sender(bed.stack_of(*plan->src), plan->dst->addr(),
                                 so);
  sender.start();
  for (net::Link* link : plan->fail_links) {
    bed.injector().fail_at(*link, sim::millis(380));
  }
  bed.sim().run(sim::seconds(3));
  std::vector<sim::Time> arrivals;
  for (const auto& a : sink.arrivals()) arrivals.push_back(a.at);
  const auto loss = stats::find_connectivity_loss(arrivals, sim::millis(380));
  return loss ? loss->duration() : 0;
}

// --- recovery scales with port count --------------------------------------

class PortSweep : public ::testing::TestWithParam<int> {};

TEST_P(PortSweep, FatTreeIsControlPlaneBound) {
  const int ports = GetParam();
  const auto loss = c1_loss([ports](net::Network& n) {
    return topo::build_fat_tree(n, topo::FatTreeOptions{.ports = ports});
  });
  EXPECT_GE(loss, sim::millis(260)) << "ports=" << ports;
  EXPECT_LE(loss, sim::millis(290)) << "ports=" << ports;
}

TEST_P(PortSweep, F2TreeIsDetectionBound) {
  const int ports = GetParam();
  const auto loss = c1_loss(
      [ports](net::Network& n) { return topo::build_f2tree(n, ports); });
  EXPECT_GE(loss, sim::millis(55)) << "ports=" << ports;
  EXPECT_LE(loss, sim::millis(70)) << "ports=" << ports;
}

INSTANTIATE_TEST_SUITE_P(Ports, PortSweep, ::testing::Values(4, 6, 8, 10),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string name = "n";
                           name += std::to_string(info.param);
                           return name;
                         });

// --- recovery tracks the detection delay -----------------------------------

class DetectionSweep : public ::testing::TestWithParam<int> {};

TEST_P(DetectionSweep, F2TreeLossEqualsDetectionDelay) {
  const sim::Time detection = sim::millis(GetParam());
  core::TestbedConfig config;
  config.detection.down_delay = detection;
  config.detection.up_delay = detection;
  const auto loss = c1_loss(
      [](net::Network& n) { return topo::build_f2tree(n, 8); }, config);
  // Fast reroute waits only for detection (+ sub-ms forwarding).
  EXPECT_GE(loss, detection);
  EXPECT_LE(loss, detection + sim::millis(5));
}

INSTANTIATE_TEST_SUITE_P(Delays, DetectionSweep,
                         ::testing::Values(10, 30, 60, 120),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "ms" + std::to_string(info.param);
                         });

// --- the Table I scaled geometry also fast-reroutes ------------------------

TEST(ScaledF2Tree, C1RecoveryIsDetectionBound) {
  const auto loss = c1_loss([](net::Network& n) {
    return topo::build_f2tree_scaled(n, topo::F2TreeScaledOptions{8, -1});
  });
  EXPECT_GE(loss, sim::millis(55));
  EXPECT_LE(loss, sim::millis(70));
}

// --- the §V variants fast-reroute too ---------------------------------------

TEST(OtherTopologies, LeafSpineF2IsDetectionBound) {
  // The generic C1 machinery expects a 3-tier pod structure; Leaf-Spine
  // failures are exercised via a direct downward-link cut (as in
  // bench_fig7): spine -> leaf on the traced path.
  core::Testbed bed([](net::Network& n) {
    return topo::build_leaf_spine(
        n, topo::LeafSpineOptions{.ports = 8, .f2_rewire = true});
  });
  bed.converge();
  auto& topo = bed.topo();
  const net::Host* src = topo.hosts.front();
  const net::Host* dst = topo.hosts.back();
  net::Packet probe;
  probe.src = src->addr();
  probe.dst = dst->addr();
  probe.sport = 31000;
  probe.dport = 9000;
  const auto path = failure::trace_route(*src, *dst, probe);
  ASSERT_EQ(path.size(), 5u);  // host leaf spine leaf host
  auto* spine = const_cast<net::L3Switch*>(
      dynamic_cast<const net::L3Switch*>(path[2]));
  auto* leaf = const_cast<net::L3Switch*>(
      dynamic_cast<const net::L3Switch*>(path[3]));
  net::Link* link = bed.network().find_link(*spine, *leaf);
  ASSERT_NE(link, nullptr);

  transport::UdpSink sink(bed.stack_of(*dst), 9000);
  transport::UdpCbrSender::Options so;
  so.sport = 31000;
  so.stop = sim::seconds(2);
  transport::UdpCbrSender sender(bed.stack_of(*src), dst->addr(), so);
  sender.start();
  bed.injector().fail_at(*link, sim::millis(380));
  bed.sim().run(sim::seconds(3));

  std::vector<sim::Time> arrivals;
  for (const auto& a : sink.arrivals()) arrivals.push_back(a.at);
  const auto loss = stats::find_connectivity_loss(arrivals, sim::millis(380));
  ASSERT_TRUE(loss.has_value());
  EXPECT_LE(loss->duration(), sim::millis(70));
}

TEST(OtherTopologies, Vl2F2IsDetectionBound) {
  core::Testbed bed([](net::Network& n) {
    return topo::build_vl2(n, topo::Vl2Options{.ports = 8, .f2_rewire = true});
  });
  bed.converge();
  auto& topo = bed.topo();
  const net::Host* src = topo.hosts.front();
  const net::Host* dst = topo.hosts.back();
  net::Packet probe;
  probe.src = src->addr();
  probe.dst = dst->addr();
  probe.sport = 32000;
  probe.dport = 9000;
  const auto path = failure::trace_route(*src, *dst, probe);
  ASSERT_GE(path.size(), 5u);
  auto* agg = const_cast<net::L3Switch*>(
      dynamic_cast<const net::L3Switch*>(path[path.size() - 3]));
  auto* tor = const_cast<net::L3Switch*>(
      dynamic_cast<const net::L3Switch*>(path[path.size() - 2]));
  net::Link* link = bed.network().find_link(*agg, *tor);
  ASSERT_NE(link, nullptr);

  transport::UdpSink sink(bed.stack_of(*dst), 9000);
  transport::UdpCbrSender::Options so;
  so.sport = 32000;
  so.stop = sim::seconds(2);
  transport::UdpCbrSender sender(bed.stack_of(*src), dst->addr(), so);
  sender.start();
  bed.injector().fail_at(*link, sim::millis(380));
  bed.sim().run(sim::seconds(3));

  std::vector<sim::Time> arrivals;
  for (const auto& a : sink.arrivals()) arrivals.push_back(a.at);
  const auto loss = stats::find_connectivity_loss(arrivals, sim::millis(380));
  ASSERT_TRUE(loss.has_value());
  EXPECT_LE(loss->duration(), sim::millis(70));
}

// --- ring width 4 handles C7 (§II-C closing remark) -------------------------

TEST(RingWidth, Width4SurvivesC7) {
  core::Testbed bed(
      [](net::Network& n) { return topo::build_f2tree(n, 8, 4); });
  bed.converge();
  const auto plan =
      failure::build_condition(bed.topo(), failure::Condition::kC7);
  ASSERT_TRUE(plan.has_value());
  transport::UdpSink sink(bed.stack_of(*plan->dst), plan->dport);
  transport::UdpCbrSender::Options so;
  so.sport = plan->sport;
  so.dport = plan->dport;
  so.stop = sim::seconds(2);
  transport::UdpCbrSender sender(bed.stack_of(*plan->src), plan->dst->addr(),
                                 so);
  sender.start();
  for (net::Link* link : plan->fail_links) {
    bed.injector().fail_at(*link, sim::millis(380));
  }
  bed.sim().run(sim::seconds(3));
  std::vector<sim::Time> arrivals;
  for (const auto& a : sink.arrivals()) arrivals.push_back(a.at);
  const auto loss = stats::find_connectivity_loss(arrivals, sim::millis(380));
  ASSERT_TRUE(loss.has_value());
  EXPECT_LE(loss->duration(), sim::millis(70));
}

}  // namespace
}  // namespace f2t
