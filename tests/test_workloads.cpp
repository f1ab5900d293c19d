#include <gtest/gtest.h>

#include <algorithm>

#include "core/f2tree.hpp"

namespace f2t::transport {
namespace {

core::Testbed make_f2_8() {
  return core::Testbed(
      [](net::Network& n) { return topo::build_f2tree(n, 8); });
}

/// Requests that missed the deadline by `horizon` (stats::compute_slo's
/// rule: finished late, or still open past the deadline).
double miss_ratio(const TcpWorkload& requests, sim::Time horizon) {
  return stats::compute_slo(requests.samples(), 0, 0, horizon)
      .miss_out_window;
}

TEST(PartitionAggregate, AllRequestsCompleteWithoutFailures) {
  auto bed = make_f2_8();
  bed.converge();
  auto opts = WorkloadOptions::fig6_requests();
  opts.stop = sim::seconds(20);
  opts.interarrival = sim::millis(100);
  TcpWorkload requests(bed.stacks(), sim::Random(3), opts);
  requests.start();
  bed.sim().run(sim::seconds(25));

  EXPECT_GT(requests.launched(), 100u);
  EXPECT_EQ(requests.completed(), requests.launched());
  EXPECT_DOUBLE_EQ(miss_ratio(requests, sim::seconds(25)), 0.0);
  // Unloaded completion is a handful of RTTs, far below the deadline.
  sim::Time slowest = 0;
  for (const auto& r : requests.samples()) {
    slowest = std::max(slowest, r.finish - r.start);
  }
  EXPECT_LT(slowest, sim::millis(50));
}

TEST(PartitionAggregate, SingleFailureCausesMissesInFatTreeOnly) {
  // Sustained request load through one long downward-link failure: the
  // fat tree misses deadlines for requests caught in the outage; F²Tree
  // fast-reroutes and (detection being 60 ms < the 250 ms deadline)
  // misses none. This is the Fig 6(a) mechanism in miniature.
  auto run = [](bool f2) {
    core::Testbed bed([f2](net::Network& n) {
      return f2 ? topo::build_f2tree(n, 8)
                : topo::build_fat_tree(n, topo::FatTreeOptions{.ports = 8});
    });
    bed.converge();
    auto opts = WorkloadOptions::fig6_requests();
    opts.stop = sim::seconds(60);
    opts.interarrival = sim::millis(20);
    TcpWorkload requests(bed.stacks(), sim::Random(17), opts);
    requests.start();
    // Flap one agg->ToR downward link repeatedly: each fresh failure
    // reopens the recovery window (~270 ms in fat tree, ~60 ms in F²Tree)
    // that in-flight requests fall into.
    auto& topo = bed.topo();
    net::Link* link =
        bed.network().find_link(*topo.pods[0].aggs[0], *topo.pods[0].tors[0]);
    for (int k = 0; k < 10; ++k) {
      bed.injector().fail_for(*link, sim::seconds(5 + 5 * k),
                              sim::seconds(2));
    }
    bed.sim().run(sim::seconds(70));
    return miss_ratio(requests, sim::seconds(70));
  };

  const double fat_miss = run(false);
  const double f2_miss = run(true);
  EXPECT_GT(fat_miss, 0.0);
  EXPECT_LT(f2_miss, fat_miss);
}

TEST(PartitionAggregate, RejectsTooFewHosts) {
  // TcpWorkload's rule for every kind: fewer than 2 hosts is an error,
  // and a fan-in above hosts - 1 is capped, not rejected.
  sim::Simulator sim(1);
  net::Network net(sim);
  auto& sw = net.add_switch("sw", net::Ipv4Addr(10, 12, 0, 1));
  auto& h1 = net.add_host("h1", net::Ipv4Addr(10, 11, 0, 10), &sw);
  auto& h2 = net.add_host("h2", net::Ipv4Addr(10, 11, 0, 11), &sw);
  HostStack s1(h1);
  HostStack s2(h2);
  EXPECT_THROW(
      TcpWorkload({&s1}, sim::Random(1), WorkloadOptions::fig6_requests()),
      std::invalid_argument);

  auto opts = WorkloadOptions::fig6_requests();
  opts.stop = sim::millis(100);
  TcpWorkload requests({&s1, &s2}, sim::Random(1), opts);
  requests.start();
  sim.run(sim::millis(50));
  ASSERT_GT(requests.launched(), 0u);
  // One worker per request: the answer is 2 KB, not 8 x 2 KB.
  EXPECT_EQ(requests.samples().front().bytes, 2048u);
}

TEST(BackgroundTraffic, FlowsCompleteAndFollowDistribution) {
  auto bed = make_f2_8();
  bed.converge();
  auto opts = WorkloadOptions::fig6_background();
  opts.stop = sim::seconds(30);
  opts.interarrival = sim::millis(100);
  TcpWorkload bg(bed.stacks(), sim::Random(5), opts);
  bg.start();
  bed.sim().run(sim::seconds(60));

  ASSERT_GT(bg.launched(), 100u);
  EXPECT_EQ(bg.completed(), bg.launched());
  // Median of log-normal sizes should be near the configured median.
  std::vector<std::uint64_t> sizes;
  for (const auto& f : bg.samples()) sizes.push_back(f.bytes);
  std::sort(sizes.begin(), sizes.end());
  const double median = static_cast<double>(sizes[sizes.size() / 2]);
  EXPECT_GT(median, 20e3 * 0.6);
  EXPECT_LT(median, 20e3 * 1.7);
}

TEST(BackgroundTraffic, RejectsSingleHost) {
  sim::Simulator sim(1);
  net::Network net(sim);
  auto& sw = net.add_switch("sw", net::Ipv4Addr(10, 12, 0, 1));
  auto& h1 = net.add_host("h1", net::Ipv4Addr(10, 11, 0, 10), &sw);
  HostStack s1(h1);
  EXPECT_THROW(
      TcpWorkload({&s1}, sim::Random(1), WorkloadOptions::fig6_background()),
      std::invalid_argument);
}

}  // namespace
}  // namespace f2t::transport
