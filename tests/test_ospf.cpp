#include <gtest/gtest.h>

#include "core/f2tree.hpp"

namespace f2t::routing {
namespace {

TEST(SpfThrottle, FirstTriggerWaitsInitialDelay) {
  SpfThrottle t;
  EXPECT_EQ(t.schedule(sim::seconds(100)),
            sim::seconds(100) + sim::millis(200));
}

TEST(SpfThrottle, BackoffDoublesUnderChurn) {
  SpfThrottle t;
  sim::Time now = sim::seconds(10);
  sim::Time last = 0;
  std::vector<sim::Time> waits;
  for (int i = 0; i < 8; ++i) {
    const sim::Time when = t.schedule(now);
    t.ran(when);
    waits.push_back(when - now);
    last = when;
    now = when + sim::millis(1);  // immediate re-trigger after each run
  }
  (void)last;
  // Holds double: 200ms, then >= 400ms, ... capped at 10s.
  EXPECT_EQ(waits.front(), sim::millis(200));
  EXPECT_GT(waits.back(), sim::seconds(5));
  for (std::size_t i = 1; i < waits.size(); ++i) {
    EXPECT_GE(waits[i], waits[i - 1]);
  }
}

// Regression: the throttle used to double the hold on *every* trigger,
// even when the triggers coalesced into one pending SPF run — so a burst
// of LSAs from a single failure inflated every later recovery. Cisco-style
// throttling backs off per run: N coalesced triggers cost one doubling.
TEST(SpfThrottle, CoalescedTriggersCostOneDoubling) {
  SpfThrottle t;
  const sim::Time initial = t.config().initial_delay;
  ASSERT_EQ(t.current_hold(), initial);
  // A burst of 16 triggers within one pending run (no ran() in between).
  sim::Time when = 0;
  for (int i = 0; i < 16; ++i) {
    when = t.schedule(sim::seconds(10) + sim::millis(i));
  }
  EXPECT_EQ(t.current_hold(), 2 * initial)
      << "coalesced triggers must not compound the backoff";
  EXPECT_TRUE(t.pending());
  // The run fires; the *next* trigger starts a new run and doubles again.
  t.ran(when);
  EXPECT_FALSE(t.pending());
  t.schedule(when + sim::millis(1));
  EXPECT_EQ(t.current_hold(), 4 * initial);
}

// Coalesced triggers also keep returning a consistent run time: with the
// hold frozen while pending, a trigger burst shortly after a run cannot
// push the next run's scheduled time out run-by-run (the old per-trigger
// doubling walked it from last_run + 400ms all the way to the 10 s cap).
TEST(SpfThrottle, PendingRunTimeDoesNotInflate) {
  SpfThrottle t;
  t.ran(sim::seconds(10));
  sim::Time when = 0;
  for (int i = 1; i <= 16; ++i) {
    when = t.schedule(sim::seconds(10) + sim::millis(i));
  }
  // One doubling: the run lands at last_run + 2 * initial_delay at the
  // latest (the final trigger's own now + initial floor is even earlier).
  EXPECT_LE(when, sim::seconds(10) + 2 * t.config().initial_delay);
}

TEST(SpfThrottle, QuietPeriodResetsBackoff) {
  SpfThrottle t;
  sim::Time now = sim::seconds(1);
  for (int i = 0; i < 5; ++i) {
    const sim::Time when = t.schedule(now);
    t.ran(when);
    now = when + sim::millis(1);
  }
  EXPECT_GT(t.current_hold(), sim::seconds(1));
  // A long quiet period resets the hold to the initial delay.
  now += sim::seconds(100);
  const sim::Time when = t.schedule(now);
  EXPECT_EQ(when, now + sim::millis(200));
}

// The hold is what the next run will cost; the wait is what a run did
// cost. Under churn the longest wait is the figure Fig 6 quotes (~9 s).
TEST(SpfThrottle, LongestWaitTracksTheSlowestScheduledRun) {
  SpfThrottle t;
  EXPECT_EQ(t.longest_wait(), 0);
  sim::Time now = sim::seconds(10);
  sim::Time slowest = 0;
  for (int i = 0; i < 8; ++i) {
    const sim::Time when = t.schedule(now);
    slowest = std::max(slowest, when - now);
    t.ran(when);
    now = when + sim::millis(1);
  }
  EXPECT_EQ(t.longest_wait(), slowest);
  EXPECT_GT(t.longest_wait(), sim::seconds(5));
  // A quiet period resets the hold, not the record of the longest wait.
  const sim::Time when = t.schedule(now + sim::seconds(100));
  EXPECT_EQ(when - (now + sim::seconds(100)), sim::millis(200));
  EXPECT_EQ(t.longest_wait(), slowest);
}

TEST(SpfThrottle, RejectsBadConfig) {
  SpfThrottleConfig bad;
  bad.max_wait = sim::millis(10);  // < initial_delay
  EXPECT_THROW(SpfThrottle{bad}, std::invalid_argument);
}

TEST(Lsdb, NewerSequenceWins) {
  Lsdb db;
  auto v1 = std::make_shared<Lsa>();
  v1->origin = net::Ipv4Addr(10, 12, 0, 1);
  v1->sequence = 1;
  auto v2 = std::make_shared<Lsa>(*v1);
  v2->sequence = 2;
  EXPECT_TRUE(db.consider(v1));
  EXPECT_TRUE(db.consider(v2));
  EXPECT_FALSE(db.consider(v1));  // stale
  EXPECT_EQ(db.sequence_of(v1->origin), 2u);
  EXPECT_EQ(db.size(), 1u);
}

class OspfFixture : public ::testing::Test {
 protected:
  OspfFixture()
      : bed_([](net::Network& n) { return topo::build_f2tree(n, 4); }) {
    bed_.converge();
  }
  core::Testbed bed_;
};

TEST_F(OspfFixture, WarmStartGivesFullLsdbEverywhere) {
  const auto switches = bed_.topo().all_switches();
  for (auto* sw : switches) {
    EXPECT_EQ(bed_.ospf_of(*sw).lsdb().size(), switches.size()) << sw->name();
  }
}

TEST_F(OspfFixture, EveryTorPrefixRoutedEverywhere) {
  for (auto* sw : bed_.topo().all_switches()) {
    for (const auto& [tor, prefix] : bed_.topo().subnet_of_tor) {
      if (tor == sw) continue;
      const auto hops = sw->resolve_next_hops(
          net::Ipv4Addr(prefix.address().value() + 10));
      EXPECT_FALSE(hops.empty()) << sw->name() << " -> " << prefix.str();
    }
  }
}

TEST_F(OspfFixture, UpwardRoutesUseEcmp) {
  // A ToR should have multiple equal-cost next hops to a remote subnet.
  auto* tor = bed_.topo().tors.front();
  const auto& [remote_tor, remote_prefix] = *std::find_if(
      bed_.topo().subnet_of_tor.begin(), bed_.topo().subnet_of_tor.end(),
      [&](const auto& kv) { return kv.first != tor; });
  (void)remote_tor;
  const auto hops = tor->resolve_next_hops(
      net::Ipv4Addr(remote_prefix.address().value() + 10));
  EXPECT_GE(hops.size(), 2u);
}

TEST_F(OspfFixture, LinkFailureFloodsLsasAndReconverges) {
  auto& topo = bed_.topo();
  auto* sx = topo.pods[0].aggs[0];
  auto* tor = topo.pods[0].tors[0];
  net::Link* link = bed_.network().find_link(*sx, *tor);
  ASSERT_NE(link, nullptr);

  const auto before = bed_.total_ospf_counters();
  bed_.injector().fail_at(*link, sim::millis(10));
  bed_.sim().run(sim::seconds(2));
  const auto after = bed_.total_ospf_counters();

  EXPECT_GT(after.lsas_originated, before.lsas_originated);
  EXPECT_GT(after.spf_runs, before.spf_runs);
  // Both endpoints re-originated; every other switch should have accepted
  // the new LSAs.
  const auto& lsdb = bed_.ospf_of(*topo.cores.front()).lsdb();
  EXPECT_GE(lsdb.sequence_of(sx->router_id()), 2u);
  EXPECT_GE(lsdb.sequence_of(tor->router_id()), 2u);

  // Post-convergence, sx routes to the ToR's subnet around the dead link.
  const auto prefix = topo.subnet_of_tor.at(tor);
  const auto hops =
      sx->resolve_next_hops(net::Ipv4Addr(prefix.address().value() + 10));
  ASSERT_FALSE(hops.empty());
  for (const auto& nh : hops) {
    EXPECT_NE(sx->port(nh.port).link, link);
  }
}

TEST_F(OspfFixture, RecoveryRestoresDirectRoute) {
  auto& topo = bed_.topo();
  auto* sx = topo.pods[0].aggs[0];
  auto* tor = topo.pods[0].tors[0];
  net::Link* link = bed_.network().find_link(*sx, *tor);
  bed_.injector().fail_for(*link, sim::millis(10), sim::seconds(2));
  bed_.sim().run(sim::seconds(15));

  const auto prefix = topo.subnet_of_tor.at(tor);
  const auto hops =
      sx->resolve_next_hops(net::Ipv4Addr(prefix.address().value() + 10));
  ASSERT_FALSE(hops.empty());
  // The direct 1-hop route is back.
  bool direct = false;
  for (const auto& nh : hops) {
    if (sx->port(nh.port).link == link) direct = true;
  }
  EXPECT_TRUE(direct);
}

TEST_F(OspfFixture, StaticBackupsSurviveSpfReinstalls) {
  auto* agg = bed_.topo().aggs.front();
  auto* tor = bed_.topo().pods[0].tors[0];
  net::Link* link = bed_.network().find_link(*agg, *tor);
  ASSERT_NE(link, nullptr);
  bed_.injector().fail_for(*link, sim::millis(10), sim::seconds(1));
  bed_.sim().run(sim::seconds(5));
  EXPECT_TRUE(agg->fib()
                  .find(net::Prefix::parse("10.11.0.0/16"),
                        RouteSource::kStatic)
                  .has_value());
  EXPECT_TRUE(agg->fib()
                  .find(net::Prefix::parse("10.10.0.0/15"),
                        RouteSource::kStatic)
                  .has_value());
}

TEST(Detection, FlapWithinWindowIsSuppressed) {
  sim::Simulator sim(1);
  net::Network net(sim);
  auto& a = net.add_switch("a", net::Ipv4Addr(10, 12, 0, 1));
  auto& b = net.add_switch("b", net::Ipv4Addr(10, 12, 1, 1));
  net::Link& link = net.connect_default(a, b);
  DetectionAgent agent(net);
  agent.attach_all();

  int transitions = 0;
  a.add_port_state_handler([&](net::PortId, bool) { ++transitions; });

  sim.at(sim::millis(10), [&] { link.set_up(false); });
  sim.at(sim::millis(30), [&] { link.set_up(true); });  // within 60 ms window
  sim.run(sim::seconds(1));
  EXPECT_EQ(transitions, 0);
  EXPECT_TRUE(a.port_detected_up(0));
}

TEST(Detection, DownDetectedAfterConfiguredDelay) {
  sim::Simulator sim(1);
  net::Network net(sim);
  auto& a = net.add_switch("a", net::Ipv4Addr(10, 12, 0, 1));
  auto& b = net.add_switch("b", net::Ipv4Addr(10, 12, 1, 1));
  net::Link& link = net.connect_default(a, b);
  DetectionAgent agent(net);
  agent.attach_all();

  sim::Time detected_at = -1;
  a.add_port_state_handler([&](net::PortId, bool up) {
    if (!up) detected_at = sim.now();
  });
  sim.at(sim::millis(100), [&] { link.set_up(false); });
  sim.run(sim::seconds(1));
  EXPECT_EQ(detected_at, sim::millis(160));
}

TEST(Ospf, ColdStartFloodingConvergesWithoutWarmStart) {
  // Let the protocol itself distribute LSAs from scratch: trigger by
  // flapping one link after attach, then check everyone heard everyone.
  core::Testbed bed([](net::Network& n) { return topo::build_f2tree(n, 4); });
  // No converge(): seed each instance with only its own LSA via a flap.
  for (auto* sw : bed.topo().all_switches()) {
    bed.ospf_of(*sw);  // instances exist
  }
  // Flap every link so every switch originates and floods.
  for (auto* link : bed.network().links()) {
    bed.injector().fail_for(*link, sim::millis(1), sim::millis(200));
  }
  bed.sim().run(sim::seconds(60));
  const auto switches = bed.topo().all_switches();
  for (auto* sw : switches) {
    EXPECT_EQ(bed.ospf_of(*sw).lsdb().size(), switches.size()) << sw->name();
  }
}

}  // namespace
}  // namespace f2t::routing
