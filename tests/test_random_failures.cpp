#include <gtest/gtest.h>

#include "core/f2tree.hpp"

namespace f2t {
namespace {

using failure::RandomFailureGenerator;
using failure::RandomFailureOptions;

/// Small switch-only mesh: enough candidate links for the generator, no
/// hosts or control plane needed to exercise its scheduling logic.
struct Mesh {
  sim::Simulator sim{1};
  net::Network net{sim};
  failure::FailureInjector injector{net};

  Mesh() {
    std::vector<net::L3Switch*> switches;
    for (int i = 0; i < 4; ++i) {
      std::string name = "s";
      name += std::to_string(i);
      switches.push_back(&net.add_switch(
          name, net::Ipv4Addr(10, 12, static_cast<std::uint8_t>(i), 1)));
    }
    for (std::size_t i = 0; i < switches.size(); ++i) {
      for (std::size_t j = i + 1; j < switches.size(); ++j) {
        net.connect_default(*switches[i], *switches[j]);
      }
    }
  }
};

TEST(RandomFailures, MaxConcurrentCapSuppressesExcessFailures) {
  Mesh mesh;
  RandomFailureOptions opts;
  opts.interarrival_median_s = 0.05;  // dense arrivals...
  opts.interarrival_sigma = 0.3;
  opts.duration_median_s = 30.0;  // ...against wont-recover failures
  opts.duration_sigma = 0.1;
  opts.max_concurrent = 1;
  opts.start = sim::millis(10);
  opts.stop = sim::seconds(5);
  RandomFailureGenerator gen(mesh.injector, sim::Random(11), opts);
  gen.start();
  mesh.sim.run(sim::seconds(6));

  // The first failure lasts ~30 s, so exactly one can ever be active and
  // every later arrival in the 5 s window hits the concurrency cap.
  EXPECT_EQ(gen.failures_injected(), 1);
  EXPECT_GT(gen.failures_suppressed(), 10);
  EXPECT_EQ(mesh.injector.active_failures(), 1);
}

TEST(RandomFailures, HigherCapAdmitsMoreConcurrentFailures) {
  RandomFailureOptions opts;
  opts.interarrival_median_s = 0.05;
  opts.interarrival_sigma = 0.3;
  opts.duration_median_s = 30.0;
  opts.duration_sigma = 0.1;
  opts.max_concurrent = 3;
  opts.start = sim::millis(10);
  opts.stop = sim::seconds(5);
  Mesh mesh;
  RandomFailureGenerator gen(mesh.injector, sim::Random(11), opts);
  gen.start();
  mesh.sim.run(sim::seconds(6));
  EXPECT_EQ(gen.failures_injected(), 3);
  EXPECT_EQ(mesh.injector.active_failures(), 3);
}

TEST(RandomFailures, StopTimeBoundsTheProcess) {
  Mesh mesh;
  RandomFailureOptions opts;
  opts.interarrival_median_s = 0.2;
  opts.interarrival_sigma = 0.3;
  opts.duration_median_s = 0.2;
  opts.duration_sigma = 0.3;
  opts.max_concurrent = 8;
  opts.start = sim::millis(10);
  opts.stop = sim::seconds(2);
  RandomFailureGenerator gen(mesh.injector, sim::Random(5), opts);
  gen.start();
  mesh.sim.run(sim::seconds(2));
  const int at_stop = gen.failures_injected();
  EXPECT_GT(at_stop, 0);

  // Past `stop` the process injects nothing more — the chain terminates
  // at the first scheduling tick at or after the boundary.
  mesh.sim.run(sim::seconds(30));
  EXPECT_EQ(gen.failures_injected(), at_stop);
  // Outstanding recoveries still drain: no failure outlives its duration.
  EXPECT_EQ(mesh.injector.active_failures(), 0);
}

TEST(RandomFailures, StartAtStopInjectsNothing) {
  Mesh mesh;
  RandomFailureOptions opts;
  opts.start = sim::seconds(2);
  opts.stop = sim::seconds(2);
  RandomFailureGenerator gen(mesh.injector, sim::Random(1), opts);
  gen.start();
  mesh.sim.run(sim::seconds(10));
  EXPECT_EQ(gen.failures_injected(), 0);
  EXPECT_EQ(gen.failures_suppressed(), 0);
}

TEST(RandomFailures, ThrowsWithoutSwitchLinks) {
  sim::Simulator sim(1);
  net::Network net(sim);
  auto& sw = net.add_switch("s", net::Ipv4Addr(10, 12, 0, 1));
  net.add_host("h", net::Ipv4Addr(10, 11, 0, 10), &sw);
  failure::FailureInjector injector(net);
  EXPECT_THROW(
      RandomFailureGenerator(injector, sim::Random(1), RandomFailureOptions{}),
      std::invalid_argument);
}

}  // namespace
}  // namespace f2t
