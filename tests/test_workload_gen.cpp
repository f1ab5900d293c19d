#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "core/f2tree.hpp"
#include "topo/fattree.hpp"
#include "transport/workload.hpp"

namespace f2t::transport {
namespace {

// ------------------------------------------------------------ FlowSizeCdf

TEST(FlowSizeCdf, BuiltinsAreValidAndNamed) {
  for (const char* name : {"websearch", "datamining"}) {
    const auto cdf = FlowSizeCdf::by_name(name);
    ASSERT_FALSE(cdf.points().empty());
    EXPECT_GT(cdf.mean_bytes(), 0.0);
    EXPECT_DOUBLE_EQ(cdf.points().back().cum, 1.0);
  }
  EXPECT_THROW(FlowSizeCdf::by_name("cachefollower"), std::invalid_argument);
  // The data-mining mix is the heavier-tailed one: far larger mean from
  // its multi-MB shuffle tail despite the tiny median.
  EXPECT_GT(FlowSizeCdf::datamining().mean_bytes(),
            FlowSizeCdf::websearch().mean_bytes());
}

TEST(FlowSizeCdf, SamplesStayInsideSupport) {
  const auto cdf = FlowSizeCdf::websearch();
  const auto hi = static_cast<std::uint64_t>(cdf.points().back().bytes);
  sim::Random rng(11);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t s = cdf.sample(rng);
    EXPECT_GE(s, std::uint64_t{1});
    EXPECT_LE(s, hi);
  }
}

TEST(FlowSizeCdf, LognormalTabulatesTheClampedCdf) {
  const auto cdf = FlowSizeCdf::lognormal(20e3, 1.5, 10e6);
  EXPECT_DOUBLE_EQ(cdf.points().back().bytes, 10e6);
  EXPECT_DOUBLE_EQ(cdf.points().back().cum, 1.0);
  // Half the mass below the median, and the mean near the log-normal's
  // median * exp(sigma^2 / 2) = 61.6 KB (the clamp trims a little).
  const auto median =
      std::find_if(cdf.points().begin(), cdf.points().end(),
                   [](const FlowSizeCdf::Point& p) { return p.bytes == 20e3; });
  ASSERT_NE(median, cdf.points().end());
  EXPECT_NEAR(median->cum, 0.5, 1e-12);
  EXPECT_GT(cdf.mean_bytes(), 50e3);
  EXPECT_LT(cdf.mean_bytes(), 70e3);
  sim::Random rng(9);
  std::vector<std::uint64_t> draws;
  for (int i = 0; i < 4001; ++i) draws.push_back(cdf.sample(rng));
  std::sort(draws.begin(), draws.end());
  EXPECT_NEAR(static_cast<double>(draws[2000]), 20e3, 2.5e3);
  EXPECT_LE(draws.back(), 10'000'000u);
  EXPECT_THROW(FlowSizeCdf::lognormal(0, 1.5, 10e6), std::invalid_argument);
  EXPECT_THROW(FlowSizeCdf::lognormal(20e3, 0, 10e6), std::invalid_argument);
}

TEST(FlowSizeCdf, FixedIsDegenerate) {
  const auto cdf = FlowSizeCdf::fixed(4096);
  sim::Random rng(3);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(cdf.sample(rng), 4096u);
  EXPECT_DOUBLE_EQ(cdf.mean_bytes(), 4096.0);
}

TEST(FlowSizeCdf, CsvRoundTripAndValidation) {
  const auto cdf = FlowSizeCdf::from_csv(
      "# custom mix\n"
      "1000,0.5\n"
      "10000,0.9\n"
      "100000,1.0\n");
  ASSERT_EQ(cdf.points().size(), 3u);
  EXPECT_DOUBLE_EQ(cdf.points()[1].bytes, 10000.0);
  sim::Random rng(5);
  for (int i = 0; i < 500; ++i) EXPECT_LE(cdf.sample(rng), 100000u);
  // Non-ascending bytes, non-ascending cum, and a final cum != 1 are all
  // authoring errors that must fail loudly.
  EXPECT_THROW(FlowSizeCdf::from_csv("1000,0.5\n500,1.0\n"),
               std::invalid_argument);
  EXPECT_THROW(FlowSizeCdf::from_csv("1000,0.9\n2000,0.5\n"),
               std::invalid_argument);
  EXPECT_THROW(FlowSizeCdf::from_csv("1000,0.5\n2000,0.9\n"),
               std::invalid_argument);
  EXPECT_THROW(FlowSizeCdf::from_csv("garbage\n"), std::invalid_argument);
}

// ------------------------------------------------------------ TcpWorkload

core::Testbed make_f2_8() {
  return core::Testbed(
      [](net::Network& n) { return topo::build_f2tree(n, 8); });
}

WorkloadOptions small_poisson() {
  WorkloadOptions o;
  o.kind = WorkloadKind::kPoisson;
  o.sizes = FlowSizeCdf::fixed(5000);
  o.load = 0.05;
  o.stop = sim::millis(300);
  o.deadline = sim::millis(100);
  return o;
}

TEST(TcpWorkload, PoissonFlowsLaunchAndComplete) {
  auto bed = make_f2_8();
  bed.converge();
  TcpWorkload wl(bed.stacks(), sim::Random(9), small_poisson());
  wl.start();
  bed.sim().run(sim::seconds(2));

  ASSERT_GT(wl.launched(), 10u);
  EXPECT_GT(wl.completed(), 0u);
  EXPECT_EQ(wl.completed(), wl.launched());  // idle network: all finish
  EXPECT_EQ(wl.active_count(), 0u);
  EXPECT_GE(wl.peak_active(), 1u);
  for (const auto& s : wl.samples()) {
    EXPECT_EQ(s.bytes, 5000u);
    EXPECT_GT(s.ideal, 0);
    ASSERT_NE(s.finish, sim::kNever);
    EXPECT_GT(s.finish, s.start);
  }
}

TEST(TcpWorkload, DrawsAreIndependentOfNetworkNoise) {
  // Same workload seed on two different topologies: the launch schedule
  // and flow sizes must match draw-for-draw (Random::split streams), even
  // though every packet event differs. Flow *outcomes* may differ. The
  // load-derived Poisson rate scales with the host count, so for it the
  // plain fat tree is pinned to 3 hosts/ToR to match F²'s population (the
  // rewiring costs each ToR one host port); Fig 6's presets set their
  // gaps directly and run on the plain fat tree.
  auto collect = [](bool f2, bool pin_hosts, const WorkloadOptions& opts) {
    core::Testbed bed([f2, pin_hosts](net::Network& n) {
      return f2 ? topo::build_f2tree(n, 8)
                : topo::build_fat_tree(
                      n, topo::FatTreeOptions{
                             .ports = 8, .hosts_per_tor = pin_hosts ? 3 : -1});
    });
    bed.converge();
    TcpWorkload wl(bed.stacks(), sim::Random(21), opts);
    wl.start();
    bed.sim().run(opts.stop);
    std::vector<std::pair<sim::Time, std::uint64_t>> launches;
    for (const auto& s : wl.samples()) launches.push_back({s.start, s.bytes});
    return launches;
  };
  auto poisson = small_poisson();
  poisson.sizes = FlowSizeCdf::websearch();
  poisson.stop = sim::millis(400);
  auto requests = WorkloadOptions::fig6_requests();
  requests.stop = sim::seconds(3);
  auto background = WorkloadOptions::fig6_background();
  background.stop = sim::seconds(3);
  for (const auto& [opts, pin] : {std::pair{poisson, true},
                                  std::pair{requests, false},
                                  std::pair{background, false}}) {
    const auto a = collect(true, pin, opts);
    const auto b = collect(false, pin, opts);
    ASSERT_GT(a.size(), 3u);
    EXPECT_EQ(a, b);
  }
}

TEST(TcpWorkload, AnsweredExchangesReleaseTheirConnections) {
  // Every exchange of a request is its own connection, released as soon
  // as its answer is in: after a failure-free run nothing stays open.
  auto bed = make_f2_8();
  bed.converge();
  auto opts = WorkloadOptions::fig6_requests();
  opts.stop = sim::seconds(2);
  opts.interarrival = sim::millis(20);
  TcpWorkload wl(bed.stacks(), sim::Random(31), opts);
  wl.start();
  bed.sim().run(sim::seconds(3));

  ASSERT_GT(wl.launched(), 50u);
  EXPECT_EQ(wl.completed(), wl.launched());
  EXPECT_EQ(wl.active_count(), 0u);
  EXPECT_GE(wl.peak_active(), 8u);  // one request's 8 exchanges at least
  for (const auto& r : wl.samples()) {
    EXPECT_EQ(r.bytes, 8u * 2048u);
    EXPECT_EQ(r.deadline, sim::millis(250));
    ASSERT_NE(r.finish, sim::kNever);
    EXPECT_GT(r.finish, r.start);
  }
}

TEST(TcpWorkload, GapOptionsPickTheArrivalProcess) {
  auto bed = make_f2_8();
  bed.converge();
  auto gaps = [&bed](sim::Time interarrival, double sigma) {
    auto opts = WorkloadOptions::fig6_background();
    opts.interarrival = interarrival;
    opts.interarrival_sigma = sigma;
    opts.start = bed.sim().now();
    opts.stop = opts.start + sim::seconds(20);
    TcpWorkload wl(bed.stacks(), sim::Random(41), opts);
    wl.start();
    bed.sim().run(opts.stop + sim::seconds(10));
    std::vector<double> out;
    for (std::size_t i = 1; i < wl.samples().size(); ++i) {
      out.push_back(sim::to_seconds(wl.samples()[i].start -
                                    wl.samples()[i - 1].start));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  // Exponential gaps of mean 50 ms: the median is 50 ms * ln 2.
  const auto exp_gaps = gaps(sim::millis(50), 0);
  ASSERT_GT(exp_gaps.size(), 200u);
  EXPECT_NEAR(exp_gaps[exp_gaps.size() / 2], 0.050 * std::log(2.0), 0.008);
  // Log-normal gaps of median 50 ms.
  const auto ln_gaps = gaps(sim::millis(50), 1.0);
  ASSERT_GT(ln_gaps.size(), 200u);
  EXPECT_NEAR(ln_gaps[ln_gaps.size() / 2], 0.050, 0.010);
  auto bad = WorkloadOptions::fig6_background();
  bad.interarrival = -1;
  EXPECT_THROW(TcpWorkload(bed.stacks(), sim::Random(1), bad),
               std::invalid_argument);
  // Requests have no size mix to derive a rate from `load`.
  auto unpaced = WorkloadOptions::fig6_requests();
  unpaced.interarrival = 0;
  EXPECT_THROW(TcpWorkload(bed.stacks(), sim::Random(1), unpaced),
               std::invalid_argument);
  // The load-derived value is a mean, not a log-normal median.
  auto median_from_load = WorkloadOptions::fig6_background();
  median_from_load.interarrival = 0;
  EXPECT_THROW(TcpWorkload(bed.stacks(), sim::Random(1), median_from_load),
               std::invalid_argument);
}

TEST(TcpWorkload, IncastRoundsFanIn) {
  auto bed = make_f2_8();
  bed.converge();
  WorkloadOptions o;
  o.kind = WorkloadKind::kIncast;
  o.fanin = 4;
  o.incast_bytes = 2000;
  o.incast_interval = sim::millis(20);
  o.stop = sim::millis(200);
  TcpWorkload wl(bed.stacks(), sim::Random(13), o);
  wl.start();
  bed.sim().run(sim::seconds(2));

  ASSERT_GT(wl.launched(), 0u);
  EXPECT_EQ(wl.launched() % 4, 0u);  // whole rounds only
  EXPECT_EQ(wl.completed(), wl.launched());
  for (const auto& s : wl.samples()) EXPECT_EQ(s.bytes, 2000u);
}

// ------------------------------------------------------------ FluidWorkload

TEST(FluidWorkload, RatesIntegrateToCorrectFct) {
  sim::Simulator sim(1);
  transport::FluidFlowTable table(1, 8e6);  // one 8 Mbps channel
  FluidWorkload::Options o;
  o.arrival_rate_per_s = 5;
  o.sizes = FlowSizeCdf::fixed(100'000);  // 0.1 s alone at line rate
  o.stop = sim::seconds(2);
  FluidWorkload wl(
      sim, table,
      [](sim::Random&, std::vector<std::uint32_t>& path) { path = {0}; },
      sim::Random(17), o);
  wl.start();
  sim.run(sim::seconds(30));
  wl.finalize();

  ASSERT_GT(wl.launched(), 3u);
  EXPECT_EQ(wl.completed(), wl.launched());  // long tail drained everything
  EXPECT_EQ(table.flow_count(), 0u);
  double total_bits = 0;
  sim::Time last_finish = 0;
  for (const auto& s : wl.samples()) {
    ASSERT_NE(s.finish, sim::kNever);
    // Ideal is the solo bottleneck FCT; sharing can only slow a flow.
    EXPECT_DOUBLE_EQ(sim::to_seconds(s.ideal), 0.1);
    EXPECT_GE(s.finish - s.start + sim::micros(1), s.ideal);
    total_bits += static_cast<double>(s.bytes) * 8;
    last_finish = std::max(last_finish, s.finish);
  }
  // Conservation: the channel cannot have carried more than capacity
  // times the busy interval.
  EXPECT_LE(total_bits, 8e6 * sim::to_seconds(last_finish) + 1.0);
}

TEST(FluidWorkload, DeterministicAcrossRuns) {
  auto collect = [] {
    sim::Simulator sim(1);
    transport::FluidFlowTable table(4, 1e9);
    FluidWorkload::Options o;
    o.arrival_rate_per_s = 200;
    o.sizes = FlowSizeCdf::websearch();
    o.stop = sim::millis(500);
    FluidWorkload wl(
        sim, table,
        [](sim::Random& rng, std::vector<std::uint32_t>& path) {
          path = {static_cast<std::uint32_t>(rng.index(4))};
        },
        sim::Random(23), o);
    wl.start();
    sim.run(sim::seconds(5));
    wl.finalize();
    std::vector<std::tuple<sim::Time, sim::Time, std::uint64_t>> out;
    for (const auto& s : wl.samples()) {
      out.push_back({s.start, s.finish, s.bytes});
    }
    return out;
  };
  const auto a = collect();
  const auto b = collect();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace f2t::transport
