/// Partition-aggregate sandbox: run the paper's front-end-datacenter
/// workload (8-way scatter-gather requests + log-normal background flows)
/// through random failures on the topology of your choice and print the
/// tail of the completion-time distribution.
///
///   $ ./partition_aggregate_sim [f2|fat] [seconds] [concurrent_failures]
///
/// Defaults: f2, 60 seconds, 1 concurrent failure.

#include <cstdlib>
#include <cstring>
#include <iostream>

#include "core/f2tree.hpp"

using namespace f2t;

int main(int argc, char** argv) {
  const bool f2 = argc <= 1 || std::strcmp(argv[1], "fat") != 0;
  const int seconds = argc > 2 ? std::atoi(argv[2]) : 60;
  const int concurrent = argc > 3 ? std::atoi(argv[3]) : 1;

  std::cout << "partition-aggregate on " << (f2 ? "F2Tree" : "fat tree")
            << " (8-port), " << seconds << " s, " << concurrent
            << " concurrent failure(s)\n";

  core::Testbed bed([f2](net::Network& n) {
    return f2 ? topo::build_f2tree(n, 8)
              : topo::build_fat_tree(n, topo::FatTreeOptions{.ports = 8});
  });
  bed.converge();

  const sim::Time stop = sim::seconds(1 + seconds);
  auto request_options = transport::WorkloadOptions::fig6_requests();
  request_options.start = sim::seconds(1);
  request_options.stop = stop;
  transport::TcpWorkload requests(bed.stacks(), sim::Random(11),
                                  request_options);
  requests.start();

  auto background_options = transport::WorkloadOptions::fig6_background();
  background_options.start = sim::seconds(1);
  background_options.stop = stop;
  transport::TcpWorkload background(bed.stacks(), sim::Random(12),
                                    background_options);
  background.start();

  failure::RandomFailureOptions rf;
  rf.start = sim::seconds(2);
  rf.stop = stop;
  rf.max_concurrent = concurrent;
  rf.interarrival_median_s = concurrent > 1 ? 5.0 : 12.0;
  failure::RandomFailureGenerator failures(bed.injector(), sim::Random(13),
                                           rf);
  failures.start();

  const sim::Time horizon = stop + sim::seconds(20);
  bed.sim().run(horizon);

  stats::Cdf cdf;
  for (const auto& r : requests.samples()) {
    if (r.finish != sim::kNever) cdf.add(sim::to_millis(r.finish - r.start));
  }

  std::cout << "requests issued:      " << requests.launched() << "\n"
            << "requests completed:   " << requests.completed() << "\n"
            << "failures injected:    " << failures.failures_injected()
            << "\n"
            << "background flows:     " << background.launched() << " ("
            << background.completed() << " completed)\n"
            << "deadline (250 ms) missed: "
            << stats::Table::percent(
                   stats::compute_slo(requests.samples(), 0, 0, horizon)
                       .miss_out_window,
                   3)
            << "\n";
  if (!cdf.empty()) {
    std::cout << "completion time: median "
              << stats::Table::num(cdf.quantile(0.5), 2) << " ms, p99 "
              << stats::Table::num(cdf.quantile(0.99), 2) << " ms, p99.9 "
              << stats::Table::num(cdf.quantile(0.999), 2) << " ms, max "
              << stats::Table::num(cdf.max(), 2) << " ms\n";
    std::cout << "fraction of requests over 200 ms: "
              << stats::Table::percent(cdf.fraction_above(200.0), 3) << "\n";
  }
  return 0;
}
