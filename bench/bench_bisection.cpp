/// Validates **§II-D "Trading (negligible) bisection bandwidth"**
/// experimentally: the paper argues F²Tree keeps fat tree's merits (no
/// oversubscription, rich path diversity) because the across links sit
/// idle outside failures. We run saturating cross-pod permutation traffic
/// (every host sends one bulk TCP flow to a host half the network away)
/// and compare the per-host goodput distribution between fat tree and
/// F²Tree, plus the same with one failure present (when the across links
/// carry the fast-reroute detour).

#include <iostream>

#include "bench_util.hpp"

using namespace f2t;
using namespace f2t::bench;

namespace {

struct BisectionResult {
  double mean_mbps = 0;
  double min_mbps = 0;
  double p10_mbps = 0;
  std::size_t flows = 0;
};

BisectionResult run_permutation(const core::Testbed::TopoBuilder& builder,
                                bool with_failure) {
  // Warm up past the initial slow-start carnage, then measure 300 ms.
  const sim::Time start = sim::millis(200);
  const sim::Time stop = sim::millis(500);

  core::Testbed bed(builder);
  bed.converge();
  auto stacks = bed.stacks();
  const std::size_t n = stacks.size();

  // DCN-tuned TCP (sub-ms RTT fabric): a 200 ms minimum RTO would keep
  // congested flows silent for most of the window and measure the RTO
  // constant, not the fabric.
  transport::TcpConfig tcp;
  tcp.min_rto = sim::millis(10);
  tcp.initial_rto = sim::millis(10);

  struct Flow {
    std::unique_ptr<transport::TcpConnection> connection;
    std::uint64_t delivered_at_start = 0;
    std::uint64_t delivered_at_stop = 0;
  };
  std::vector<Flow> flows(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& flow = flows[i];
    flow.connection = transport::TcpConnection::open(
        *stacks[i], *stacks[(i + n / 2) % n], tcp);
    flow.connection->a().write(1'000'000'000);  // effectively unbounded
  }
  if (with_failure) {
    // One downward link dies mid-run; the detour rides the across links.
    auto* agg = bed.topo().pods[0].aggs[0];
    auto* tor = bed.topo().pods[0].tors[0];
    if (net::Link* link = bed.network().find_link(*agg, *tor)) {
      bed.injector().fail_at(*link, sim::millis(100));
    }
  }
  bed.sim().at(start, [&] {
    for (auto& flow : flows) {
      flow.delivered_at_start = flow.connection->b().bytes_delivered();
    }
  });
  bed.sim().at(stop, [&] {
    for (auto& flow : flows) {
      flow.delivered_at_stop = flow.connection->b().bytes_delivered();
    }
  });
  bed.sim().run(stop + sim::millis(1));

  stats::Cdf mbps;
  for (const auto& flow : flows) {
    const double bytes = static_cast<double>(flow.delivered_at_stop -
                                             flow.delivered_at_start);
    mbps.add(bytes * 8.0 / (sim::to_seconds(stop - start) * 1e6));
  }
  BisectionResult out;
  out.flows = n;
  out.mean_mbps = mbps.mean();
  out.min_mbps = mbps.min();
  out.p10_mbps = mbps.quantile(0.10);
  return out;
}

}  // namespace

int main() {
  std::cout << "F2Tree reproduction - SecII-D: bisection bandwidth under "
               "saturating cross-pod permutation traffic (bulk TCP, 300 ms "
               "window, 1 Gbps links)\n";

  stats::Table table({"Topology", "Flows", "Mean goodput (Mbps)",
                      "p10 (Mbps)", "Min (Mbps)"});
  struct Case {
    const char* name;
    core::Testbed::TopoBuilder builder;
    bool failure;
  };
  const std::vector<Case> cases = {
      {"fat tree (6-port)", core::topology_builder("fat", 6), false},
      {"F2Tree (6-port)", core::topology_builder("f2", 6), false},
      {"fat tree (6-port, 1 failure)", core::topology_builder("fat", 6), true},
      {"F2Tree (6-port, 1 failure)", core::topology_builder("f2", 6), true},
  };
  for (const auto& c : cases) {
    const auto r = run_permutation(c.builder, c.failure);
    table.row({c.name, std::to_string(r.flows),
               stats::Table::num(r.mean_mbps, 0),
               stats::Table::num(r.p10_mbps, 0),
               stats::Table::num(r.min_mbps, 0)});
  }
  table.print(std::cout);
  std::cout << "(expected: same order of per-host goodput, dominated by ECMP "
               "hash collisions in both designs. At this tiny scale the "
               "rewiring removes 1 of 3 uplinks per aggregation switch, so "
               "F2Tree measures somewhat lower - the honest small-N version "
               "of SecII-D's point that the cost is a low-order term: at "
               "production port counts the rewiring takes 1 of N/2 uplinks, "
               "e.g. ~4% at N=48. The across links change nothing in the "
               "failure-free case and absorb the reroute detour when a "
               "downward link dies.)\n";
  return 0;
}
