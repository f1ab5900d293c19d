/// Reproduces the **§V "Other Distributed Routing Schemes" discussion**:
/// DCNs running BGP-like protocols suffer the same slow failure recovery
/// (control-plane communication + calculation, no local reroute), so the
/// F² rewiring helps there too. This bench runs the C1 experiment under
/// the path-vector control plane and sweeps the MRAI — the BGP timer the
/// paper's citation [13] blames for (potentially exponential) convergence
/// delay.

#include <iostream>

#include "bench_util.hpp"

using namespace f2t;
using namespace f2t::bench;

namespace {

struct PvResult {
  sim::Time loss = 0;
  std::uint64_t updates = 0;
};

PvResult run_pv(const core::Testbed::TopoBuilder& builder, sim::Time mrai) {
  core::TestbedConfig config;
  config.control_plane = core::ControlPlane::kPathVector;
  config.path_vector.mrai = mrai;
  core::Testbed bed(builder, config);
  bed.converge();
  const auto plan =
      failure::build_condition(bed.topo(), failure::Condition::kC1);
  if (!plan) return {};
  transport::UdpSink sink(bed.stack_of(*plan->dst), plan->dport);
  transport::UdpCbrSender::Options so;
  so.sport = plan->sport;
  so.dport = plan->dport;
  so.stop = sim::seconds(3);
  transport::UdpCbrSender sender(bed.stack_of(*plan->src), plan->dst->addr(),
                                 so);
  sender.start();
  for (net::Link* link : plan->fail_links) {
    bed.injector().fail_at(*link, sim::millis(380));
  }
  bed.sim().run(sim::seconds(4));

  PvResult out;
  std::vector<sim::Time> arrivals;
  for (const auto& a : sink.arrivals()) arrivals.push_back(a.at);
  const auto loss = stats::find_connectivity_loss(arrivals, sim::millis(380));
  if (loss) out.loss = loss->duration();
  for (auto* sw : bed.topo().all_switches()) {
    out.updates += bed.path_vector_of(*sw).counters().updates_sent;
  }
  return out;
}

/// Churn variant: the link flaps (down/up/down) before the final failure,
/// so the updates for the last transition run into the MRAI gate — the
/// regime where BGP's timer actually hurts (cf. [13]).
PvResult run_pv_flap(const core::Testbed::TopoBuilder& builder,
                     sim::Time mrai) {
  core::TestbedConfig config;
  config.control_plane = core::ControlPlane::kPathVector;
  config.path_vector.mrai = mrai;
  core::Testbed bed(builder, config);
  bed.converge();
  const auto plan =
      failure::build_condition(bed.topo(), failure::Condition::kC1);
  if (!plan) return {};
  transport::UdpSink sink(bed.stack_of(*plan->dst), plan->dport);
  transport::UdpCbrSender::Options so;
  so.sport = plan->sport;
  so.dport = plan->dport;
  so.stop = sim::seconds(5);
  transport::UdpCbrSender sender(bed.stack_of(*plan->src), plan->dst->addr(),
                                 so);
  sender.start();
  net::Link* link = plan->fail_links.front();
  // Flap: down at 380 ms, up at 700 ms, final down at 1020 ms.
  bed.injector().fail_at(*link, sim::millis(380));
  bed.injector().recover_at(*link, sim::millis(700));
  bed.injector().fail_at(*link, sim::millis(1020));
  bed.sim().run(sim::seconds(6));

  PvResult out;
  std::vector<sim::Time> arrivals;
  for (const auto& a : sink.arrivals()) arrivals.push_back(a.at);
  const auto loss =
      stats::find_connectivity_loss(arrivals, sim::millis(1020));
  if (loss) out.loss = loss->duration();
  for (auto* sw : bed.topo().all_switches()) {
    out.updates += bed.path_vector_of(*sw).counters().updates_sent;
  }
  return out;
}

}  // namespace

int main() {
  std::cout << "F2Tree reproduction - SecV: BGP-like (path-vector) control "
               "plane, C1 failure at 380 ms (8-port)\n";

  stats::Table table({"MRAI", "Fat tree loss (ms)", "Fat tree updates",
                      "F2Tree loss (ms)", "F2Tree updates"});
  for (const auto mrai :
       {sim::millis(10), sim::millis(100), sim::millis(500)}) {
    const auto fat = run_pv(core::topology_builder("fat", 8), mrai);
    const auto f2 = run_pv(core::topology_builder("f2", 8), mrai);
    table.row({sim::format_time(mrai),
               stats::Table::num(sim::to_millis(fat.loss), 1),
               std::to_string(fat.updates),
               stats::Table::num(sim::to_millis(f2.loss), 1),
               std::to_string(f2.updates)});
  }
  table.print(std::cout);
  std::cout << "(single clean failure: BGP converges after detection + one "
               "withdrawal wave + FIB update; the MRAI does not bite yet)\n";

  stats::print_heading(
      std::cout, "Flapping link (down/up/down): the MRAI-gated regime");
  stats::Table flap({"MRAI", "Fat tree loss after final failure (ms)",
                     "F2Tree loss (ms)"});
  for (const auto mrai :
       {sim::millis(10), sim::millis(100), sim::millis(500),
        sim::seconds(2)}) {
    const auto fat = run_pv_flap(core::topology_builder("fat", 8), mrai);
    const auto f2 = run_pv_flap(core::topology_builder("f2", 8), mrai);
    flap.row({sim::format_time(mrai),
              stats::Table::num(sim::to_millis(fat.loss), 1),
              stats::Table::num(sim::to_millis(f2.loss), 1)});
  }
  flap.print(std::cout);
  std::cout << "(expected: with repeated transitions, fat tree's recovery "
               "grows with the MRAI while F2Tree stays at the 60 ms "
               "detection floor — 'F2Tree is also applicable to the DCN "
               "running distributed routing schemes other than OSPF'. A "
               "0.0 row means the MRAI was so large that the link's "
               "recovery was never re-advertised before the final failure, "
               "so no traffic was on the link to lose.)\n";
  return 0;
}
