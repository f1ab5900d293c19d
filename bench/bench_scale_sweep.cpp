/// Reproduces the paper's **scaling argument** (§I, §III, §IV intro): "the
/// advantage would be larger as the network scales, since it would consume
/// much more time for updating FIB and calculating OSPF shortest path".
/// We sweep the fabric port count with a per-router SPF computation cost
/// (100 µs/router, so an 80-switch fabric adds ~8 ms and a 720-switch
/// fabric ~72 ms) and measure C1 recovery. F²Tree's fast reroute never
/// touches the control plane, so its column stays at the detection floor
/// at every scale.
///
/// Also records per-configuration wall-clock time in BENCH_scale_sweep.json
/// — the end-to-end measure of the forwarding fast path, since every
/// simulated packet hop funnels through the cached FIB resolution.
///
/// The sweep runs both transport fidelities: the packet-level rows
/// (k = 8..20) are the historical baseline, and the flow-level rows rerun
/// the same configurations plus the k = 32/48/64 fat trees the fluid
/// model unlocks.
/// `sim_wall/*-ospf` records each sweep's simulation phase
/// (topology build + convergence excluded, but shared OSPF event
/// machinery included — both fidelities pay the same LSA/SPF cost, so
/// these rows converge at small k). The `sim_wall/{packet,flow}/k=20`
/// pair the >= 10x flow-speedup guard compares instead isolates the
/// *transport* cost: a 120 s observation window on the k = 20 fat tree,
/// where per-packet events dominate the packet run while the fluid
/// probe's cost stays flat in the horizon.

#include <sys/resource.h>

#include <chrono>
#include <cstring>
#include <iostream>

#include "bench_util.hpp"
#include "topo/fattree.hpp"

using namespace f2t;
using namespace f2t::bench;

namespace {

core::UdpRun run_scaled(const core::Testbed::TopoBuilder& builder,
                         core::Fidelity fidelity, bool central) {
  core::RunKnobs knobs;
  knobs.horizon = sim::seconds(3);
  knobs.fidelity = fidelity;
  if (central) {
    knobs.config.control_plane = core::ControlPlane::kCentral;
  } else {
    knobs.config.ospf.spf_compute_per_router = sim::micros(100);
  }
  return core::run_udp_condition(builder, failure::Condition::kC1, knobs);
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::string fmt_loss(const core::UdpRun& e) {
  return e.ok ? stats::Table::num(sim::to_millis(e.connectivity_loss), 1)
              : "-";
}

}  // namespace

int main(int argc, char** argv) {
  // Default run stays quick enough for Debug builds: k <= 20, both
  // fidelities. --full adds the k = 32/48/64 flow-level fat trees (the
  // Release smoke's configuration, and what the committed baseline
  // records).
  bool full = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) full = true;
  }

  std::cout << "F2Tree reproduction - scaling argument: C1 recovery vs "
               "fabric size (SPF cost 100 us/router on top of the 200 ms "
               "timer and 10 ms FIB update)\n";

  std::vector<BenchResult> results;
  stats::Table table({"Ports N", "Switches (fat tree)",
                      "Fat tree loss (ms)", "F2Tree loss (ms)"});
  for (const int n : {8, 12, 16, 20}) {
    const double switches = core::Scalability::fat_tree_switches(n);
    const auto wall_start = std::chrono::steady_clock::now();
    const auto fat = run_scaled(core::topology_builder("fat", n),
                                core::Fidelity::kPacket, false);
    const auto f2 = run_scaled(core::topology_builder("f2", n),
                               core::Fidelity::kPacket, false);
    const double wall_ms = ms_since(wall_start);
    table.row({std::to_string(n), stats::Table::num(switches, 0),
               fmt_loss(fat), fmt_loss(f2)});
    const std::string suffix = "/k=" + std::to_string(n);
    if (fat.ok) {
      results.push_back({"fat_tree_loss" + suffix, "connectivity_loss",
                         sim::to_millis(fat.connectivity_loss), "ms"});
    }
    if (f2.ok) {
      results.push_back({"f2tree_loss" + suffix, "connectivity_loss",
                         sim::to_millis(f2.connectivity_loss), "ms"});
    }
    results.push_back({"wall_clock" + suffix, "wall_time", wall_ms, "ms"});
    results.push_back(
        {"sim_wall/packet-ospf" + suffix, "wall_time",
         (fat.observation.profile.wall_seconds +
          f2.observation.profile.wall_seconds) * 1e3,
         "ms"});
  }
  table.print(std::cout);
  std::cout << "(expected: fat tree's recovery grows with the switch count "
               "via the SPF computation term; F2Tree stays at the 60 ms "
               "detection floor at every scale)\n";

  std::cout << "\nflow-level fidelity: same sweep without per-packet "
               "events, then the big fat trees the fluid model unlocks\n";
  stats::Table flow_table({"Ports N", "Control", "Fat loss (ms)",
                           "F2 loss (ms)", "Sim wall (ms)"});
  for (const int n : {8, 12, 16, 20}) {
    const auto fat = run_scaled(core::topology_builder("fat", n),
                                core::Fidelity::kFlow, false);
    const auto f2 = run_scaled(core::topology_builder("f2", n),
                               core::Fidelity::kFlow, false);
    const double sim_wall_ms = (fat.observation.profile.wall_seconds +
                                f2.observation.profile.wall_seconds) * 1e3;
    const std::string suffix = "/k=" + std::to_string(n);
    flow_table.row({std::to_string(n), "ospf", fmt_loss(fat), fmt_loss(f2),
                    stats::Table::num(sim_wall_ms, 1)});
    if (fat.ok) {
      results.push_back({"fat_tree_flow_loss" + suffix, "connectivity_loss",
                         sim::to_millis(fat.connectivity_loss), "ms"});
    }
    if (f2.ok) {
      results.push_back({"f2tree_flow_loss" + suffix, "connectivity_loss",
                         sim::to_millis(f2.connectivity_loss), "ms"});
    }
    results.push_back(
        {"sim_wall/flow-ospf" + suffix, "wall_time", sim_wall_ms, "ms"});
  }

  // Beyond the packet engine's reach: single-failure recovery on
  // k = 32/48/64 fat trees, central control plane (per-switch LSDB
  // flooding at thousands of switches is a different bench), one host per
  // ToR — the probe needs endpoints, not load.
  std::vector<int> big_ks;
  if (full) big_ks = {32, 48, 64};
  for (const int n : big_ks) {
    const auto builder = [n](net::Network& net) {
      return topo::build_fat_tree(
          net, topo::FatTreeOptions{.ports = n, .hosts_per_tor = 1});
    };
    const auto wall_start = std::chrono::steady_clock::now();
    const auto fat = run_scaled(builder, core::Fidelity::kFlow, true);
    const double wall_ms = ms_since(wall_start);
    const double sim_wall_ms =
        fat.observation.profile.wall_seconds * 1e3;
    flow_table.row({std::to_string(n), "central", fmt_loss(fat), "-",
                    stats::Table::num(sim_wall_ms, 1)});
    const std::string suffix = "/k=" + std::to_string(n);
    if (fat.ok) {
      results.push_back({"fat_tree_flow_loss" + suffix, "connectivity_loss",
                         sim::to_millis(fat.connectivity_loss), "ms"});
    }
    results.push_back(
        {"flow_wall_clock" + suffix, "wall_time", wall_ms, "ms"});
    results.push_back(
        {"sim_wall/flow" + suffix, "wall_time", sim_wall_ms, "ms"});
    if (n == 64) {
      // Every smaller row ran first, so the process peak is this row's.
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      results.push_back({"peak_rss_mb" + suffix, "peak_rss",
                         static_cast<double>(usage.ru_maxrss) / 1024.0,
                         "MB"});
    }
  }
  flow_table.print(std::cout);
  std::cout << "(expected: identical loss columns at every k — the fluid "
               "probe simulates no per-packet events)\n";

  // The transport fast path in isolation: one k = 20 fat tree C1 run per
  // fidelity over a 120 s observation window. At a 3 s horizon the shared
  // OSPF event machinery dominates both fidelities' sim phase; at 120 s
  // the packet run's cost is per-packet transport while the fluid probe
  // pays a fixed number of regime traces, which is the whole point of the
  // flow-level mode. The >= 10x guard in scripts/run_all.sh reads this
  // pair.
  if (full) {
    core::RunKnobs tk;
    tk.horizon = sim::seconds(120);
    tk.config.ospf.spf_compute_per_router = sim::micros(100);
    tk.fidelity = core::Fidelity::kPacket;
    const auto packet =
        core::run_udp_condition(core::topology_builder("fat", 20),
                                failure::Condition::kC1, tk);
    tk.fidelity = core::Fidelity::kFlow;
    const auto flow =
        core::run_udp_condition(core::topology_builder("fat", 20),
                                failure::Condition::kC1, tk);
    const double packet_ms = packet.observation.profile.wall_seconds * 1e3;
    const double flow_ms = flow.observation.profile.wall_seconds * 1e3;
    results.push_back({"sim_wall/packet/k=20", "wall_time", packet_ms, "ms"});
    results.push_back({"sim_wall/flow/k=20", "wall_time", flow_ms, "ms"});
    std::cout << "\ntransport fast path (k=20 fat tree, C1, 120 s horizon): "
              << "packet " << stats::Table::num(packet_ms, 1) << " ms vs flow "
              << stats::Table::num(flow_ms, 1) << " ms ("
              << stats::Table::num(packet_ms / flow_ms, 1) << "x)\n";
  }

  if (!write_bench_json("scale_sweep", results)) {
    std::cerr << "bench_scale_sweep: failed to write BENCH_scale_sweep.json\n";
    return 1;
  }
  std::cout << "wrote BENCH_scale_sweep.json\n";
  return 0;
}
