/// Reproduces the **testbed experiment (§III)**: Fig 2 (UDP and TCP
/// throughput through a downward ToR<->agg link failure on the 4-port,
/// 3-layer prototypes) and **Table III** (duration of connectivity loss,
/// packets lost, duration of TCP throughput collapse).
///
/// Paper reference values: fat tree 272,847 us loss / 1302 packets /
/// 700 ms collapse; F²Tree 60,619 us / 310 packets / 220 ms collapse.

#include <iostream>

#include "bench_util.hpp"

using namespace f2t;
using namespace f2t::bench;

int main() {
  std::cout << "F2Tree reproduction - testbed experiment (Fig 2, Table III)\n"
            << "4-port 3-layer prototypes; downward ToR<->agg link failure "
               "at t = 380 ms; detection 60 ms, SPF timer 200 ms, FIB update "
               "10 ms.\n";

  core::RunKnobs knobs;
  knobs.horizon = sim::seconds(4);

  const auto fat_udp =
      core::run_udp_condition(core::topology_builder("fat", 4),
                              failure::Condition::kC1, knobs);
  const auto f2_udp =
      core::run_udp_condition(core::topology_builder("f2", 4),
                              failure::Condition::kC1, knobs);
  const auto fat_tcp =
      core::run_tcp_condition(core::topology_builder("fat", 4),
                              failure::Condition::kC1, knobs);
  const auto f2_tcp =
      core::run_tcp_condition(core::topology_builder("f2", 4),
                              failure::Condition::kC1, knobs);
  if (!fat_udp.ok || !f2_udp.ok || !fat_tcp.ok || !f2_tcp.ok) {
    std::cerr << "scenario construction failed\n";
    return 1;
  }

  stats::print_heading(std::cout, "Table III");
  stats::Table table({"", "Duration of connectivity loss (us)", "Packets lost",
                      "Duration of throughput collapse (us)"});
  table.row({"Fat tree",
             stats::Table::num(sim::to_micros(fat_udp.connectivity_loss), 0),
             std::to_string(fat_udp.packets_lost),
             stats::Table::num(sim::to_micros(fat_tcp.collapse), 0)});
  table.row({"F2Tree",
             stats::Table::num(sim::to_micros(f2_udp.connectivity_loss), 0),
             std::to_string(f2_udp.packets_lost),
             stats::Table::num(sim::to_micros(f2_tcp.collapse), 0)});
  table.print(std::cout);
  std::cout << "(paper: 272847 / 1302 / 700000 vs 60619 / 310 / 220000)\n";

  const double loss_reduction =
      1.0 - sim::to_seconds(f2_udp.connectivity_loss) /
                sim::to_seconds(fat_udp.connectivity_loss);
  const double pkt_reduction =
      1.0 - static_cast<double>(f2_udp.packets_lost) /
                static_cast<double>(fat_udp.packets_lost);
  std::cout << "connectivity-loss reduction: "
            << stats::Table::percent(loss_reduction, 1)
            << " (paper: ~78%), packet-loss reduction: "
            << stats::Table::percent(pkt_reduction, 1) << " (paper: ~75%)\n";

  stats::print_heading(std::cout, "Fig 2(a): UDP receiving throughput");
  print_throughput_series(std::cout, "fat tree UDP", fat_udp.throughput,
                          sim::millis(200), sim::millis(1000));
  print_throughput_series(std::cout, "F2Tree UDP", f2_udp.throughput,
                          sim::millis(200), sim::millis(1000));

  stats::print_heading(std::cout, "Fig 2(b): TCP receiving throughput");
  print_throughput_series(std::cout, "fat tree TCP", fat_tcp.throughput,
                          sim::millis(200), sim::millis(1400));
  print_throughput_series(std::cout, "F2Tree TCP", f2_tcp.throughput,
                          sim::millis(200), sim::millis(1400));

  std::cout << "\nscenarios:\n  fat: " << fat_udp.scenario
            << "\n  f2:  " << f2_udp.scenario << "\n";
  return 0;
}
