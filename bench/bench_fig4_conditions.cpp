/// Reproduces **Fig 4**: duration of connectivity loss, UDP packets lost
/// and TCP throughput-collapse duration under the failure conditions
/// C1-C7 of Table IV, on the 8-port 3-layer emulation topologies.
/// C1-C5 compare fat tree and F²Tree; C6/C7 exist only in F²Tree.

#include <iostream>

#include "bench_util.hpp"

using namespace f2t;
using namespace f2t::bench;

int main() {
  std::cout << "F2Tree reproduction - Fig 4: handling different failure "
               "conditions (8-port, 3-layer)\n";

  struct Row {
    failure::Condition condition;
    const char* label;
    const char* description;
  };
  const std::vector<Row> conditions = {
      {failure::Condition::kC1, "C1", "1 ToR-agg link"},
      {failure::Condition::kC2, "C2", "1 core-agg link"},
      {failure::Condition::kC3, "C3", "1 ToR-agg + 1 core-agg link"},
      {failure::Condition::kC4, "C4", "2 adjacent ToR-agg links"},
      {failure::Condition::kC5, "C5",
       "all ToR-agg links in pod except left neighbour's"},
      {failure::Condition::kC6, "C6", "1 ToR-agg link + right across link"},
      {failure::Condition::kC7, "C7",
       "2 ToR-agg links + 1 right across link"},
      {failure::Condition::kC8, "C8*",
       "1 ToR-agg link + both across links (SecII-C parenthetical)"},
  };

  core::RunKnobs knobs;
  knobs.horizon = sim::seconds(4);

  stats::Table loss({"Condition", "Failures", "Fat tree loss (ms)",
                     "F2Tree loss (ms)"});
  stats::Table pkts({"Condition", "Fat tree packets lost",
                     "F2Tree packets lost"});
  stats::Table collapse({"Condition", "Fat tree TCP collapse (ms)",
                         "F2Tree TCP collapse (ms)"});

  for (const auto& row : conditions) {
    std::string fat_loss = "-", f2_loss = "-";
    std::string fat_pkts = "-", f2_pkts = "-";
    std::string fat_col = "-", f2_col = "-";

    if (!failure::condition_requires_f2(row.condition)) {
      const auto udp =
          core::run_udp_condition(core::topology_builder("fat", 8),
                                  row.condition, knobs);
      const auto tcp =
          core::run_tcp_condition(core::topology_builder("fat", 8),
                                  row.condition, knobs);
      if (udp.ok) {
        fat_loss = stats::Table::num(sim::to_millis(udp.connectivity_loss), 1);
        fat_pkts = std::to_string(udp.packets_lost);
      }
      if (tcp.ok) fat_col = stats::Table::num(sim::to_millis(tcp.collapse), 0);
    }
    {
      const auto udp =
          core::run_udp_condition(core::topology_builder("f2", 8),
                                  row.condition, knobs);
      const auto tcp =
          core::run_tcp_condition(core::topology_builder("f2", 8),
                                  row.condition, knobs);
      if (udp.ok) {
        f2_loss = stats::Table::num(sim::to_millis(udp.connectivity_loss), 1);
        f2_pkts = std::to_string(udp.packets_lost);
      }
      if (tcp.ok) f2_col = stats::Table::num(sim::to_millis(tcp.collapse), 0);
    }

    loss.row({row.label, row.description, fat_loss, f2_loss});
    pkts.row({row.label, fat_pkts, f2_pkts});
    collapse.row({row.label, fat_col, f2_col});
  }

  stats::print_heading(std::cout, "Fig 4 top: duration of connectivity loss");
  loss.print(std::cout);
  std::cout << "(paper: fat tree ~270 ms everywhere; F2Tree ~60 ms on C1-C6, "
               "degrading to fat tree on C7)\n";

  stats::print_heading(std::cout, "Fig 4 middle: UDP packets lost");
  pkts.print(std::cout);

  stats::print_heading(std::cout,
                       "Fig 4 bottom: TCP throughput collapse duration");
  collapse.print(std::cout);
  std::cout << "(paper: ~610 ms fat tree vs ~220 ms F2Tree on C1-C6)\n";
  return 0;
}
