/// Reproduces **Fig 5**: end-to-end packet delay during failure recovery.
/// The paper plots fat tree under C1 and F²Tree under C1, C4, C5 and C7:
/// fat tree shows a ~270 ms hole; F²Tree shows a short 60 ms hole followed
/// by a fast-reroute period with slightly higher delay (one or more extra
/// hops through across links) until the control plane converges, after
/// which delay returns to baseline.

#include <iostream>

#include "bench_util.hpp"

using namespace f2t;
using namespace f2t::bench;

namespace {

void print_delay_series(const std::string& name,
                        const stats::TimeSeries& series, sim::Time from,
                        sim::Time to) {
  std::cout << "# " << name << ": time_ms delay_us\n";
  // Average per 10 ms window for a readable series.
  for (sim::Time t = from; t < to; t += sim::millis(10)) {
    const double mean = series.mean(t, t + sim::millis(10));
    std::cout << "  " << sim::to_millis(t) << " "
              << (mean > 0 ? stats::Table::num(mean, 1) : std::string("-"))
              << "\n";
  }
}

struct Phase {
  double baseline_us;  ///< mean delay before the failure
  double frr_us;       ///< mean delay during fast rerouting
  double final_us;     ///< mean delay after control-plane convergence
};

Phase phases(const stats::TimeSeries& series, sim::Time fail_at) {
  return Phase{
      series.mean(sim::millis(100), fail_at),
      series.mean(fail_at + sim::millis(70), fail_at + sim::millis(200)),
      series.mean(fail_at + sim::millis(600), fail_at + sim::millis(1200)),
  };
}

}  // namespace

int main() {
  std::cout << "F2Tree reproduction - Fig 5: end-to-end delay during "
               "failure recovery (8-port, failure at t = 380 ms)\n";

  core::RunKnobs knobs;
  knobs.horizon = sim::seconds(4);

  struct Case {
    std::string name;
    core::Testbed::TopoBuilder builder;
    failure::Condition condition;
  };
  const std::vector<Case> cases = {
      {"fat tree / C1", core::topology_builder("fat", 8),
       failure::Condition::kC1},
      {"F2Tree / C1", core::topology_builder("f2", 8), failure::Condition::kC1},
      {"F2Tree / C4", core::topology_builder("f2", 8), failure::Condition::kC4},
      {"F2Tree / C5", core::topology_builder("f2", 8), failure::Condition::kC5},
      {"F2Tree / C7", core::topology_builder("f2", 8), failure::Condition::kC7},
  };

  stats::Table summary({"Case", "Baseline delay (us)",
                        "During fast reroute (us)", "After convergence (us)",
                        "Connectivity hole (ms)"});
  std::vector<std::pair<std::string, stats::TimeSeries>> all_series;

  for (const auto& c : cases) {
    const auto udp = core::run_udp_condition(c.builder, c.condition, knobs);
    if (!udp.ok) {
      summary.row({c.name, "-", "-", "-", "-"});
      continue;
    }
    const Phase p = phases(udp.delay_series, knobs.fail_at);
    summary.row({c.name, stats::Table::num(p.baseline_us, 1),
                 p.frr_us > 0 ? stats::Table::num(p.frr_us, 1)
                              : std::string("(no traffic)"),
                 stats::Table::num(p.final_us, 1),
                 stats::Table::num(sim::to_millis(udp.connectivity_loss), 1)});
    all_series.emplace_back(c.name, udp.delay_series);
  }

  stats::print_heading(std::cout, "Fig 5 summary (phase means)");
  summary.print(std::cout);
  std::cout << "(paper: baseline ~100 us; F2Tree fast reroute ~117 us (one "
               "extra hop), more under C4/C5; back to ~100 us after "
               "convergence; fat tree and F2Tree/C7 show a ~270 ms hole)\n";

  stats::print_heading(std::cout, "Fig 5 series");
  for (const auto& [name, series] : all_series) {
    print_delay_series(name, series, sim::millis(300), sim::millis(900));
  }
  return 0;
}
