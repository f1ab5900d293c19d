/// Ablations of the design choices the paper argues for (DESIGN.md §
/// "Design tradeoffs recorded for ablation"):
///
///  1. **Asymmetric backup prefix lengths** (§II-B): install both across
///     links under one equal-length prefix instead. Under condition C4
///     (two adjacent downlinks dead) ECMP can then bounce packets between
///     the two crippled switches — the Fig 3(b) loop — visible as TTL
///     drops and a recovery no better than the control plane's.
///  2. **Ring width 2 vs 4** (§II-C): with 4 across links per switch (and
///     rightward-first backup ordering) even the paper's pathological C7
///     condition fast-reroutes.
///  3. **SPF timer setting** (§III): shortening the initial SPF delay
///     narrows fat tree's recovery gap in the single-failure experiment —
///     at the cost of far more SPF churn under instability, which is why
///     operators raise it instead.

#include <iostream>

#include "bench_util.hpp"

using namespace f2t;
using namespace f2t::bench;

namespace {

void ablation_equal_length_prefixes() {
  stats::print_heading(
      std::cout,
      "Ablation 1: asymmetric (paper) vs equal-length backup prefixes, "
      "condition C4 over 32 distinct flows");

  // Whether a flow loops under equal-length backups depends on the two
  // crippled switches' independent ECMP hashes (right-then-left bounces;
  // roughly a quarter of flows). The paper's asymmetric prefixes make the
  // rightward choice deterministic, so *no* flow loops. Measure the
  // fraction of flows that fail to fast-reroute under each scheme.
  for (const bool equal : {false, true}) {
    int flows = 0;
    int looped = 0;
    std::uint64_t ttl_drops_total = 0;
    std::uint16_t base_sport = 20000;
    while (flows < 32 && base_sport < 24000) {
      core::RunKnobs knobs;
      knobs.horizon = sim::seconds(2);
      knobs.config.backup = equal ? core::BackupMode::kEqualLength
                                  : core::BackupMode::kPaper;
      core::Testbed bed(core::topology_builder("f2", 8), knobs.config);
      bed.converge();
      const auto plan =
          failure::build_condition(bed.topo(), failure::Condition::kC4,
                                   net::Protocol::kUdp, base_sport, 512);
      if (!plan) break;
      base_sport = static_cast<std::uint16_t>(plan->sport + 1);

      transport::UdpSink sink(bed.stack_of(*plan->dst), plan->dport);
      transport::UdpCbrSender::Options so;
      so.sport = plan->sport;
      so.dport = plan->dport;
      so.stop = sim::millis(1500);
      transport::UdpCbrSender sender(bed.stack_of(*plan->src),
                                     plan->dst->addr(), so);
      sender.start();
      for (net::Link* link : plan->fail_links) {
        bed.injector().fail_at(*link, knobs.fail_at);
      }
      bed.sim().run(knobs.horizon);

      std::uint64_t ttl_drops = 0;
      for (auto* sw : bed.topo().all_switches()) {
        ttl_drops += sw->counters().dropped_ttl;
      }
      std::vector<sim::Time> arrivals;
      for (const auto& a : sink.arrivals()) arrivals.push_back(a.at);
      const auto loss =
          stats::find_connectivity_loss(arrivals, knobs.fail_at);
      ++flows;
      // "Looped" = fast reroute failed: TTL deaths or a control-plane
      // sized hole instead of the 60 ms detection floor.
      if (ttl_drops > 0 ||
          (loss && loss->duration() > sim::millis(150))) {
        ++looped;
      }
      ttl_drops_total += ttl_drops;
    }
    std::cout << "  " << (equal ? "equal-length" : "paper (/16 + /15)")
              << ": " << looped << "/" << flows
              << " flows failed fast reroute, total TTL-expired drops = "
              << ttl_drops_total << "\n";
  }
  std::cout << "(expected: 0 looping flows with the paper's asymmetric "
               "prefixes; a substantial fraction with equal lengths, with "
               "packets dying of TTL exhaustion — the Fig 3(b) loop)\n";
}

void ablation_ring_width() {
  stats::print_heading(std::cout,
                       "Ablation 2: ring width 2 vs 4 under condition C7");
  for (const int width : {2, 4}) {
    const auto udp = core::run_udp_condition(
        core::topology_builder("f2", 8, width), failure::Condition::kC7);
    if (!udp.ok) {
      std::cout << "  width " << width << ": (no C7 plan)\n";
      continue;
    }
    std::cout << "  width " << width << ": connectivity loss = "
              << sim::format_time(udp.connectivity_loss) << "\n";
  }
  std::cout << "(expected: width 2 degrades to control-plane recovery "
               "(~270 ms); width 4 keeps fast reroute (~60 ms) as §II-C "
               "suggests)\n";
}

void ablation_spf_timer() {
  stats::print_heading(
      std::cout, "Ablation 3: fat tree recovery vs initial SPF delay (C1)");
  stats::Table table({"SPF initial delay", "Fat tree loss (ms)",
                      "F2Tree loss (ms)"});
  for (const auto delay :
       {sim::millis(50), sim::millis(200), sim::millis(1000)}) {
    core::RunKnobs knobs;
    knobs.horizon = sim::seconds(5);
    knobs.config.ospf.throttle.initial_delay = delay;
    const auto fat = core::run_udp_condition(
        core::topology_builder("fat", 8), failure::Condition::kC1, knobs);
    const auto f2 = core::run_udp_condition(core::topology_builder("f2", 8),
                                            failure::Condition::kC1, knobs);
    table.row({sim::format_time(delay),
               fat.ok ? stats::Table::num(
                            sim::to_millis(fat.connectivity_loss), 1)
                      : "-",
               f2.ok ? stats::Table::num(sim::to_millis(f2.connectivity_loss),
                                         1)
                     : "-"});
  }
  table.print(std::cout);
  std::cout << "(expected: fat tree tracks detection + SPF delay + FIB "
               "update; F2Tree stays at the 60 ms detection floor "
               "regardless)\n";
}

void ablation_tcp_rto() {
  stats::print_heading(
      std::cout,
      "Ablation 4: TCP initial/min RTO vs throughput collapse (C1)");
  // §III: "Setting a shorter initial RTO down to hundreds of us could
  // successfully reduce the duration of TCP throughput collapse both in
  // fat tree and F2Tree. However, it will not narrow the gap between
  // these two methods to be less than the difference between the duration
  // of connectivity loss."
  stats::Table table({"Initial RTO", "Fat tree collapse (ms)",
                      "F2Tree collapse (ms)", "Gap (ms)"});
  for (const auto rto :
       {sim::millis(1), sim::millis(50), sim::millis(200)}) {
    core::RunKnobs knobs;
    knobs.horizon = sim::seconds(4);
    knobs.tcp.initial_rto = rto;
    knobs.tcp.min_rto = rto;
    const auto fat = core::run_tcp_condition(
        core::topology_builder("fat", 8), failure::Condition::kC1, knobs);
    const auto f2 = core::run_tcp_condition(core::topology_builder("f2", 8),
                                            failure::Condition::kC1, knobs);
    if (!fat.ok || !f2.ok) continue;
    table.row({sim::format_time(rto),
               stats::Table::num(sim::to_millis(fat.collapse), 0),
               stats::Table::num(sim::to_millis(f2.collapse), 0),
               stats::Table::num(
                   sim::to_millis(fat.collapse - f2.collapse), 0)});
  }
  table.print(std::cout);
  std::cout << "(expected: shorter RTOs shrink both collapses, but the gap "
               "never drops below the ~210 ms connectivity-loss "
               "difference)\n";
}

void extension_unidirectional() {
  stats::print_heading(
      std::cout,
      "Extension: unidirectional downward-direction cut (paper future "
      "work)");
  // Cut only the Sx -> dst-ToR direction. BFD-style detection declares
  // the session down on both ends, so recovery matches the bidirectional
  // case in both designs while the reverse direction keeps carrying
  // traffic until detection.
  for (const bool f2 : {false, true}) {
    core::Testbed bed(core::topology_builder(f2 ? "f2" : "fat", 8));
    bed.converge();
    const auto plan =
        failure::build_condition(bed.topo(), failure::Condition::kC1);
    if (!plan) continue;
    transport::UdpSink sink(bed.stack_of(*plan->dst), plan->dport);
    transport::UdpCbrSender::Options so;
    so.sport = plan->sport;
    so.dport = plan->dport;
    so.stop = sim::seconds(2);
    transport::UdpCbrSender sender(bed.stack_of(*plan->src),
                                   plan->dst->addr(), so);
    sender.start();
    bed.injector().fail_direction_at(*plan->fail_links.front(), *plan->sx,
                                     sim::millis(380));
    bed.sim().run(sim::seconds(3));
    std::vector<sim::Time> arrivals;
    for (const auto& a : sink.arrivals()) arrivals.push_back(a.at);
    const auto loss =
        stats::find_connectivity_loss(arrivals, sim::millis(380));
    std::cout << "  " << (f2 ? "F2Tree" : "fat tree")
              << ": connectivity loss = "
              << (loss ? sim::format_time(loss->duration())
                       : std::string("none"))
              << "\n";
  }
}

void extension_gray_failure() {
  stats::print_heading(
      std::cout,
      "Extension: gray failure (silent 30% loss, no detection event)");
  // Honest limitation: F²Tree accelerates recovery from *detected*
  // failures. A silently lossy link never trips BFD, so neither design's
  // reroute machinery engages and TCP pays the loss rate on both.
  for (const bool f2 : {false, true}) {
    core::Testbed bed(core::topology_builder(f2 ? "f2" : "fat", 8));
    bed.converge();
    const auto plan = failure::build_condition(
        bed.topo(), failure::Condition::kC1, net::Protocol::kTcp);
    if (!plan) continue;
    sim::Random rng(21);
    plan->fail_links.front()->set_loss_rate(net::Link::Direction::kAToB, 0.3,
                                            &rng);

    auto& a = bed.stack_of(*plan->src);
    auto& b = bed.stack_of(*plan->dst);
    transport::TcpConnection conn(a, b, plan->sport, plan->dport,
                                  transport::TcpConfig{});
    conn.a().write(2'000'000);
    const sim::Time t0 = bed.sim().now();
    sim::Time done = sim::kNever;
    conn.b().set_on_delivered([&](std::uint64_t d) {
      if (d >= 2'000'000 && done == sim::kNever) done = bed.sim().now();
    });
    bed.sim().run(sim::seconds(120));
    std::cout << "  " << (f2 ? "F2Tree" : "fat tree")
              << ": 2 MB transfer took "
              << (done == sim::kNever ? std::string("(did not finish)")
                                      : sim::format_time(done - t0))
              << ", retransmissions = "
              << conn.a().stats().segments_retransmitted
              << ", gray drops = "
              << plan->fail_links.front()->dropped_gray() << "\n";
  }
  std::cout << "(expected: both designs suffer alike — the rewiring only "
               "helps once a failure is *detected*; silent loss needs "
               "gray-failure detectors, out of the paper's scope)\n";
}

}  // namespace

int main() {
  std::cout << "F2Tree reproduction - design ablations\n";
  ablation_equal_length_prefixes();
  ablation_ring_width();
  ablation_spf_timer();
  ablation_tcp_rto();
  extension_unidirectional();
  extension_gray_failure();
  return 0;
}
