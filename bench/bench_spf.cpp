/// Control-plane fast-path benchmark: single-link-failure reconvergence
/// SPF, full Dijkstra (compute_spf) vs the incremental SpfSolver, at
/// k = 8/16/20/32 fat trees, plus the FIB install delta each recompute
/// produces, the wall clock of one CentralController::converge() — the
/// distance rows, 64 destinations per pass, then every switch's routes
/// and FIB install — at k = 16 and 32, and of one batched controller
/// recompute after a ToR uplink failure at k = 32. Each converge's routes
/// are checked against compute_spf, outside the timed region.
/// Emits BENCH_spf.json (see bench_util.hpp); the committed Release
/// baseline lives in bench/baselines/.
///
/// The scenario is the paper's common case: a remote ToR uplink in
/// another pod fails and recovers while the computing router — an
/// aggregation switch, whose first-hop sets actually change when a
/// remote rack loses an uplink — reconverges. Each direction of the cut
/// arrives as its own LSA, exactly as flooding delivers it, and the SPF
/// run after both is what reconvergence pays per event.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bench_util.hpp"
#include "core/f2tree.hpp"

using namespace f2t;

namespace {

using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Reissues `base` with `peer` removed from its links (the LSA a router
/// floods when one adjacency dies), or verbatim when peer is 0.
routing::LsaPtr reissue(const routing::Lsa& base, net::Ipv4Addr peer,
                        std::uint64_t seq) {
  auto lsa = std::make_shared<routing::Lsa>(base);
  lsa->sequence = seq;
  std::erase_if(lsa->links, [&](const routing::LsaLink& l) {
    return l.neighbor == peer;
  });
  return lsa;
}

std::vector<routing::Route> canonical(std::vector<routing::Route> routes) {
  std::sort(routes.begin(), routes.end(),
            [](const routing::Route& a, const routing::Route& b) {
              if (a.prefix != b.prefix) return a.prefix < b.prefix;
              return a.next_hops < b.next_hops;
            });
  return routes;
}

struct CaseResult {
  double full_ns_per_run = 0;
  double incremental_ns_per_run = 0;
  std::size_t delta_down = 0;   ///< FIB slots touched by the failure
  std::size_t delta_up = 0;     ///< ... and by the recovery
  std::size_t routes = 0;       ///< converged route count at the agg
  std::size_t switches = 0;
  bool equivalent = false;
  bool all_incremental = false;
};

CaseResult run_case(int ports, int iterations) {
  sim::Simulator sim(1);
  net::Network network(sim);
  const auto topo =
      topo::build_fat_tree(network, topo::FatTreeOptions{.ports = ports});

  // Full LSDB by hand, as warm start builds it.
  std::vector<std::unique_ptr<routing::Ospf>> instances;
  for (auto* sw : topo.all_switches()) {
    auto inst = std::make_unique<routing::Ospf>(*sw);
    if (auto it = topo.subnet_of_tor.find(sw);
        it != topo.subnet_of_tor.end()) {
      inst->redistribute(it->second);
    }
    instances.push_back(std::move(inst));
  }
  routing::Lsdb lsdb;
  std::unordered_map<net::Ipv4Addr, routing::LsaPtr> base;
  for (auto& inst : instances) {
    auto lsa = inst->make_self_lsa();
    base[lsa->origin] = lsa;
    lsdb.consider(lsa);
  }

  net::L3Switch* self_sw = topo.aggs.front();
  const net::Ipv4Addr self = self_sw->router_id();
  const auto adjacency = routing::live_adjacency(*self_sw);

  // The failing link: the last pod's last ToR and its first uplink —
  // maximally remote from the computing aggregation switch in pod 0.
  net::L3Switch* tor_sw = topo.tors.back();
  const net::Ipv4Addr tor = tor_sw->router_id();
  net::Ipv4Addr agg;
  for (net::PortId p = 0; p < tor_sw->port_count(); ++p) {
    const auto& info = tor_sw->port(p);
    if (info.peer_is_switch) {
      agg = info.peer_addr;
      break;
    }
  }

  const routing::Lsa& tor_base = *base.at(tor);
  const routing::Lsa& agg_base = *base.at(agg);
  std::uint64_t seq = 2;

  CaseResult out;
  out.switches = topo.all_switches().size();

  // --- Full recompute timing -------------------------------------------
  double full_ns = 0;
  std::size_t sink = 0;
  for (int i = 0; i < iterations; ++i) {
    lsdb.consider(reissue(tor_base, agg, seq++));
    lsdb.consider(reissue(agg_base, tor, seq++));
    auto t0 = Clock::now();
    auto routes = routing::compute_spf(lsdb, self, adjacency);
    auto t1 = Clock::now();
    full_ns += ns_between(t0, t1);
    sink += routes.size();
    lsdb.consider(reissue(tor_base, {}, seq++));
    lsdb.consider(reissue(agg_base, {}, seq++));
    t0 = Clock::now();
    routes = routing::compute_spf(lsdb, self, adjacency);
    t1 = Clock::now();
    full_ns += ns_between(t0, t1);
    sink += routes.size();
  }
  out.full_ns_per_run = full_ns / (2.0 * iterations);

  // --- Incremental solver timing ---------------------------------------
  routing::SpfSolver solver;
  out.routes = solver.run(lsdb, self, adjacency).size();  // prime: full run
  bool all_incremental = true;
  double inc_ns = 0;
  for (int i = 0; i < iterations; ++i) {
    lsdb.consider(reissue(tor_base, agg, seq++));
    lsdb.consider(reissue(agg_base, tor, seq++));
    auto t0 = Clock::now();
    auto routes = solver.run(lsdb, self, adjacency);
    auto t1 = Clock::now();
    inc_ns += ns_between(t0, t1);
    all_incremental = all_incremental && solver.last_run_incremental();
    sink += routes.size();
    lsdb.consider(reissue(tor_base, {}, seq++));
    lsdb.consider(reissue(agg_base, {}, seq++));
    t0 = Clock::now();
    routes = solver.run(lsdb, self, adjacency);
    t1 = Clock::now();
    inc_ns += ns_between(t0, t1);
    all_incremental = all_incremental && solver.last_run_incremental();
    sink += routes.size();
  }
  out.incremental_ns_per_run = inc_ns / (2.0 * iterations);
  out.all_incremental = all_incremental;
  if (sink == 0) std::cerr << "bench_spf: empty route sets\n";

  // --- Equivalence sanity + FIB install delta sizes --------------------
  out.equivalent = canonical(solver.run(lsdb, self, adjacency)) ==
                   canonical(routing::compute_spf(lsdb, self, adjacency));
  routing::Fib fib;
  fib.apply_source_delta(routing::RouteSource::kOspf,
                         solver.run(lsdb, self, adjacency));
  lsdb.consider(reissue(tor_base, agg, seq++));
  lsdb.consider(reissue(agg_base, tor, seq++));
  out.delta_down = fib.apply_source_delta(routing::RouteSource::kOspf,
                                          solver.run(lsdb, self, adjacency));
  lsdb.consider(reissue(tor_base, {}, seq++));
  lsdb.consider(reissue(agg_base, {}, seq++));
  out.delta_up = fib.apply_source_delta(routing::RouteSource::kOspf,
                                        solver.run(lsdb, self, adjacency));
  return out;
}

/// Whether every 16th switch's OSPF FIB entries equal compute_spf's routes
/// for it on a view of every switch's live_links and rack prefix, minus
/// the switch's own prefix: what the controller must have installed.
bool routes_follow_spf(const topo::BuiltTopology& topo) {
  const auto switches = topo.all_switches();
  routing::Lsdb view;
  for (net::L3Switch* sw : switches) {
    auto lsa = std::make_shared<routing::Lsa>();
    lsa->origin = sw->router_id();
    lsa->sequence = 1;
    lsa->links = routing::live_links(*sw);
    if (const auto it = topo.subnet_of_tor.find(sw);
        it != topo.subnet_of_tor.end()) {
      lsa->prefixes.push_back(it->second);
    }
    view.consider(lsa);
  }
  for (std::size_t s = 0; s < switches.size(); s += 16) {
    net::L3Switch& sw = *switches[s];
    auto want = routing::compute_spf(view, sw.router_id(),
                                     routing::live_adjacency(sw));
    if (const auto it = topo.subnet_of_tor.find(&sw);
        it != topo.subnet_of_tor.end()) {
      std::erase_if(want, [&](const routing::Route& r) {
        return r.prefix == it->second;
      });
    }
    auto got = sw.fib().dump();
    std::erase_if(got, [](const routing::Route& r) {
      return r.source != routing::RouteSource::kOspf;
    });
    if (canonical(std::move(got)) != canonical(std::move(want))) return false;
  }
  return true;
}

/// Median wall clock (ms) of one initial CentralController::converge() on
/// a freshly built k-port fat tree with one host per ToR (hosts carry no
/// routing state); `reps` fresh fabrics. Returns a negative value when,
/// after any of them, routes_follow_spf fails (checked untimed).
double central_converge_ms(int ports, int reps) {
  core::TestbedConfig config;
  config.control_plane = core::ControlPlane::kCentral;
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    core::Testbed bed(
        [ports](net::Network& n) {
          return topo::build_fat_tree(
              n, topo::FatTreeOptions{.ports = ports, .hosts_per_tor = 1});
        },
        config);
    const auto t0 = Clock::now();
    bed.controller().converge();
    samples.push_back(ns_between(t0, Clock::now()) / 1e6);
    if (!routes_follow_spf(bed.topo())) return -1;
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Median wall clock (ms) of one batched controller recompute on a
/// converged k-port fat tree with one host per ToR: one ToR–aggregation
/// link fails, and sim().run is timed from the failure until the last
/// push lands; `reps` fresh fabrics. Returns a negative value when the
/// run did not end in exactly one recompute pushed to every switch, or
/// when a converge() after it, which fills every column and applies
/// whole route sets, writes any FIB slot: the recompute's changed-route
/// pushes must leave every FIB as the full computation has it.
double central_recompute_ms(int ports, int reps) {
  core::TestbedConfig config;
  config.control_plane = core::ControlPlane::kCentral;
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    core::Testbed bed(
        [ports](net::Network& n) {
          return topo::build_fat_tree(
              n, topo::FatTreeOptions{.ports = ports, .hosts_per_tor = 1});
        },
        config);
    bed.converge();
    const auto& pod = bed.topo().pods.front();
    net::Link* link = bed.network().find_link(*pod.tors.front(),
                                              *pod.aggs.front());
    if (link == nullptr) return -1;
    // Nothing is scheduled before the failure, and the last push lands
    // 114 ms after it (detection, report, batch, compute, push, FIB).
    bed.injector().fail_at(*link, sim::millis(10));
    const auto t0 = Clock::now();
    bed.sim().run(sim::seconds(1));
    samples.push_back(ns_between(t0, Clock::now()) / 1e6);
    const auto& counters = bed.controller().counters();
    const auto switches = bed.topo().all_switches();
    if (counters.computations != 2 || counters.fib_pushes != switches.size()) {
      return -1;
    }
    std::vector<std::uint64_t> generations;
    for (const net::L3Switch* sw : switches) {
      generations.push_back(sw->fib().generation());
    }
    bed.controller().converge();
    for (std::size_t s = 0; s < switches.size(); ++s) {
      if (switches[s]->fib().generation() != generations[s]) return -1;
    }
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

int main() {
  const struct {
    int ports;
    int iterations;
  } cases[] = {{8, 200}, {16, 50}, {20, 20}, {32, 10}};

  std::vector<bench::BenchResult> results;
  bool ok = true;
  std::cout << "single-link-failure reconvergence SPF, fat tree\n"
            << "  k   switches  routes  full ns/run  incr ns/run  speedup"
            << "  delta(down/up)\n";
  for (const auto& c : cases) {
    const CaseResult r = run_case(c.ports, c.iterations);
    const double speedup =
        r.incremental_ns_per_run > 0
            ? r.full_ns_per_run / r.incremental_ns_per_run
            : 0;
    std::cout << "  " << c.ports << "  " << r.switches << "  " << r.routes
              << "  " << r.full_ns_per_run << "  " << r.incremental_ns_per_run
              << "  " << speedup << "x  " << r.delta_down << "/" << r.delta_up
              << (r.equivalent ? "" : "  [MISMATCH]")
              << (r.all_incremental ? "" : "  [FELL BACK TO FULL]") << "\n";
    ok = ok && r.equivalent && r.all_incremental;
    std::string k = "/";
    k += std::to_string(c.ports);
    results.push_back({"SpfFullLinkFailure" + k, "real_time",
                       r.full_ns_per_run, "ns"});
    results.push_back({"SpfIncrementalLinkFailure" + k, "real_time",
                       r.incremental_ns_per_run, "ns"});
    results.push_back({"SpfIncremental_speedup" + k, "speedup", speedup, "x"});
    results.push_back({"SpfFibDeltaDown" + k, "size",
                       static_cast<double>(r.delta_down), "entries"});
    results.push_back({"SpfFibDeltaUp" + k, "size",
                       static_cast<double>(r.delta_up), "entries"});
    results.push_back({"SpfRoutes" + k, "size",
                       static_cast<double>(r.routes), "routes"});
  }

  std::cout << "one CentralController::converge(), fat tree\n"
            << "  k   converge ms\n";
  bool converged = true;
  for (const auto& [ports, reps] : {std::pair{16, 5}, std::pair{32, 9}}) {
    const double ms = central_converge_ms(ports, reps);
    std::cout << "  " << ports << "  " << ms << "\n";
    results.push_back({"CentralConverge/" + std::to_string(ports),
                       "real_time", ms, "ms"});
    converged = converged && ms >= 0;
  }

  const double recompute_ms = central_recompute_ms(32, 9);
  std::cout << "one batched controller recompute after a ToR uplink "
               "failure, fat tree\n"
            << "  k   recompute ms\n"
            << "  32  " << recompute_ms << "\n";
  results.push_back({"CentralRecompute/32", "real_time", recompute_ms, "ms"});

  if (!ok) {
    std::cerr << "bench_spf: solver diverged from compute_spf or fell back\n";
    return 1;
  }
  if (!converged) {
    std::cerr << "bench_spf: a converge() installed routes that differ "
                 "from compute_spf\n";
    return 1;
  }
  if (recompute_ms < 0) {
    std::cerr << "bench_spf: the failure did not cause exactly one "
                 "recompute pushed to every switch, or a converge() after "
                 "it rewrote a FIB\n";
    return 1;
  }
  if (!bench::write_bench_json("spf", results)) {
    std::cerr << "bench_spf: failed to write BENCH_spf.json\n";
    return 1;
  }
  std::cout << "wrote BENCH_spf.json (" << results.size() << " results)\n";
  return 0;
}
