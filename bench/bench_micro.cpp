/// Substrate micro-benchmarks (google-benchmark): FIB longest-prefix
/// match (the seed's allocating lookup, replicated here, the
/// allocation-free lookup_into, and the cached resolved-route fast path),
/// ECMP hashing, SPF computation and its first-hop set representation,
/// event-queue throughput and topology construction. These back the
/// claim that the simulator is a packet-level engine fast enough for the
/// paper's 600 s emulations.
///
/// Unlike the figure/table benches this binary has a custom main: it runs
/// the registered benchmarks through a collecting reporter, derives the
/// fast-path speedup ratios, and writes BENCH_micro.json (see
/// bench_util.hpp) so the perf trajectory is tracked across PRs.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <functional>
#include <iostream>
#include <memory>
#include <queue>
#include <set>
#include <unordered_map>

#include "bench_util.hpp"
#include "core/f2tree.hpp"
#include "core/runner.hpp"
#include "exec/campaign.hpp"
#include "routing/ecmp.hpp"
#include "routing/route_cache.hpp"
#include "sim/event.hpp"
#include "topo/addressing.hpp"

using namespace f2t;

namespace {

/// Faithful replica of the seed's Fib lookup path (pre fast-path): probes
/// all 33 prefix lengths longest-first, rescans each slot for the best
/// source, takes a std::function liveness predicate and heap-allocates the
/// result. Kept here so BENCH_micro.json records the speedup against the
/// true baseline even though the library has moved on.
class SeedFib {
 public:
  using PortUpFn = std::function<bool(net::PortId)>;

  void install(routing::Route route) {
    Slot& slot = by_length_[static_cast<std::size_t>(route.prefix.length())]
                           [route.prefix.address().value()];
    for (routing::Route& r : slot.by_source) {
      if (r.source == route.source) {
        r = std::move(route);
        return;
      }
    }
    slot.by_source.push_back(std::move(route));
  }

  std::vector<routing::NextHop> lookup(net::Ipv4Addr dst,
                                       const PortUpFn& port_up) const {
    for (int length = 32; length >= 0; --length) {
      const auto& bucket = by_length_[static_cast<std::size_t>(length)];
      if (bucket.empty()) continue;
      const std::uint32_t mask =
          length == 0 ? 0u : (~std::uint32_t{0} << (32 - length));
      const auto it = bucket.find(dst.value() & mask);
      if (it == bucket.end()) continue;
      const routing::Route* best = nullptr;
      for (const routing::Route& r : it->second.by_source) {
        if (best == nullptr ||
            static_cast<int>(r.source) < static_cast<int>(best->source)) {
          best = &r;
        }
      }
      if (best == nullptr) continue;
      std::vector<routing::NextHop> usable;
      usable.reserve(best->next_hops.size());
      for (const routing::NextHop& nh : best->next_hops) {
        if (!port_up || port_up(nh.port)) usable.push_back(nh);
      }
      if (!usable.empty()) return usable;
    }
    return {};
  }

 private:
  struct Slot {
    std::vector<routing::Route> by_source;
  };
  std::array<std::unordered_map<std::uint32_t, Slot>, 33> by_length_;
};

template <typename FibLike>
FibLike make_bench_fib_like(int n) {
  FibLike fib;
  for (int i = 0; i < n; ++i) {
    fib.install(routing::Route{
        net::Prefix(net::Ipv4Addr(10, 11, static_cast<std::uint8_t>(i % 256),
                                  0),
                    24),
        {routing::NextHop{static_cast<net::PortId>(i % 8), {}}},
        routing::RouteSource::kOspf});
  }
  fib.install(routing::Route{net::Prefix::parse("10.11.0.0/16"),
                             {routing::NextHop{9, {}}},
                             routing::RouteSource::kStatic});
  return fib;
}

// The seed implementation, replicated above: the denominator every
// fast-path speedup in BENCH_micro.json is measured against.
void BM_FibLookupSeed(benchmark::State& state) {
  const auto fib = make_bench_fib_like<SeedFib>(static_cast<int>(state.range(0)));
  auto up = [](net::PortId) { return true; };
  std::uint32_t i = 0;
  for (auto _ : state) {
    const net::Ipv4Addr dst(10, 11, static_cast<std::uint8_t>(i++ % 256), 7);
    benchmark::DoNotOptimize(fib.lookup(dst, up));
  }
}
BENCHMARK(BM_FibLookupSeed)->Arg(32)->Arg(256);

routing::Fib make_bench_fib(int n) {
  return make_bench_fib_like<routing::Fib>(n);
}

// Allocation-free walk: bool-vector port view, SmallVec result reused
// across lookups.
void BM_FibLookupInto(benchmark::State& state) {
  const routing::Fib fib = make_bench_fib(static_cast<int>(state.range(0)));
  const std::vector<bool> ports(16, true);
  const routing::Fib::PortStateView view{&ports};
  routing::Fib::HopVec hops;
  std::uint32_t i = 0;
  for (auto _ : state) {
    const net::Ipv4Addr dst(10, 11, static_cast<std::uint8_t>(i++ % 256), 7);
    hops.clear();
    fib.lookup_into(dst, view, hops);
    benchmark::DoNotOptimize(hops.data());
  }
}
BENCHMARK(BM_FibLookupInto)->Arg(32)->Arg(256);

// The forwarding fast path proper: resolved-route cache in front of the
// allocation-free walk; steady state is all hits.
void BM_FibLookupResolved(benchmark::State& state) {
  const routing::Fib fib = make_bench_fib(static_cast<int>(state.range(0)));
  const std::vector<bool> ports(16, true);
  const routing::Fib::PortStateView view{&ports};
  routing::ResolvedRouteCache cache;
  std::uint32_t i = 0;
  for (auto _ : state) {
    const net::Ipv4Addr dst(10, 11, static_cast<std::uint8_t>(i++ % 256), 7);
    benchmark::DoNotOptimize(cache.resolve(fib, dst, view, 0).data());
  }
}
BENCHMARK(BM_FibLookupResolved)->Arg(32)->Arg(256);

// Worst case for the cache: every lookup happens under a fresh port
// epoch (as right after a detection event), so every resolve misses and
// re-walks. Measures the cache's overhead over the bare walk.
void BM_FibLookupResolvedInvalidated(benchmark::State& state) {
  const routing::Fib fib = make_bench_fib(static_cast<int>(state.range(0)));
  const std::vector<bool> ports(16, true);
  const routing::Fib::PortStateView view{&ports};
  routing::ResolvedRouteCache cache;
  std::uint64_t epoch = 0;
  std::uint32_t i = 0;
  for (auto _ : state) {
    const net::Ipv4Addr dst(10, 11, static_cast<std::uint8_t>(i++ % 256), 7);
    benchmark::DoNotOptimize(cache.resolve(fib, dst, view, ++epoch).data());
  }
}
BENCHMARK(BM_FibLookupResolvedInvalidated)->Arg(256);

void BM_FibLookupFallthrough(benchmark::State& state) {
  // The fast-reroute path: the /24 is dead, lookup falls to the statics.
  routing::Fib fib;
  fib.install(routing::Route{net::Prefix::parse("10.11.3.0/24"),
                             {routing::NextHop{0, {}}},
                             routing::RouteSource::kOspf});
  fib.install(routing::Route{net::Prefix::parse("10.11.0.0/16"),
                             {routing::NextHop{1, {}}},
                             routing::RouteSource::kStatic});
  fib.install(routing::Route{net::Prefix::parse("10.10.0.0/15"),
                             {routing::NextHop{2, {}}},
                             routing::RouteSource::kStatic});
  std::vector<bool> ports(16, true);
  ports[0] = false;
  const routing::Fib::PortStateView view{&ports};
  routing::Fib::HopVec hops;
  for (auto _ : state) {
    hops.clear();
    fib.lookup_into(net::Ipv4Addr(10, 11, 3, 9), view, hops);
    benchmark::DoNotOptimize(hops.data());
  }
}
BENCHMARK(BM_FibLookupFallthrough);

// Same fall-through resolved through the cache: after the first miss the
// backup answer is served from the cache (port state is unchanged, so the
// stamp stays valid — exactly the steady state between detection and the
// control plane's eventual FIB rewrite).
void BM_FibLookupFallthroughResolved(benchmark::State& state) {
  routing::Fib fib;
  fib.install(routing::Route{net::Prefix::parse("10.11.3.0/24"),
                             {routing::NextHop{0, {}}},
                             routing::RouteSource::kOspf});
  fib.install(routing::Route{net::Prefix::parse("10.11.0.0/16"),
                             {routing::NextHop{1, {}}},
                             routing::RouteSource::kStatic});
  fib.install(routing::Route{net::Prefix::parse("10.10.0.0/15"),
                             {routing::NextHop{2, {}}},
                             routing::RouteSource::kStatic});
  std::vector<bool> ports(16, true);
  ports[0] = false;
  const routing::Fib::PortStateView view{&ports};
  routing::ResolvedRouteCache cache;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.resolve(fib, net::Ipv4Addr(10, 11, 3, 9), view, 1).data());
  }
}
BENCHMARK(BM_FibLookupFallthroughResolved);

/// One switch's share of a k = 32 central converge: a route to each of
/// the other 511 ToR subnets, in ToR order as the controller emits them,
/// over 20 shared next-hop groups.
std::vector<routing::Route> k32_route_set() {
  std::vector<routing::NextHopGroup> groups;
  for (int g = 0; g < 20; ++g) {
    groups.push_back(routing::NextHopGroup(
        {routing::NextHop{static_cast<net::PortId>(g % 16), {}},
         routing::NextHop{static_cast<net::PortId>(16 + g), {}}}));
  }
  std::vector<routing::Route> routes;
  for (int t = 1; t < 512; ++t) {
    routes.push_back(routing::Route{topo::AddressPlan::tor_subnet(t),
                                    groups[static_cast<std::size_t>(t % 20)],
                                    routing::RouteSource::kOspf});
  }
  return routes;
}

enum class DeltaCase { kEmptyFib, kNoop, kOneChanged };

// FIB apply, where every control plane's route set lands: the set
// applied to an empty FIB (a converge's first install), again unchanged
// (a no-op recompute), and with one route's group changed (a recompute's
// delta). The set is copied outside the timed region; it is consumed
// inside, as a producer's set is.
void BM_FibApplySourceDelta(benchmark::State& state, DeltaCase which) {
  const std::vector<routing::Route> routes = k32_route_set();
  std::vector<routing::Route> changed = routes;
  changed[255].next_hops = changed[256].next_hops;
  auto fib = std::make_unique<routing::Fib>();
  fib->apply_source_delta(routing::RouteSource::kOspf, routes);
  bool flip = false;
  for (auto _ : state) {
    state.PauseTiming();
    if (which == DeltaCase::kEmptyFib) fib = std::make_unique<routing::Fib>();
    flip = !flip;
    std::vector<routing::Route> set =
        which == DeltaCase::kOneChanged && flip ? changed : routes;
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        fib->apply_source_delta(routing::RouteSource::kOspf, std::move(set)));
  }
}
BENCHMARK_CAPTURE(BM_FibApplySourceDelta, empty_fib, DeltaCase::kEmptyFib);
BENCHMARK_CAPTURE(BM_FibApplySourceDelta, noop, DeltaCase::kNoop);
BENCHMARK_CAPTURE(BM_FibApplySourceDelta, one_changed, DeltaCase::kOneChanged);

/// Two-switch fixture for the L3Switch::forward fast path: a static route
/// steers everything out of the inter-switch port, whose egress direction
/// is physically down — transmit() then drops the packet inline without
/// scheduling events, so the loop isolates exactly
/// ttl-decrement + cached resolve + ECMP + tap dispatch + transmit.
struct ForwardBench {
  sim::Simulator sim{1};
  net::Network net{sim};
  net::L3Switch* sw = nullptr;

  ForwardBench() {
    sw = &net.add_switch("a", net::Ipv4Addr(10, 0, 0, 1));
    auto& peer = net.add_switch("b", net::Ipv4Addr(10, 0, 0, 2));
    auto& link = net.connect(*sw, peer);
    sw->fib().install(routing::Route{net::Prefix::parse("10.11.0.0/16"),
                                     {routing::NextHop{0, peer.router_id()}},
                                     routing::RouteSource::kStatic});
    link.set_direction_up(link.direction_from(*sw), false);
  }

  net::Packet packet() const {
    net::Packet p;
    p.src = net::Ipv4Addr(10, 0, 0, 9);
    p.dst = net::Ipv4Addr(10, 11, 3, 7);
    p.size_bytes = 1000;
    return p;
  }
};

// Observability disabled: no taps, no drop handler. The zero-overhead
// claim of the obs layer is this number staying flat across PRs.
void BM_SwitchForward(benchmark::State& state) {
  ForwardBench bench;
  const net::Packet proto = bench.packet();
  for (auto _ : state) {
    net::Packet p = proto;  // fresh ttl each iteration
    benchmark::DoNotOptimize(bench.sw->forward(std::move(p)));
  }
}
BENCHMARK(BM_SwitchForward);

// Same path with one forwarding tap attached (what PacketTracer or the
// event journal costs per packet, excluding their own recording work).
void BM_SwitchForwardTapped(benchmark::State& state) {
  ForwardBench bench;
  std::uint64_t seen = 0;
  bench.sw->add_forward_tap(
      [&seen](const net::Packet&, net::PortId, net::PortId) { ++seen; });
  const net::Packet proto = bench.packet();
  for (auto _ : state) {
    net::Packet p = proto;
    benchmark::DoNotOptimize(bench.sw->forward(std::move(p)));
  }
  benchmark::DoNotOptimize(seen);
}
BENCHMARK(BM_SwitchForwardTapped);

void BM_EcmpHash(benchmark::State& state) {
  net::Packet p;
  p.src = net::Ipv4Addr(10, 11, 0, 10);
  p.dst = net::Ipv4Addr(10, 11, 9, 10);
  std::uint16_t sport = 0;
  for (auto _ : state) {
    p.sport = ++sport;
    benchmark::DoNotOptimize(routing::ecmp_select(p, 42, 4));
  }
}
BENCHMARK(BM_EcmpHash);

void BM_Spf(benchmark::State& state) {
  const int ports = static_cast<int>(state.range(0));
  sim::Simulator sim(1);
  net::Network net(sim);
  const auto topo =
      topo::build_fat_tree(net, topo::FatTreeOptions{.ports = ports});
  // Build the full LSDB by hand (what warm start does).
  std::vector<std::unique_ptr<routing::Ospf>> instances;
  for (auto* sw : topo.all_switches()) {
    auto inst = std::make_unique<routing::Ospf>(*sw);
    if (auto it = topo.subnet_of_tor.find(sw); it != topo.subnet_of_tor.end()) {
      inst->redistribute(it->second);
    }
    instances.push_back(std::move(inst));
  }
  routing::Lsdb lsdb;
  for (auto& inst : instances) lsdb.consider(inst->make_self_lsa());
  // Compute at one core switch.
  auto* sw = topo.cores.front();
  const auto adj = routing::live_adjacency(*sw);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        routing::compute_spf(lsdb, sw->router_id(), adj));
  }
}
BENCHMARK(BM_Spf)->Arg(8)->Arg(16);

// First-hop set representations head to head: the union/insert pattern
// Dijkstra's relaxation performs, on the seed's std::set<Ipv4Addr> vs the
// SpfArrays bitset rows compute_spf uses now. 8 ECMP members, 16 unions —
// roughly one destination's worth of relaxations in a k=16 fat tree.
void BM_SpfFirstHopsStdSet(benchmark::State& state) {
  for (auto _ : state) {
    std::set<net::Ipv4Addr> acc;
    std::set<net::Ipv4Addr> member;
    for (std::uint32_t i = 0; i < 8; ++i) member.insert(net::Ipv4Addr(i * 7));
    for (int round = 0; round < 16; ++round) {
      acc.insert(member.begin(), member.end());
    }
    benchmark::DoNotOptimize(acc.size());
  }
}
BENCHMARK(BM_SpfFirstHopsStdSet);

void BM_SpfFirstHopsBitset(benchmark::State& state) {
  routing::SpfArrays a;
  for (auto _ : state) {
    a.begin(2, 8);  // node 0 accumulates, node 1 is the ECMP member
    a.touch(0);
    a.touch(1);
    for (std::size_t i = 0; i < 8; ++i) a.add_hop(1, i);
    for (int round = 0; round < 16; ++round) {
      benchmark::DoNotOptimize(a.unite_hops(0, 1));
    }
  }
}
BENCHMARK(BM_SpfFirstHopsBitset);

void BM_SchedulerChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      sched.schedule_at(i * 10, [&fired] { ++fired; });
    }
    sched.run();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_SchedulerChurn);

// The one-shot-timer pattern everywhere in the transport layer: schedule,
// maybe fire, cancel late. Exercises the in-heap id tracking that makes a
// late cancel a true no-op.
void BM_SchedulerCancelChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    std::vector<sim::EventId> ids;
    ids.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(sched.schedule_at(i * 10, [] {}));
    }
    for (int i = 0; i < 1000; i += 2) sched.cancel(ids[i]);
    sched.run();
    for (const auto id : ids) sched.cancel(id);  // all late: true no-ops
    benchmark::DoNotOptimize(sched.cancelled_backlog());
  }
}
BENCHMARK(BM_SchedulerCancelChurn);

// Raw key-queue schedule/pop on the scheduler's queue, a binary heap of
// (at, id) keys, under the hold model (pop one, push one at a later
// time) that dominates a discrete-event run. The 1k and 16k rows span
// the pending-event populations of the benchmark's packet runs (about
// 9k keys at most in packet-tcp-k8); 262k is a far larger fabric's.
void BM_BinaryHeapQueueHold(benchmark::State& state) {
  using BinaryHeapKeys =
      std::priority_queue<sim::EventKey, std::vector<sim::EventKey>,
                          std::greater<>>;
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    BinaryHeapKeys q;
    sim::EventId id = 1;
    // Seed a steady-state population with CBR-like spacing plus jitter.
    std::uint64_t salt = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < n; ++i) {
      salt ^= salt << 13; salt ^= salt >> 7; salt ^= salt << 17;
      q.push({static_cast<sim::Time>(i) * 1000 +
                  static_cast<sim::Time>(salt % 997),
              id++});
    }
    for (int i = 0; i < 4 * n; ++i) {
      const sim::EventKey k = q.top();
      q.pop();
      salt ^= salt << 13; salt ^= salt >> 7; salt ^= salt << 17;
      q.push({k.at + 1000 + static_cast<sim::Time>(salt % 997), id++});
    }
    benchmark::DoNotOptimize(q.size());
  }
}
BENCHMARK(BM_BinaryHeapQueueHold)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_BuildTopology(benchmark::State& state) {
  const int ports = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim(1);
    net::Network net(sim);
    benchmark::DoNotOptimize(topo::build_f2tree(net, ports));
  }
}
BENCHMARK(BM_BuildTopology)->Arg(8)->Arg(16);

/// One simulated second of the paper's CBR probe through an 8-port
/// F²Tree, optionally under a TCP background workload: the unit of work
/// behind every recovery experiment.
void end_to_end_second(benchmark::State& state,
                       const transport::WorkloadOptions* workload) {
  for (auto _ : state) {
    core::Testbed bed(
        [](net::Network& n) { return topo::build_f2tree(n, 8); });
    bed.converge();
    auto& topo = bed.topo();
    transport::UdpSink sink(bed.stack_of(*topo.hosts.back()), 9000);
    transport::UdpCbrSender::Options so;
    so.stop = sim::seconds(1);
    transport::UdpCbrSender sender(bed.stack_of(*topo.hosts.front()),
                                   topo.hosts.back()->addr(), so);
    sender.start();
    std::unique_ptr<transport::TcpWorkload> tcp;
    if (workload != nullptr) {
      tcp = std::make_unique<transport::TcpWorkload>(
          bed.stacks(),
          sim::Random(sim::Random::derive_stream_seed(bed.config().seed,
                                                      core::kWorkloadStream)),
          *workload);
      tcp->start();
    }
    bed.sim().run(sim::seconds(1));
    benchmark::DoNotOptimize(sink.packets_received());
    if (tcp != nullptr) benchmark::DoNotOptimize(tcp->completed());
  }
}

void BM_EndToEndUdpSecond(benchmark::State& state) {
  end_to_end_second(state, nullptr);
}
BENCHMARK(BM_EndToEndUdpSecond)->Unit(benchmark::kMillisecond);

void BM_EndToEndTcpWorkloadSecond(benchmark::State& state) {
  // The Poisson websearch workload at load 0.01, set up the way
  // `f2tsim recover --workload poisson --wl-load 0.01` sets it up. Nearly
  // all of its time is event-loop work: TCP timers and two link events
  // per hop (ROADMAP item 1's gate).
  core::CampaignSpec::WorkloadAxis axis;
  axis.kind = "poisson";
  axis.load = 0.01;
  const transport::WorkloadOptions options =
      exec::workload_options_of(axis, sim::seconds(1));
  end_to_end_second(state, &options);
}
BENCHMARK(BM_EndToEndTcpWorkloadSecond)->Unit(benchmark::kMillisecond);

/// The display the library builds from --benchmark_format and
/// --benchmark_color (colour only when asked, or on a terminal under
/// "auto"), plus every run captured as a BenchResult. Construct it after
/// benchmark::Initialize has read the flags.
class CollectingReporter : public benchmark::BenchmarkReporter {
 public:
  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      results.push_back(f2t::bench::BenchResult{
          run.benchmark_name(), "real_time", run.GetAdjustedRealTime(),
          benchmark::GetTimeUnitString(run.time_unit)});
    }
    display_->ReportRuns(runs);
  }
  void Finalize() override { display_->Finalize(); }

  std::vector<f2t::bench::BenchResult> results;

 private:
  benchmark::BenchmarkReporter* display_ =  // owned by the library
      benchmark::CreateDefaultDisplayReporter();
};

double find_time(const std::vector<f2t::bench::BenchResult>& results,
                 const std::string& name) {
  for (const auto& r : results) {
    if (r.name == name && r.metric == "real_time") return r.value;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  auto results = reporter.results;
  // Derived fast-path ratios (only when both sides ran, e.g. not under a
  // --benchmark_filter that excludes them).
  const struct {
    const char* name;
    const char* numer;
    const char* denom;
  } ratios[] = {
      {"FibLookupResolved_speedup/256", "BM_FibLookupSeed/256",
       "BM_FibLookupResolved/256"},
      {"FibLookupInto_speedup/256", "BM_FibLookupSeed/256",
       "BM_FibLookupInto/256"},
      {"SpfFirstHopsBitset_speedup", "BM_SpfFirstHopsStdSet",
       "BM_SpfFirstHopsBitset"},
  };
  for (const auto& ratio : ratios) {
    const double numer = find_time(results, ratio.numer);
    const double denom = find_time(results, ratio.denom);
    if (numer > 0 && denom > 0) {
      results.push_back(
          f2t::bench::BenchResult{ratio.name, "speedup", numer / denom, "x"});
    }
  }

  if (!f2t::bench::write_bench_json("micro", results)) {
    std::cerr << "bench_micro: failed to write BENCH_micro.json\n";
    return 1;
  }
  std::cout << "wrote BENCH_micro.json (" << results.size() << " results)\n";
  return 0;
}
