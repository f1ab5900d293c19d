#include <gtest/gtest.h>

#include "core/f2tree.hpp"

namespace f2t::transport {
namespace {

TEST(EcnQueue, MarksAboveThreshold) {
  net::DropTailQueue q(10);
  q.set_ecn_threshold(3);
  net::Packet p;
  for (int i = 0; i < 6; ++i) q.push(p);
  EXPECT_EQ(q.marked(), 3u);  // packets 4..6 enqueued at size >= 3
  int ce = 0;
  while (auto popped = q.pop()) {
    if (popped->ecn_ce) ++ce;
  }
  EXPECT_EQ(ce, 3);
}

struct IncastResult {
  std::uint64_t queue_drops = 0;
  std::uint64_t rto_fires = 0;
  bool all_delivered = true;
  double alpha = 0;
};

/// 8-to-1 incast through one switch; returns congestion statistics.
IncastResult run_incast(bool dctcp) {
  sim::Simulator sim(7);
  net::Network net(sim);
  net::LinkParams params;
  params.ecn_threshold = dctcp ? 20 : 0;
  net.set_default_link_params(params);
  auto& sw = net.add_switch("sw", net::Ipv4Addr(10, 12, 0, 1));
  auto& sink_host = net.add_host("sink", net::Ipv4Addr(10, 11, 0, 10), &sw);
  HostStack sink_stack(sink_host);

  TcpConfig config;
  config.dctcp = dctcp;
  config.min_rto = sim::millis(10);
  config.initial_rto = sim::millis(10);

  std::vector<std::unique_ptr<HostStack>> stacks;
  std::vector<std::unique_ptr<TcpConnection>> conns;
  for (int i = 0; i < 8; ++i) {
    std::string name = "h";
    name += std::to_string(i);
    auto& host = net.add_host(name, net::Ipv4Addr(10, 11, 0, 20 + i), &sw);
    stacks.push_back(std::make_unique<HostStack>(host));
    conns.push_back(
        std::make_unique<TcpConnection>(*stacks.back(), sink_stack,
                                        stacks.back()->alloc_port(),
                                        sink_stack.alloc_port(), config));
    conns.back()->a().write(2'000'000);
  }
  sim.run(sim::seconds(60));

  IncastResult out;
  for (const auto& conn : conns) {
    if (conn->b().bytes_delivered() != 2'000'000u) out.all_delivered = false;
    out.rto_fires += conn->a().stats().rto_fires;
    out.alpha = std::max(out.alpha, conn->a().dctcp_alpha());
  }
  net::Link* bottleneck = net.find_link(sw, sink_host);
  out.queue_drops = bottleneck->dropped_queue();
  return out;
}

TEST(Dctcp, IncastCompletesWithFarFewerDropsThanReno) {
  const auto reno = run_incast(false);
  const auto dctcp = run_incast(true);
  EXPECT_TRUE(reno.all_delivered);
  EXPECT_TRUE(dctcp.all_delivered);
  EXPECT_GT(reno.queue_drops, 0u);
  // ECN feedback throttles senders before the queue overflows. (Slow-start
  // overshoot before alpha is learned still costs some drops, as in real
  // DCTCP.)
  EXPECT_LT(dctcp.queue_drops, reno.queue_drops / 2);
  EXPECT_GT(dctcp.alpha, 0.0);
  EXPECT_LE(dctcp.alpha, 1.0);
}

TEST(Dctcp, NoMarksMeansNoCut) {
  // An app-limited paced flow never builds a queue, so DCTCP sees no
  // marks and alpha stays exactly zero (no spurious cwnd cuts).
  sim::Simulator sim(1);
  net::Network net(sim);
  net::LinkParams params;
  params.ecn_threshold = 60;
  net.set_default_link_params(params);
  auto& sw = net.add_switch("sw", net::Ipv4Addr(10, 12, 0, 1));
  auto& a = net.add_host("a", net::Ipv4Addr(10, 11, 0, 10), &sw);
  auto& b = net.add_host("b", net::Ipv4Addr(10, 11, 0, 11), &sw);
  HostStack sa(a), sb(b);
  TcpConfig config;
  config.dctcp = true;
  auto conn = TcpConnection::open(sa, sb, config);
  PacedTcpWriter::Options wo;
  wo.interval = sim::micros(200);  // ~58 Mbps into a 1 Gbps link
  wo.stop = sim::seconds(2);
  PacedTcpWriter writer(conn->a(), sim, wo);
  writer.start();
  sim.run(sim::seconds(5));
  EXPECT_EQ(conn->b().bytes_delivered(), conn->a().bytes_written());
  EXPECT_DOUBLE_EQ(conn->a().dctcp_alpha(), 0.0);
}

}  // namespace
}  // namespace f2t::transport
