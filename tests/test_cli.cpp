#include <gtest/gtest.h>

#include "core/cli.hpp"
#include "core/runner.hpp"

namespace f2t::core {
namespace {

Cli make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"f2tsim"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesCommandValuesAndFlags) {
  auto cli = make({"recover", "--topo", "f2", "--ports", "8", "--csv"});
  EXPECT_EQ(cli.command(), "recover");
  EXPECT_EQ(cli.get("topo", "fat"), "f2");
  EXPECT_EQ(cli.get_int("ports", 4), 8);
  EXPECT_TRUE(cli.get_flag("csv"));
  EXPECT_FALSE(cli.get_flag("dot"));
  EXPECT_TRUE(cli.unknown_keys().empty());
}

TEST(Cli, DefaultsWhenAbsent) {
  auto cli = make({"topo"});
  EXPECT_EQ(cli.get("topo", "f2"), "f2");
  EXPECT_EQ(cli.get_int("ports", 8), 8);
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.5), 0.5);
}

TEST(Cli, UnknownKeysReported) {
  auto cli = make({"recover", "--topo", "f2", "--oops", "1", "--bad"});
  cli.get("topo", "");
  auto unknown = cli.unknown_keys();
  std::sort(unknown.begin(), unknown.end());
  ASSERT_EQ(unknown.size(), 2u);
  EXPECT_EQ(unknown[0], "bad");
  EXPECT_EQ(unknown[1], "oops");
}

TEST(Cli, RejectsMalformedArguments) {
  EXPECT_THROW(make({"recover", "topo", "f2"}), std::invalid_argument);
  auto cli = make({"recover", "--ports", "eight"});
  EXPECT_THROW(cli.get_int("ports", 4), std::invalid_argument);
  auto cli2 = make({"recover", "--rate", "fast"});
  EXPECT_THROW(cli2.get_double("rate", 1.0), std::invalid_argument);
  // A number must be the whole value, not a prefix of it.
  for (const char* bad : {"4x", "4.9", "abc"}) {
    auto c = make({"topo", "--ports", bad});
    try {
      c.get_int("ports", 8);
      ADD_FAILURE() << bad << " parsed as an integer";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("--ports expects an integer, got '") + bad + "'");
    }
  }
  auto c3 = make({"recover", "--gray-loss", "0.5abc"});
  EXPECT_THROW(c3.get_double("gray-loss", 1.0), std::invalid_argument);
  auto c4 = make({"recover", "--ports", "-4", "--gray-loss", "0.5"});
  EXPECT_EQ(c4.get_int("ports", 8), -4);
  EXPECT_DOUBLE_EQ(c4.get_double("gray-loss", 1.0), 0.5);
}

TEST(Cli, NoCommand) {
  auto cli = make({});
  EXPECT_FALSE(cli.has_command());
}

TEST(Runner, TopologyBuilderByName) {
  for (const char* name :
       {"fat", "f2", "f2scaled", "leafspine", "leafspine-f2", "vl2",
        "vl2-f2", "aspen"}) {
    sim::Simulator sim(1);
    net::Network net(sim);
    const auto topo = topology_builder(name, 8)(net);
    EXPECT_GT(topo.hosts.size(), 0u) << name;
  }
  EXPECT_THROW(topology_builder("nope", 8), std::invalid_argument);
}

TEST(Runner, UdpConditionRunsViaLibraryEntrypoint) {
  RunKnobs knobs;
  knobs.horizon = sim::seconds(2);
  const auto r = run_udp_condition(topology_builder("f2", 8),
                                   failure::Condition::kC1, knobs);
  ASSERT_TRUE(r.ok);
  EXPECT_GE(r.connectivity_loss, sim::millis(55));
  EXPECT_LE(r.connectivity_loss, sim::millis(70));
}

TEST(Runner, TcpConditionRunsViaLibraryEntrypoint) {
  RunKnobs knobs;
  knobs.horizon = sim::seconds(3);
  const auto r = run_tcp_condition(topology_builder("fat", 8),
                                   failure::Condition::kC1, knobs);
  ASSERT_TRUE(r.ok);
  EXPECT_GE(r.collapse, sim::millis(400));
}

}  // namespace
}  // namespace f2t::core
