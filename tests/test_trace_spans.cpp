#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "core/f2tree.hpp"
#include "core/json.hpp"
#include "core/runner.hpp"
#include "obs/trace.hpp"

namespace f2t {
namespace {

// Builds the synthetic journal the Timeline tests use, extended with
// flood and SPF events so every chain stage is present: steady
// deliveries, a cut at 100 ms, detection at 160 ms, backup at 161 ms,
// flood 200..210 ms, two SPF runs at 360 and 365 ms, FIB install at
// 370 ms, deliveries resuming at 162 ms.
std::vector<obs::Event> synthetic_recovery_journal() {
  std::vector<obs::Event> events;
  const auto push = [&events](sim::Time at, obs::EventType type) {
    obs::Event e;
    e.at = at;
    e.type = type;
    events.push_back(e);
  };
  const auto deliver = [&events](sim::Time at) {
    obs::Event e;
    e.at = at;
    e.type = obs::EventType::kPacketDelivered;
    e.proto = static_cast<std::uint8_t>(net::Protocol::kUdp);
    events.push_back(e);
  };
  for (sim::Time t = sim::millis(1); t <= sim::millis(100);
       t += sim::millis(1)) {
    deliver(t);
  }
  push(sim::millis(100), obs::EventType::kLinkDown);
  events.back().link = 7;
  push(sim::millis(160), obs::EventType::kPortDetectedDown);
  push(sim::millis(161), obs::EventType::kBackupActivated);
  push(sim::millis(200), obs::EventType::kLsaOriginated);
  push(sim::millis(205), obs::EventType::kLsaAccepted);
  push(sim::millis(210), obs::EventType::kLsaAccepted);
  push(sim::millis(360), obs::EventType::kSpfRun);
  push(sim::millis(365), obs::EventType::kSpfRun);
  push(sim::millis(370), obs::EventType::kFibInstall);
  for (sim::Time t = sim::millis(162); t <= sim::millis(400);
       t += sim::millis(1)) {
    deliver(t);
  }
  return events;
}

TEST(SpanTrace, SyntheticJournalYieldsCompleteParentLinkedChain) {
  const auto events = synthetic_recovery_journal();
  const obs::SpanTrace trace(events);
  ASSERT_EQ(trace.timeline().failures().size(), 1u);
  const obs::FailureRecovery& f = trace.timeline().failures()[0];

  using obs::SpanKind;
  const obs::Span* root = trace.find(SpanKind::kRecovery);
  const obs::Span* down = trace.find(SpanKind::kLinkDown);
  const obs::Span* detect = trace.find(SpanKind::kDetect);
  const obs::Span* backup = trace.find(SpanKind::kBackup);
  const obs::Span* flood = trace.find(SpanKind::kFlood);
  const obs::Span* spf = trace.find(SpanKind::kSpf);
  const obs::Span* fib = trace.find(SpanKind::kFibDelta);
  const obs::Span* reroute = trace.find(SpanKind::kFirstReroute);
  ASSERT_NE(root, nullptr);
  ASSERT_NE(down, nullptr);
  ASSERT_NE(detect, nullptr);
  ASSERT_NE(backup, nullptr);
  ASSERT_NE(flood, nullptr);
  ASSERT_NE(spf, nullptr);
  ASSERT_NE(fib, nullptr);
  ASSERT_NE(reroute, nullptr);

  // Parent chain: root ← link_down ← detect ← flood ← spf ← fib ←
  // first_reroute, with backup hanging off detect as a side branch.
  const auto& spans = trace.spans();
  const auto index_of = [&spans](const obs::Span* s) {
    return static_cast<int>(s - spans.data());
  };
  EXPECT_EQ(root->parent, -1);
  EXPECT_EQ(down->parent, index_of(root));
  EXPECT_EQ(detect->parent, index_of(down));
  EXPECT_EQ(backup->parent, index_of(detect));
  EXPECT_EQ(flood->parent, index_of(detect));
  EXPECT_EQ(spf->parent, index_of(flood));
  EXPECT_EQ(fib->parent, index_of(spf));
  EXPECT_EQ(reroute->parent, index_of(fib));

  // Span ends are pinned to the scalar timeline milestones exactly.
  EXPECT_EQ(detect->begin, f.failed_at);
  EXPECT_EQ(detect->end, f.detected_at);
  EXPECT_EQ(fib->end, f.converged_at);
  EXPECT_EQ(reroute->end, f.gap_end);
  EXPECT_EQ(root->begin, f.failed_at);
  EXPECT_EQ(root->end, f.converged_at);  // latest milestone here

  // Folded counts: one cut link, two SPF runs, three flood events.
  EXPECT_EQ(down->count, 1u);
  EXPECT_EQ(flood->count, 3u);
  EXPECT_EQ(spf->count, 2u);
  EXPECT_FALSE(detect->bfd);
}

TEST(SpanTrace, MissingStagesAreSkippedAndChainRelinks) {
  // Only a cut and detection: no flood/spf/fib/reroute spans, and no
  // crash deriving them.
  std::vector<obs::Event> events;
  obs::Event e;
  e.at = sim::millis(10);
  e.type = obs::EventType::kLinkDown;
  e.link = 3;
  events.push_back(e);
  e.at = sim::millis(20);
  e.type = obs::EventType::kPortDetectedDown;
  e.link = -1;
  events.push_back(e);

  const obs::SpanTrace trace(events);
  using obs::SpanKind;
  EXPECT_NE(trace.find(SpanKind::kDetect), nullptr);
  EXPECT_EQ(trace.find(SpanKind::kFlood), nullptr);
  EXPECT_EQ(trace.find(SpanKind::kSpf), nullptr);
  EXPECT_EQ(trace.find(SpanKind::kFibDelta), nullptr);
  EXPECT_EQ(trace.find(SpanKind::kFirstReroute), nullptr);
  EXPECT_EQ(trace.find(SpanKind::kRecovery)->end, sim::millis(20));
}

TEST(SpanTrace, C1RecoverySpansPinToTimelineMilestones) {
  // The acceptance gate: a real C1 single-cut recovery on the F²Tree
  // yields the complete parent-linked chain, and every span end equals
  // its RecoveryTimeline milestone exactly.
  core::RunKnobs knobs;
  knobs.config.observe = true;
  const auto builder = core::topology_builder("f2", 4);
  const auto r =
      core::run_udp_condition(builder, failure::Condition::kC1, knobs);
  ASSERT_TRUE(r.ok);

  const obs::SpanTrace trace(r.observation.events, r.observation.profile);
  ASSERT_EQ(trace.timeline().failures().size(), 1u);
  const obs::FailureRecovery& f = trace.timeline().failures()[0];
  ASSERT_TRUE(f.detected());
  ASSERT_TRUE(f.converged());
  ASSERT_TRUE(f.rerouted());

  using obs::SpanKind;
  const obs::Span* detect = trace.find(SpanKind::kDetect);
  const obs::Span* fib = trace.find(SpanKind::kFibDelta);
  const obs::Span* reroute = trace.find(SpanKind::kFirstReroute);
  ASSERT_NE(detect, nullptr);
  ASSERT_NE(fib, nullptr);
  ASSERT_NE(reroute, nullptr);
  EXPECT_EQ(detect->end, f.detected_at);
  EXPECT_EQ(fib->end, f.converged_at);
  EXPECT_EQ(reroute->end, f.gap_end);
  // F²Tree's 2-link ring repair: backup activates, and it precedes
  // convergence.
  const obs::Span* backup = trace.find(SpanKind::kBackup);
  ASSERT_NE(backup, nullptr);
  EXPECT_LT(backup->begin, f.converged_at);

  // Every non-root span's parent is an earlier span of the same episode.
  const auto& spans = trace.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0) {
      EXPECT_EQ(spans[i].kind, SpanKind::kRecovery);
      continue;
    }
    ASSERT_LT(static_cast<std::size_t>(spans[i].parent), i);
    EXPECT_EQ(spans[static_cast<std::size_t>(spans[i].parent)].episode,
              spans[i].episode);
  }
}

TEST(SpanTrace, ProbeDetectionMarksDetectSpanAsBfd) {
  core::RunKnobs knobs;
  knobs.config.observe = true;
  knobs.config.detection.mode = routing::DetectionMode::kProbe;
  const auto builder = core::topology_builder("f2", 4);
  const auto r =
      core::run_udp_condition(builder, failure::Condition::kC1, knobs);
  ASSERT_TRUE(r.ok);
  const obs::SpanTrace trace(r.observation.events);
  const obs::Span* detect = trace.find(obs::SpanKind::kDetect);
  ASSERT_NE(detect, nullptr);
  EXPECT_TRUE(detect->bfd);
}

TEST(SpanTrace, ChromeExportIsValidTraceEventJson) {
  const auto events = synthetic_recovery_journal();
  obs::EngineProfile profile;
  profile.wall_seconds = 0.5;
  profile.sim_seconds = 1.0;
  const obs::SpanTrace trace(events, profile);

  std::ostringstream os;
  trace.write_chrome_trace(os);
  const auto doc = core::json::parse(os.str());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto& items = doc.at("traceEvents").as_array();
  ASSERT_FALSE(items.empty());

  std::size_t complete = 0;
  std::size_t flow_starts = 0;
  std::size_t flow_ends = 0;
  std::set<std::string> names;
  for (const auto& ev : items) {
    const std::string ph = ev.at("ph").as_string();
    EXPECT_EQ(ev.at("pid").as_int(), 0);
    names.insert(ev.at("name").as_string());
    if (ph == "X") {
      ++complete;
      EXPECT_GE(ev.at("dur").as_double(), 0.0);
      EXPECT_GE(ev.at("ts").as_double(), 0.0);
      // The wall estimate rides along when the profile knows a rate.
      EXPECT_NE(ev.at("args").find("wall_est_us"), nullptr);
      // The SPF span counts its runs like every other stage.
      if (ev.at("name").as_string() == "spf_run") {
        EXPECT_EQ(ev.at("args").at("count").as_int(), 2);
      }
    } else if (ph == "s") {
      ++flow_starts;
    } else if (ph == "f") {
      ++flow_ends;
    } else {
      EXPECT_EQ(ph, "M");
    }
  }
  EXPECT_EQ(complete, trace.spans().size());
  // Flow arrows pair up, one pair per chained child below the root's
  // immediate children.
  EXPECT_EQ(flow_starts, flow_ends);
  EXPECT_GT(flow_starts, 0u);
  for (const char* expected :
       {"recovery", "link_down", "detect", "backup_activated", "lsa_flood",
        "spf_run", "fib_delta", "first_rerouted_packet", "process_name",
        "thread_name", "causal"}) {
    EXPECT_TRUE(names.count(expected)) << expected;
  }
}

}  // namespace
}  // namespace f2t
