#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"

namespace f2t::sim {
namespace {

/// Counts its live copies through a shared counter.
struct LiveCounter {
  explicit LiveCounter(int& count) : live(&count) { ++*live; }
  LiveCounter(const LiveCounter& other) : live(other.live) { ++*live; }
  LiveCounter& operator=(const LiveCounter&) = delete;
  ~LiveCounter() { --*live; }
  int* live;
};

TEST(Time, Constructors) {
  EXPECT_EQ(micros(1), 1000);
  EXPECT_EQ(millis(1), 1'000'000);
  EXPECT_EQ(seconds(1), 1'000'000'000);
  EXPECT_EQ(from_seconds(0.5), millis(500));
  EXPECT_DOUBLE_EQ(to_seconds(seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_millis(millis(42)), 42.0);
}

TEST(Time, Format) {
  EXPECT_EQ(format_time(kNever), "never");
  EXPECT_EQ(format_time(100), "100ns");
  EXPECT_EQ(format_time(millis(60)), "60ms");
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(Scheduler, SameTimeIsFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  const EventId id = s.schedule_at(10, [&] { fired = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(s.has_pending());
}

TEST(Scheduler, CancelIsIdempotentAndSafe) {
  Scheduler s;
  const EventId id = s.schedule_at(10, [] {});
  s.cancel(id);
  s.cancel(id);
  s.cancel(kInvalidEventId);
  s.cancel(9999);  // never-issued id
  EXPECT_EQ(s.run(), 0u);
}

// Regression: cancelling an id that has already fired must be a true
// no-op. The old implementation inserted it into the cancelled set
// forever (unbounded tombstone growth) and decremented the live count,
// so a later-scheduled, still-live event made has_pending() lie.
TEST(Scheduler, CancelOfFiredIdIsTrueNoop) {
  Scheduler s;
  int fired = 0;
  const EventId first = s.schedule_at(1, [&] { ++fired; });
  s.schedule_at(2, [&] { ++fired; });
  ASSERT_TRUE(s.step());  // fires `first`
  EXPECT_FALSE(s.is_pending(first));

  s.cancel(first);  // late cancel: the classic one-shot timer pattern
  EXPECT_TRUE(s.has_pending()) << "live second event lost to a late cancel";
  EXPECT_EQ(s.cancelled_backlog(), 0u) << "late cancel left a tombstone";

  s.run();
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(s.has_pending());
}

TEST(Scheduler, RepeatedLateCancelsLeaveNoTombstones) {
  Scheduler s;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(s.schedule_at(i, [] {}));
  }
  s.run();
  for (int round = 0; round < 3; ++round) {
    for (const EventId id : ids) s.cancel(id);
  }
  EXPECT_EQ(s.cancelled_backlog(), 0u);
  EXPECT_FALSE(s.has_pending());
  // Accounting still intact: a fresh event is seen and runs.
  bool late_fired = false;
  s.schedule_at(1000, [&] { late_fired = true; });
  EXPECT_TRUE(s.has_pending());
  EXPECT_EQ(s.run(), 1u);
  EXPECT_TRUE(late_fired);
}

TEST(Scheduler, CancelledThenReapedIdStaysCancelled) {
  Scheduler s;
  bool fired = false;
  const EventId id = s.schedule_at(5, [&] { fired = true; });
  s.cancel(id);
  EXPECT_FALSE(s.is_pending(id));
  s.run();  // reaps the cancelled event from the heap
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.cancelled_backlog(), 0u);
  s.cancel(id);  // cancel after reap: also a true no-op
  EXPECT_EQ(s.cancelled_backlog(), 0u);
  EXPECT_FALSE(s.has_pending());
}

TEST(Scheduler, RunUntilHorizonStopsAndAdvancesClock) {
  Scheduler s;
  int count = 0;
  s.schedule_at(10, [&] { ++count; });
  s.schedule_at(100, [&] { ++count; });
  EXPECT_EQ(s.run(50), 1u);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(s.now(), 50);
  EXPECT_TRUE(s.has_pending());
  s.run();
  EXPECT_EQ(count, 2);
}

TEST(Scheduler, EventsCanScheduleEvents) {
  Scheduler s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) s.schedule_after(10, chain);
  };
  s.schedule_at(0, chain);
  s.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), 40);
}

TEST(Scheduler, RejectsPastAndEmptyActions) {
  Scheduler s;
  s.schedule_at(10, [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(5, [] {}), std::invalid_argument);
  EXPECT_THROW(s.schedule_at(20, nullptr), std::invalid_argument);
  EXPECT_THROW(s.schedule_at(20, std::function<void()>()),
               std::invalid_argument);
  EXPECT_FALSE(s.has_pending());
}

// Ids are checked against the full id their slot stores, not a short
// generation counter: 300 reuses of one slot (past an 8-bit counter's
// wrap at 256) never let the first tenant's id cancel the current one.
TEST(Scheduler, StaleIdNeverCancelsTheSlotsNextEvent) {
  Scheduler s;
  int fired = 0;
  const EventId stale = s.schedule_at(0, [] {});
  ASSERT_TRUE(s.step());
  for (int reuse = 1; reuse <= 300; ++reuse) {
    const EventId id = s.schedule_at(s.now() + 1, [&] { ++fired; });
    ASSERT_EQ(event_slot(id), event_slot(stale)) << "reuse " << reuse;
    s.cancel(stale);
    ASSERT_TRUE(s.is_pending(id)) << "stale id cancelled reuse " << reuse;
    ASSERT_TRUE(s.step());
  }
  EXPECT_EQ(fired, 300);
}

TEST(Scheduler, ThrowingActionReleasesItsSlot) {
  Scheduler s;
  int fired = 0;
  auto token = std::make_shared<int>(0);
  const EventId thrower =
      s.schedule_at(10, [token] { throw std::runtime_error("boom"); });
  s.schedule_at(20, [&] { ++fired; });
  EXPECT_THROW(s.run(), std::runtime_error);
  EXPECT_EQ(s.now(), 10);
  EXPECT_EQ(token.use_count(), 1) << "thrown-out action not destroyed";
  EXPECT_FALSE(s.is_pending(thrower));
  EXPECT_TRUE(s.has_pending());
  EXPECT_EQ(s.cancelled_backlog(), 0u);
  // The slot is free again: the next event takes it.
  const EventId next = s.schedule_at(30, [&] { ++fired; });
  EXPECT_EQ(event_slot(next), event_slot(thrower));
  EXPECT_EQ(s.run(), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(s.has_pending());
}

// An action runs in its slot. Scheduling enough events to add storage
// chunks while it runs must not move it (ASan reports the stale read
// of the captures if it does).
TEST(Scheduler, ActionSchedulingManyChunksRunsInPlace) {
  Scheduler s;
  const std::size_t n = 2 * Scheduler::kSlotsPerChunk + 1;
  std::size_t fired = 0;
  std::string seen;
  s.schedule_at(1, [&s, &fired, &seen, n, tag = std::string(64, 'x')] {
    for (std::size_t i = 0; i < n; ++i) {
      s.schedule_at(2, [&fired] { ++fired; });
    }
    seen = tag;
  });
  EXPECT_EQ(s.run(), n + 1);
  EXPECT_EQ(fired, n);
  EXPECT_EQ(seen, std::string(64, 'x'));
}

TEST(Scheduler, OversizedCaptureRunsOnceAndIsDestroyedOnce) {
  Scheduler s;
  int live = 0;
  int runs = 0;
  {
    const std::array<char, Scheduler::kInlineActionBytes> pad{};
    auto action = [&runs, counter = LiveCounter(live), pad] {
      runs += 1 + pad[0];
    };
    static_assert(!Scheduler::stores_inline<decltype(action)>);
    s.schedule_at(1, std::move(action));
  }
  EXPECT_EQ(live, 1);  // only the scheduler's copy is left
  EXPECT_EQ(s.run(), 1u);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(live, 0);
}

TEST(Scheduler, CancelDestroysCapturesAtOnce) {
  Scheduler s;
  auto token = std::make_shared<int>(0);
  const EventId id = s.schedule_at(10, [token] {});
  EXPECT_EQ(token.use_count(), 2);
  s.cancel(id);
  EXPECT_EQ(token.use_count(), 1) << "action outlived its cancel";
  EXPECT_EQ(s.cancelled_backlog(), 1u);  // the key waits to be dropped
  EXPECT_EQ(s.run(), 0u);
  EXPECT_EQ(s.cancelled_backlog(), 0u);
}

TEST(Scheduler, NextEventTimeSkipsCancelled) {
  Scheduler s;
  const EventId a = s.schedule_at(10, [] {});
  s.schedule_at(20, [] {});
  s.cancel(a);
  EXPECT_EQ(s.next_event_time(), 20);
}

TEST(Random, DeterministicWithSeed) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Random, UniformIntBounds) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Random, LognormalMedianIsRoughlyMedian) {
  Random r(11);
  int below = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (r.lognormal_median(10.0, 1.2) < 10.0) ++below;
  }
  EXPECT_NEAR(static_cast<double>(below) / n, 0.5, 0.02);
}

TEST(Random, ExponentialMean) {
  Random r(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(Random, RejectsBadArguments) {
  Random r(1);
  EXPECT_THROW(r.uniform_int(5, 4), std::invalid_argument);
  EXPECT_THROW(r.exponential(0), std::invalid_argument);
  EXPECT_THROW(r.lognormal_median(-1, 1), std::invalid_argument);
  EXPECT_THROW(r.index(0), std::invalid_argument);
}

TEST(Random, ForkIsIndependent) {
  Random a(99);
  Random child = a.fork();
  // Child stream should not equal the parent's continued stream.
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.uniform_int(0, 1 << 30) != child.uniform_int(0, 1 << 30)) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Simulator, BundlesServices) {
  Simulator sim(5);
  int fired = 0;
  sim.after(millis(5), [&] { ++fired; });
  sim.run(millis(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), millis(10));
}

}  // namespace
}  // namespace f2t::sim
