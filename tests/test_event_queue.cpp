#include <gtest/gtest.h>

#include <vector>

#include "sim/scheduler.hpp"

namespace f2t::sim {
namespace {

// The scheduler's documented cancel and ordering semantics, exactly.
// SchedulerProperty (test_sim_property.cpp) checks the queue's order
// against a sorted reference at depth.

TEST(SchedulerCalendar, SameTimeEventsRunInScheduleOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(millis(1), [&] { order.push_back(1); });
  sched.schedule_at(millis(1), [&] { order.push_back(2); });
  sched.schedule_at(0, [&] { order.push_back(0); });
  sched.schedule_at(millis(1), [&] { order.push_back(3); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SchedulerCalendar, CancelOfFiredIdIsANoOp) {
  Scheduler sched;
  int fired = 0;
  const EventId first = sched.schedule_at(micros(1), [&] { ++fired; });
  sched.schedule_at(micros(2), [&] { ++fired; });
  sched.run(micros(1));
  EXPECT_EQ(fired, 1);
  sched.cancel(first);  // already fired: must not disturb the live event
  EXPECT_TRUE(sched.has_pending());
  EXPECT_EQ(sched.cancelled_backlog(), 0u);
  sched.run();
  EXPECT_EQ(fired, 2);
}

TEST(SchedulerCalendar, CancelPendingSkipsLazily) {
  Scheduler sched;
  int fired = 0;
  const EventId a = sched.schedule_at(micros(10), [&] { fired += 1; });
  sched.schedule_at(micros(20), [&] { fired += 10; });
  const EventId c = sched.schedule_at(micros(30), [&] { fired += 100; });
  sched.cancel(a);
  sched.cancel(c);
  EXPECT_EQ(sched.run(), 1u);
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(sched.cancelled_backlog(), 0u);
  EXPECT_FALSE(sched.has_pending());
}

TEST(SchedulerCalendar, CancelAllThenReschedule) {
  Scheduler sched;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sched.schedule_at(micros(i), [] {}));
  }
  for (const EventId id : ids) sched.cancel(id);
  EXPECT_FALSE(sched.has_pending());
  int fired = 0;
  sched.schedule_at(millis(1), [&] { ++fired; });
  EXPECT_EQ(sched.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), millis(1));
}

TEST(SchedulerCalendar, RunAdvancesToHorizonOverEmptyStretch) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(seconds(5), [&] { ++fired; });
  // A horizon short of the event fast-forwards time without firing.
  EXPECT_EQ(sched.run(seconds(2)), 0u);
  EXPECT_EQ(sched.now(), seconds(2));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sched.run(seconds(10)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), seconds(10));
}

TEST(SchedulerCalendar, RescheduleFromWithinAction) {
  // The sim.after(0) coalescing pattern: an action scheduling at now()
  // must run within the same run() call, after all same-time peers.
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(millis(1), [&] {
    order.push_back(1);
    sched.schedule_at(sched.now(), [&] { order.push_back(3); });
  });
  sched.schedule_at(millis(1), [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerCalendar, QueueStatsReportThePeakQueueLength) {
  // perfbench reads these as the calendar's geometry: one heap is one
  // bucket that never rebuilds, and a cancelled key counts until it is
  // dropped at the head.
  Scheduler sched;
  EXPECT_EQ(sched.queue_stats().max_bucket_depth, 0u);
  const EventId a = sched.schedule_at(micros(1), [] {});
  sched.schedule_at(micros(2), [] {});
  sched.schedule_at(micros(3), [] {});
  sched.cancel(a);
  EXPECT_EQ(sched.queue_stats().max_bucket_depth, 3u);
  sched.run();
  sched.schedule_at(micros(4), [] {});
  const CalendarStats stats = sched.queue_stats();
  EXPECT_EQ(stats.max_bucket_depth, 3u);
  EXPECT_EQ(stats.bucket_count, 1u);
  EXPECT_EQ(stats.rebuilds(), 0u);
}

}  // namespace
}  // namespace f2t::sim
