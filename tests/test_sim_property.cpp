#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace f2t::sim {
namespace {

/// Randomized scheduler workload checked against a sorted reference:
/// random schedule/cancel interleavings, with events scheduled and
/// cancelled from inside actions, must fire exactly the uncancelled
/// events, in (time, insertion) order. The shapes stress the queue
/// differently: many small rounds on a narrow window, a round holding
/// more than 10^4 pending events (deeper than any benchmark run), times
/// spread from 0 to about 10^12 ns (sparse far-future jumps), and every
/// event piled on a handful of timestamps (FIFO by id).
TEST(SchedulerProperty, MatchesSortedReferenceUnderRandomOps) {
  struct Shape {
    const char* name;
    int rounds;
    int events;    ///< scheduled before run()
    int min_live;  ///< pending events the round must hold at run()
    Time (*draw)(Random& rng);  ///< an event time
  };
  const Shape shapes[] = {
      {"narrow window", 20, 200, 0,
       [](Random& rng) -> Time { return rng.uniform_int(0, 500); }},
      {"deep", 1, 16000, 10000,
       [](Random& rng) -> Time { return rng.uniform_int(0, seconds(1)); }},
      {"sparse to 1e12 ns", 1, 3000, 0,
       [](Random& rng) -> Time {
         Time hi = 1;
         for (auto e = rng.uniform_int(0, 12); e > 0; --e) hi *= 10;
         return rng.uniform_int(0, hi);
       }},
      {"pile-ups", 2, 3000, 0,
       [](Random& rng) -> Time {
         constexpr Time kStamps[] = {0, 1, micros(7), millis(3)};
         return kStamps[rng.index(4)];
       }},
  };
  struct Planned {
    Time at;
    EventId id;
    bool cancelled = false;
  };
  const auto key = [](const Planned& p) { return std::pair(p.at, p.id); };

  Random rng(1234);
  for (const Shape& shape : shapes) {
    for (int round = 0; round < shape.rounds; ++round) {
      SCOPED_TRACE(std::string(shape.name) + ", round " +
                   std::to_string(round));
      Scheduler scheduler;
      std::vector<Planned> planned;  // index = the event's label
      std::vector<std::size_t> fired;
      // Schedules the next label at `at`. When it fires it may schedule a
      // child at the shape's next time (or now, if that has passed) and
      // cancel a random event: one later in (at, id) order is still
      // pending; an earlier one, or itself, has fired and its cancel must
      // be a no-op.
      std::function<void(Time)> plan = [&](Time at) {
        const std::size_t label = planned.size();
        planned.push_back({at, kInvalidEventId});
        planned[label].id = scheduler.schedule_at(at, [&, label] {
          fired.push_back(label);
          const auto self = key(planned[label]);
          if (rng.chance(0.3)) {
            plan(std::max(scheduler.now(), shape.draw(rng)));
          }
          if (rng.chance(0.2)) {
            Planned& target = planned[rng.index(planned.size())];
            if (key(target) > self) target.cancelled = true;
            scheduler.cancel(target.id);
          }
        });
      };
      for (int i = 0; i < shape.events; ++i) plan(shape.draw(rng));
      int live = 0;
      for (Planned& p : planned) {
        if (rng.chance(0.33)) {
          scheduler.cancel(p.id);
          p.cancelled = true;
        }
        live += p.cancelled ? 0 : 1;
      }
      EXPECT_GE(live, shape.min_live);
      scheduler.run();
      EXPECT_FALSE(scheduler.has_pending());
      EXPECT_EQ(scheduler.cancelled_backlog(), 0u);

      std::vector<std::size_t> expected;
      for (std::size_t i = 0; i < planned.size(); ++i) {
        if (!planned[i].cancelled) expected.push_back(i);
      }
      std::sort(expected.begin(), expected.end(),
                [&](std::size_t a, std::size_t b) {
                  return key(planned[a]) < key(planned[b]);
                });
      ASSERT_EQ(fired.size(), expected.size());
      for (std::size_t i = 0; i < fired.size(); ++i) {
        ASSERT_EQ(fired[i], expected[i]) << "at position " << i;
      }
    }
  }
}

TEST(SchedulerProperty, CancellationDuringExecutionIsHonored) {
  Scheduler scheduler;
  bool second_fired = false;
  EventId second = kInvalidEventId;
  scheduler.schedule_at(10, [&] { scheduler.cancel(second); });
  second = scheduler.schedule_at(20, [&] { second_fired = true; });
  scheduler.run();
  EXPECT_FALSE(second_fired);
}

TEST(SchedulerProperty, ReschedulingFromHandlersKeepsOrder) {
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.schedule_at(10, [&] {
    order.push_back(1);
    scheduler.schedule_at(15, [&] { order.push_back(2); });
    scheduler.schedule_at(10, [&] { order.push_back(3); });  // same time: after
  });
  scheduler.schedule_at(12, [&] { order.push_back(4); });
  scheduler.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4, 2}));
}

}  // namespace
}  // namespace f2t::sim
