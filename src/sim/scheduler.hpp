#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace f2t::sim {

/// Deterministic discrete-event scheduler.
///
/// A calendar (bucket) queue of (time, id) keys — see sim/event_queue.hpp
/// — guarantees that two runs with the same inputs execute events in the
/// same order: pop order is strictly (time, id)-minimal, FIFO among
/// same-timestamp events, independent of the calendar's bucket geometry.
///
/// Each pending event's action lives in a slot of a slot table whose
/// storage comes in fixed-size chunks that never move. The action is
/// constructed in its slot — inline when it fits kInlineActionBytes, on
/// the heap otherwise — and runs there, so scheduling an action that fits
/// allocates nothing once the table has grown to the run's peak. An
/// EventId names its slot (sim/event.hpp) and the slot stores the full id
/// of its current event, so cancel() and is_pending() are one comparison:
/// an id that fired, was cancelled, or belonged to an earlier tenant of a
/// reused slot never matches. cancel() destroys the action and frees the
/// slot at once; the event's key stays queued and is dropped when it
/// reaches the head, because its slot no longer holds its id.
class Scheduler {
 public:
  /// Actions up to this size (and at most max_align_t alignment) are
  /// stored in their slot; larger ones are heap-allocated. Sized for the
  /// two Packet-carrying closures of net::Link::start_next, which
  /// static_assert that they fit.
  static constexpr std::size_t kInlineActionBytes = 128;
  /// Slots per storage chunk; the table grows a chunk at a time.
  static constexpr std::size_t kSlotsPerChunk = 256;

  /// True when an action of type F is stored in its slot, not the heap.
  template <typename F>
  static constexpr bool stores_inline =
      sizeof(std::decay_t<F>) <= kInlineActionBytes &&
      alignof(std::decay_t<F>) <= alignof(std::max_align_t);

  Scheduler() = default;
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time. Advances only while running events.
  Time now() const { return now_; }

  /// Schedules `action` (any callable taking no arguments) to run at
  /// absolute time `at` (>= now()). Returns an id usable with cancel().
  /// Throws std::invalid_argument for a past time or an empty action
  /// (nullptr, an empty std::function or function pointer), and
  /// std::length_error beyond 2^24 pending events or 2^40 scheduled ones.
  template <typename F>
  EventId schedule_at(Time at, F&& action);

  /// Schedules `action` to run `delay` after the current time.
  template <typename F>
  EventId schedule_after(Time delay, F&& action) {
    return schedule_at(now_ + delay, std::forward<F>(action));
  }

  /// Cancels a pending event and destroys its action. Cancelling an
  /// already-fired, already-cancelled or invalid id is a true no-op (the
  /// common pattern for one-shot timers).
  void cancel(EventId id);

  /// Runs events until the queue drains or the optional horizon is hit.
  /// Returns the number of events executed.
  std::size_t run(Time until = kNever);

  /// Runs exactly one event if any is pending before `until`.
  bool step(Time until = kNever);

  /// True if any non-cancelled event is pending.
  bool has_pending() const { return live_count_ > 0; }

  /// Time of the next live event, or kNever.
  Time next_event_time();

  std::size_t executed_count() const { return executed_; }

  /// The calendar queue's self-profile (geometry churn, pile-up depth);
  /// see sim::CalendarStats. Always maintained, read on demand.
  CalendarStats queue_stats() const { return queue_.stats(); }

  /// Number of cancelled events whose keys still wait in the queue to be
  /// dropped; bounded by the queue size (tests assert no tombstone growth).
  std::size_t cancelled_backlog() const { return queue_.size() - live_count_; }

  /// True if `id` is scheduled and not cancelled. False while the event's
  /// own action runs.
  bool is_pending(EventId id) const {
    return id != kInvalidEventId && event_slot(id) < slot_count() &&
           slot_at(event_slot(id)).id == id;
  }

 private:
  struct ActionOps {
    void (*run)(void* storage);  ///< runs, then destroys (even on throw)
    void (*destroy)(void* storage) noexcept;
  };

  /// Type-erased handling of one action type in a slot's storage.
  template <typename Fn>
  struct Action {
    template <typename F>
    static void construct(void* storage, F&& f) {
      if constexpr (stores_inline<Fn>) {
        ::new (storage) Fn(std::forward<F>(f));
      } else {
        ::new (storage) Fn*(new Fn(std::forward<F>(f)));
      }
    }
    static Fn& get(void* storage) {
      if constexpr (stores_inline<Fn>) {
        return *std::launder(static_cast<Fn*>(storage));
      } else {
        return **std::launder(static_cast<Fn**>(storage));
      }
    }
    static void destroy(void* storage) noexcept {
      if constexpr (stores_inline<Fn>) {
        get(storage).~Fn();
      } else {
        delete &get(storage);
      }
    }
    static void run(void* storage) {
      struct DestroyOnExit {
        void* storage;
        ~DestroyOnExit() { destroy(storage); }
      } guard{storage};
      get(storage)();
    }
    static constexpr ActionOps kOps{&run, &destroy};
  };

  struct Slot {
    EventId id = kInvalidEventId;  ///< the pending event's id, else invalid
    const ActionOps* ops = nullptr;
    alignas(std::max_align_t) std::byte storage[kInlineActionBytes];
  };

  template <typename T>
  struct IsStdFunction : std::false_type {};
  template <typename Sig>
  struct IsStdFunction<std::function<Sig>> : std::true_type {};

  std::size_t slot_count() const { return chunks_.size() * kSlotsPerChunk; }
  Slot& slot_at(std::uint32_t index) {
    return chunks_[index / kSlotsPerChunk][index % kSlotsPerChunk];
  }
  const Slot& slot_at(std::uint32_t index) const {
    return chunks_[index / kSlotsPerChunk][index % kSlotsPerChunk];
  }

  /// Throws unless an event can be scheduled at `at`.
  void check_schedulable(Time at) const;
  /// A free slot's index, growing the table when none is free. The slot
  /// stays on the free list until commit().
  std::uint32_t free_slot() {
    if (free_.empty()) grow();
    return free_.back();
  }
  void grow();
  /// Queues the action just constructed in free slot `index` for `at`.
  EventId commit(std::uint32_t index, Time at);
  /// Drops cancelled keys from the head; returns the live head or nullptr.
  const EventKey* live_head();

  CalendarQueue queue_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;  ///< never move once made
  std::vector<std::uint32_t> free_;  ///< capacity >= slot_count(), LIFO
  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t live_count_ = 0;
  std::size_t executed_ = 0;
};

template <typename F>
EventId Scheduler::schedule_at(Time at, F&& action) {
  using Fn = std::decay_t<F>;
  check_schedulable(at);
  if constexpr (std::is_null_pointer_v<Fn>) {
    throw std::invalid_argument("Scheduler::schedule_at: empty action");
  } else {
    static_assert(std::is_invocable_v<Fn&>,
                  "Scheduler::schedule_at: action must be callable with ()");
    if constexpr (std::is_pointer_v<Fn> || IsStdFunction<Fn>::value) {
      if (!action) {
        throw std::invalid_argument("Scheduler::schedule_at: empty action");
      }
    }
    const std::uint32_t index = free_slot();
    Slot& slot = slot_at(index);
    Action<Fn>::construct(slot.storage, std::forward<F>(action));
    slot.ops = &Action<Fn>::kOps;
    return commit(index, at);
  }
}

}  // namespace f2t::sim
