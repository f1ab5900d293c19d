#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace f2t::sim {

/// Identifier of a scheduled event; used to cancel pending events.
/// Ids are unique within one Scheduler and never reused.
///
/// Layout: the scheduling sequence number (1, 2, 3, ...) in the high
/// kEventSeqBits bits, the index of the scheduler slot holding the event's
/// action in the low kEventSlotBits. Because the sequence number is the
/// high part, comparing two ids compares their sequence numbers, so
/// ordering events by (time, id) is exactly ordering them by (time, order
/// of scheduling).
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEventId = 0;

inline constexpr int kEventSlotBits = 24;
inline constexpr int kEventSeqBits = 64 - kEventSlotBits;
inline constexpr EventId kEventSlotMask = (EventId{1} << kEventSlotBits) - 1;

/// The scheduler slot named by `id`.
constexpr std::uint32_t event_slot(EventId id) {
  return static_cast<std::uint32_t>(id & kEventSlotMask);
}

/// Ordering key of a scheduled event. Min-ordering is (at, id): earliest
/// time first, then earliest id — FIFO among same-timestamp events, which
/// is what keeps two runs with the same inputs executing events in the
/// same order.
struct EventKey {
  Time at = 0;
  EventId id = kInvalidEventId;

  friend bool operator==(const EventKey& a, const EventKey& b) {
    return a.at == b.at && a.id == b.id;
  }
  friend bool operator<(const EventKey& a, const EventKey& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.id < b.id;
  }
  friend bool operator>(const EventKey& a, const EventKey& b) { return b < a; }
};

}  // namespace f2t::sim
