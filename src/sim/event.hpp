#pragma once

#include <cstdint>

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

}  // namespace f2t::sim
