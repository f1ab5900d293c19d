#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "net/ids.hpp"
#include "sim/time.hpp"

namespace f2t::obs {

/// What happened. One enum across the layers so a single journal can be
/// replayed into the paper's recovery timeline: physical link state,
/// detected port state, control-plane progress (LSA / SPF / FIB /
/// controller push / BGP update), data-plane backup activation, and the
/// per-packet drop/delivery stream the gap measurement needs.
enum class EventType : std::uint8_t {
  kLinkDown,
  kLinkUp,
  kPortDetectedDown,
  kPortDetectedUp,
  kLsaOriginated,
  kLsaAccepted,
  kSpfRun,
  kFibInstall,
  kBackupActivated,
  kControllerPush,
  kBgpUpdateSent,
  kBgpUpdateReceived,
  kPacketDrop,
  kPacketDelivered,
  kBfdSessionUp,
  kBfdSessionDown,
  kBfdSuppress,  ///< flap dampening holds the port detected-down
  kBfdReuse,     ///< penalty decayed below reuse; session state restored
};

/// One past the last EventType value. Keep in sync when adding event
/// types; tests/test_observability.cpp iterates [0, kEventTypeCount) and
/// fails if any value lacks a distinct event_type_name — the guard that
/// a new type cannot ship nameless.
inline constexpr std::size_t kEventTypeCount =
    static_cast<std::size_t>(EventType::kBfdReuse) + 1;

const char* event_type_name(EventType type);

/// Why a packet died. The switch knows kNoRoute/kTtlExpired; the link
/// knows kLinkDown (cut wire, black-holed queue, lost mid-flight),
/// kQueueFull (tail drop) and kGrayLoss (silent loss, never detected).
enum class DropReason : std::uint8_t {
  kNone,
  kNoRoute,
  kTtlExpired,
  kLinkDown,
  kQueueFull,
  kGrayLoss,
};

const char* drop_reason_name(DropReason reason);

/// One journal record: a sim-timestamped typed event plus the subset of
/// identifying fields that apply (-1 / 0 = not applicable). Fixed-size
/// and string-free so recording is an O(1) push_back.
struct Event {
  sim::Time at = 0;
  EventType type = EventType::kLinkDown;
  DropReason reason = DropReason::kNone;
  std::uint8_t proto = 0xff;  ///< net::Protocol of the packet, 0xff = n/a
  std::int64_t node = -1;     ///< NodeId involved
  std::int64_t link = -1;     ///< LinkId involved
  std::int64_t port = -1;     ///< PortId involved
  std::uint64_t uid = 0;      ///< packet uid for drop/delivery events
};

/// Appends one event as a JSON object line (no trailing header).
void write_event_json(std::ostream& os, const Event& e);

/// Writes a schema-versioned JSONL stream: a header line
/// {"schema_version":1,"stream":"f2t-events","events":N} followed by one
/// JSON object per event. When `dropped` is non-zero (journal overflow)
/// the header additionally carries "dropped":D — absent otherwise, so
/// pre-existing artifacts stay byte-identical.
void write_events_jsonl(std::ostream& os, const std::vector<Event>& events,
                        std::uint64_t dropped = 0);

/// Structured event journal: a flat, append-only record stream.
///
/// Recording costs one vector push_back; the emitting hooks in net/ and
/// routing/ are only attached when a journal exists (see obs/attach.hpp),
/// so a run without observability pays nothing — not even a branch on the
/// forwarding fast path.
///
/// The journal is bounded: once `capacity()` events are stored, further
/// records are counted in dropped() and discarded, so a large packet run
/// (k=48 with per-packet delivery events) cannot grow memory without
/// limit. The default bound (1M events, 40 bytes each) comfortably holds
/// every paper experiment; overflow is surfaced as the
/// `journal.dropped_events` metric and a "dropped" key in the JSONL
/// header rather than silently truncating.
class EventJournal {
 public:
  static constexpr int kSchemaVersion = 1;
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 20;

  void record(const Event& e) {
    if (events_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    events_.push_back(e);
  }

  const std::vector<Event>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }

  /// Maximum number of retained events; records past it are dropped and
  /// counted. Lowering the capacity below the current size keeps the
  /// already-recorded prefix (the earliest events — the ones the
  /// recovery timeline needs most).
  std::size_t capacity() const { return capacity_; }
  void set_capacity(std::size_t capacity) { capacity_ = capacity; }

  /// Events discarded because the journal was full.
  std::uint64_t dropped() const { return dropped_; }

  /// Drops accumulated events and the overflow count (e.g. between
  /// experiment phases).
  void clear() {
    events_.clear();
    dropped_ = 0;
  }

  void write_jsonl(std::ostream& os) const {
    write_events_jsonl(os, events_, dropped_);
  }

 private:
  std::vector<Event> events_;
  std::size_t capacity_ = kDefaultCapacity;
  std::uint64_t dropped_ = 0;
};

}  // namespace f2t::obs
