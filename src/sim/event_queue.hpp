#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event.hpp"
#include "sim/time.hpp"

namespace f2t::sim {

/// Calendar-queue self-profile: geometry churn and pile-up depth. All
/// counters are cumulative over the queue's lifetime and cost O(1) to
/// maintain (a compare on push, an increment at each rebuild call site),
/// so they are always on — the observability layer merely reads them.
struct CalendarStats {
  std::uint64_t grows = 0;      ///< rebuilds that doubled the bucket count
  std::uint64_t shrinks = 0;    ///< rebuilds that halved the bucket count
  std::uint64_t far_jumps = 0;  ///< cursor jumps past an empty calendar year
  std::size_t max_bucket_depth = 0;  ///< worst same-day pile-up seen
  std::size_t bucket_count = 0;      ///< current geometry
  int width_log2 = 0;                ///< current day width (2^w ns)

  std::uint64_t rebuilds() const { return grows + shrinks; }
};

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

/// Calendar (bucket) event queue: O(1) amortized push/pop under the
/// event-density regimes a discrete-event network simulation produces.
///
/// Keys hash into `buckets_` by time: bucket index = (at >> shift) & mask,
/// i.e. each bucket covers a window ("day") of 2^shift ns and the calendar
/// wraps every nbuckets days (a "year"). Finding the minimum scans days
/// forward from the cursor; a full rotation without a hit (the next event
/// is over a year away) falls back to a direct scan over bucket fronts and
/// jumps the cursor there. Each bucket is itself a small binary min-heap
/// over (at, id), so adversarial distributions that pile every event into
/// one bucket degrade to a single binary heap's O(log n) — never worse.
///
/// Pop order is strictly (at, id)-minimal regardless of bucket geometry:
/// the geometry (shift/bucket count, chosen at deterministic resize
/// points) only moves work around, so determinism is by construction.
///
/// Invariant: keys are pushed at times >= the last popped key's time
/// (the scheduler never schedules in the past).
class CalendarQueue {
 public:
  CalendarQueue();

  void push(EventKey key);

  /// The minimum key, or nullptr when empty. Non-const: locates (and
  /// caches) the minimum's bucket and may advance the search cursor.
  const EventKey* peek();

  /// Removes and returns the minimum key. Precondition: !empty().
  EventKey pop();

  /// Hints that no key below `t` will be pushed again (e.g. the horizon
  /// was reached); fast-forwards the search cursor past empty days.
  void advance(Time t) { cursor_ = cursor_ < t ? t : cursor_; }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Introspection for tests and benches.
  std::size_t bucket_count() const { return buckets_.size(); }
  int width_log2() const { return shift_; }

  /// Lifetime self-profile (geometry churn, pile-up depth, far jumps)
  /// plus the current geometry. See CalendarStats.
  CalendarStats stats() const {
    CalendarStats s = stats_;
    s.bucket_count = buckets_.size();
    s.width_log2 = shift_;
    return s;
  }

 private:
  struct Bucket {
    std::vector<EventKey> heap;  // min-heap via std::*_heap with greater
  };

  std::size_t index_of(Time at) const {
    return (static_cast<std::uint64_t>(at) >> shift_) & mask_;
  }
  std::size_t locate_min();
  void rebuild(std::size_t nbuckets);

  std::vector<Bucket> buckets_;
  std::size_t mask_ = 0;
  int shift_ = 0;
  Time cursor_ = 0;           ///< lower bound on every queued key's time
  std::size_t size_ = 0;
  std::size_t min_bucket_ = 0;
  bool min_valid_ = false;
  CalendarStats stats_;  ///< bucket_count/width_log2 filled by stats()
};

}  // namespace f2t::sim
