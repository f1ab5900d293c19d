#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <functional>

namespace f2t::sim {

namespace {

constexpr std::size_t kMinBuckets = 16;
constexpr int kMaxShift = 40;  // widest day: ~18 minutes of simulated time

}  // namespace

CalendarQueue::CalendarQueue() { rebuild(kMinBuckets); }

void CalendarQueue::push(EventKey key) {
  Bucket& bucket = buckets_[index_of(key.at)];
  bucket.heap.push_back(key);
  std::push_heap(bucket.heap.begin(), bucket.heap.end(), std::greater<>{});
  ++size_;
  if (bucket.heap.size() > stats_.max_bucket_depth) {
    stats_.max_bucket_depth = bucket.heap.size();
  }
  if (min_valid_) {
    // A key below the cached minimum is the new minimum and, having just
    // been sifted up, sits at the front of its own bucket.
    const EventKey& cached = buckets_[min_bucket_].heap.front();
    if (key < cached) min_bucket_ = index_of(key.at);
  }
  if (size_ > 2 * buckets_.size()) {
    ++stats_.grows;
    rebuild(2 * buckets_.size());
  }
}

const EventKey* CalendarQueue::peek() {
  if (size_ == 0) return nullptr;
  if (!min_valid_) {
    min_bucket_ = locate_min();
    min_valid_ = true;
  }
  return &buckets_[min_bucket_].heap.front();
}

EventKey CalendarQueue::pop() {
  peek();
  auto& heap = buckets_[min_bucket_].heap;
  std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
  const EventKey key = heap.back();
  heap.pop_back();
  --size_;
  cursor_ = key.at;
  // All keys of one day share a bucket, so if this bucket's new front is
  // still in the popped key's day it is the global minimum — the day walk
  // would stop here anyway. Keeps the cached minimum valid across pops
  // within a busy day (the common case) without a scan.
  min_valid_ =
      !heap.empty() &&
      (static_cast<std::uint64_t>(heap.front().at) >> shift_) ==
          (static_cast<std::uint64_t>(key.at) >> shift_);
  if (buckets_.size() > kMinBuckets && size_ < buckets_.size() / 2) {
    ++stats_.shrinks;
    rebuild(buckets_.size() / 2);
  }
  return key;
}

std::size_t CalendarQueue::locate_min() {
  // Walk days forward from the cursor. Every queued key's time is
  // >= cursor_, so a bucket whose front belongs to the scanned day holds
  // that day's minimum — and days are scanned in increasing order, so the
  // first hit is the global minimum.
  const auto day0 = static_cast<std::uint64_t>(cursor_) >> shift_;
  const std::size_t n = buckets_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t day = day0 + i;
    const Bucket& bucket = buckets_[day & mask_];
    if (!bucket.heap.empty() &&
        (static_cast<std::uint64_t>(bucket.heap.front().at) >> shift_) ==
            day) {
      return day & mask_;
    }
  }
  // The next event is more than a calendar year away: scan bucket fronts
  // directly for the global minimum and jump the cursor to it.
  std::size_t best = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (buckets_[i].heap.empty()) continue;
    if (best == n || buckets_[i].heap.front() < buckets_[best].heap.front()) {
      best = i;
    }
  }
  ++stats_.far_jumps;
  cursor_ = buckets_[best].heap.front().at;
  return best;
}

void CalendarQueue::rebuild(std::size_t nbuckets) {
  std::vector<EventKey> keys;
  keys.reserve(size_);
  for (Bucket& bucket : buckets_) {
    keys.insert(keys.end(), bucket.heap.begin(), bucket.heap.end());
  }

  // Day width from the density at the head of the queue (Brown's calendar
  // queue heuristic): the average gap over the ~64 earliest keys, scaled
  // so a day holds a handful of events, rounded to a power of two so the
  // bucket index is a shift-and-mask. Deterministic — it depends only on
  // the queued keys.
  int shift = kMaxShift;
  if (keys.size() >= 2) {
    const std::size_t sample = std::min<std::size_t>(keys.size(), 64);
    std::partial_sort(keys.begin(),
                      keys.begin() + static_cast<std::ptrdiff_t>(sample),
                      keys.end());
    const Time span = keys[sample - 1].at - keys[0].at;
    const auto gap =
        static_cast<std::uint64_t>(span) / (sample - 1);
    // Day width ~4x the average head gap (equivalently bit_width(gap)+1),
    // written overflow-safe for pathological key spans.
    shift = gap == 0 ? 0
                     : std::min(kMaxShift,
                                static_cast<int>(std::bit_width(gap)) + 1);
  }

  buckets_.assign(nbuckets, Bucket{});
  mask_ = nbuckets - 1;
  shift_ = shift;
  min_valid_ = false;
  for (const EventKey& key : keys) {
    buckets_[index_of(key.at)].heap.push_back(key);
  }
  for (Bucket& bucket : buckets_) {
    std::make_heap(bucket.heap.begin(), bucket.heap.end(), std::greater<>{});
  }
}

}  // namespace f2t::sim
