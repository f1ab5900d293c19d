#include "sim/scheduler.hpp"

namespace f2t::sim {

namespace {

constexpr std::size_t kMaxSlots = std::size_t{1} << kEventSlotBits;
constexpr std::uint64_t kMaxSeq = (std::uint64_t{1} << kEventSeqBits) - 1;

}  // namespace

Scheduler::~Scheduler() {
  for (const auto& chunk : chunks_) {
    for (std::size_t i = 0; i < kSlotsPerChunk; ++i) {
      Slot& slot = chunk[i];
      if (slot.id != kInvalidEventId) slot.ops->destroy(slot.storage);
    }
  }
}

void Scheduler::check_schedulable(Time at) const {
  if (at < now_) {
    throw std::invalid_argument("Scheduler::schedule_at: time in the past");
  }
  if (next_seq_ > kMaxSeq) {
    throw std::length_error("Scheduler::schedule_at: event ids exhausted");
  }
}

void Scheduler::grow() {
  const std::size_t first = slot_count();
  if (first + kSlotsPerChunk > kMaxSlots) {
    throw std::length_error("Scheduler::schedule_at: too many pending events");
  }
  // Reserve first: step() returns slots to the free list from a
  // destructor, which must not allocate.
  free_.reserve(first + kSlotsPerChunk);
  chunks_.push_back(std::make_unique<Slot[]>(kSlotsPerChunk));
  for (std::size_t i = kSlotsPerChunk; i-- > 0;) {
    free_.push_back(static_cast<std::uint32_t>(first + i));
  }
}

EventId Scheduler::commit(std::uint32_t index, Time at) {
  Slot& slot = slot_at(index);
  const EventId id = (next_seq_ << kEventSlotBits) | index;
  try {
    queue_.push(EventKey{at, id});
  } catch (...) {
    slot.ops->destroy(slot.storage);
    throw;
  }
  if (queue_.size() > peak_queued_) peak_queued_ = queue_.size();
  free_.pop_back();
  slot.id = id;
  ++next_seq_;
  ++live_count_;
  return id;
}

void Scheduler::cancel(EventId id) {
  if (!is_pending(id)) return;
  const std::uint32_t index = event_slot(id);
  Slot& slot = slot_at(index);
  slot.id = kInvalidEventId;
  --live_count_;
  slot.ops->destroy(slot.storage);
  free_.push_back(index);
}

const EventKey* Scheduler::live_head() {
  while (!queue_.empty()) {
    const EventKey& head = queue_.top();
    if (slot_at(event_slot(head.id)).id == head.id) return &head;
    queue_.pop();  // cancelled: the slot no longer holds this id
  }
  return nullptr;
}

Time Scheduler::next_event_time() {
  const EventKey* head = live_head();
  return head == nullptr ? kNever : head->at;
}

bool Scheduler::step(Time until) {
  const EventKey* head = live_head();
  if (head == nullptr || head->at > until) return false;
  const EventKey ev = *head;
  queue_.pop();
  const std::uint32_t index = event_slot(ev.id);
  Slot& slot = slot_at(index);
  // No longer pending: a cancel of this id from inside the action is a
  // no-op. The slot is not freed until the action is done, and chunks
  // never move, so the action can run in place while it schedules more.
  slot.id = kInvalidEventId;
  --live_count_;
  now_ = ev.at;
  ++executed_;
  struct FreeOnExit {
    std::vector<std::uint32_t>& free;
    std::uint32_t index;
    ~FreeOnExit() { free.push_back(index); }
  } release{free_, index};
  slot.ops->run(slot.storage);
  return true;
}

std::size_t Scheduler::run(Time until) {
  std::size_t n = 0;
  while (step(until)) ++n;
  if (until != kNever && now_ < until) now_ = until;
  return n;
}

}  // namespace f2t::sim
