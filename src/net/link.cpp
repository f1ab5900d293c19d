#include "net/link.hpp"

#include <stdexcept>
#include <utility>

#include "net/node.hpp"

namespace f2t::net {

Link::Link(sim::Simulator& simulator, LinkId id, End a, End b,
           const LinkParams& params)
    : sim_(simulator),
      id_(id),
      a_(a),
      b_(b),
      params_(params),
      a_to_b_(params.queue_capacity),
      b_to_a_(params.queue_capacity) {
  if (a_.node == nullptr || b_.node == nullptr) {
    throw std::invalid_argument("Link: null endpoint");
  }
  if (params_.bandwidth_bps <= 0) {
    throw std::invalid_argument("Link: bandwidth must be positive");
  }
  a_to_b_.queue.set_ecn_threshold(params_.ecn_threshold);
  b_to_a_.queue.set_ecn_threshold(params_.ecn_threshold);
}

const Link::End& Link::peer_of(const Node& from) const {
  if (&from == a_.node) return b_;
  if (&from == b_.node) return a_;
  throw std::logic_error("Link::peer_of: node is not an endpoint");
}

Link::Direction Link::direction_from(const Node& from) const {
  if (&from == a_.node) return Direction::kAToB;
  if (&from == b_.node) return Direction::kBToA;
  throw std::logic_error("Link::direction_from: node is not an endpoint");
}

Link::Channel& Link::channel_from(const Node& from) {
  if (&from == a_.node) return a_to_b_;
  if (&from == b_.node) return b_to_a_;
  throw std::logic_error("Link::channel_from: node is not an endpoint");
}

void Link::set_channel_up(Channel& ch, bool up) {
  if (ch.up == up) return;
  ch.up = up;
  ++ch.epoch;
  if (!channel_observers_.empty()) {
    const Direction d =
        &ch == &a_to_b_ ? Direction::kAToB : Direction::kBToA;
    for (const auto& observer : channel_observers_) observer(*this, d, up);
  }
  if (!up) {
    // Physical cut: everything queued or serialized in this direction
    // is lost.
    dropped_down_ += ch.queue.size();
    ch.dropped_wire += ch.queue.size();
    if (drop_hook_) {
      for (const Packet& p : ch.queue.contents()) {
        drop_hook_(p, DropKind::kDown);
      }
    }
    ch.queue.clear();
    ch.busy = false;
  }
}

void Link::set_up(bool up) {
  const bool was_up = is_up();
  set_channel_up(a_to_b_, up);
  set_channel_up(b_to_a_, up);
  if (is_up() != was_up) {
    for (const auto& observer : observers_) observer(*this, is_up());
  }
}

void Link::set_direction_up(Direction direction, bool up) {
  const bool was_up = is_up();
  set_channel_up(channel(direction), up);
  if (is_up() != was_up) {
    for (const auto& observer : observers_) observer(*this, is_up());
  }
}

void Link::transmit(const Node& from, Packet packet) {
  Channel& ch = channel_from(from);
  if (!ch.up) {
    // The sender has not yet detected the failure; the packet is lost on
    // the wire. This is the window the paper's fast reroute shrinks.
    ++dropped_down_;
    ++ch.dropped_wire;
    if (drop_hook_) drop_hook_(packet, DropKind::kDown);
    return;
  }
  // Tail-drop check happens before push so the hook still sees the packet
  // (push takes it by value); the queue itself keeps the drop count.
  if (drop_hook_ && ch.queue.size() >= ch.queue.capacity()) {
    drop_hook_(packet, DropKind::kQueueFull);
  }
  if (!ch.queue.push(std::move(packet))) return;  // tail drop
  if (!ch.busy) start_next(ch, peer_of(from));
}

void Link::start_next(Channel& ch, const End& to) {
  auto next = ch.queue.pop();
  if (!next) return;
  ch.busy = true;
  const double bits = static_cast<double>(next->size_bytes) * 8.0;
  const sim::Time tx = sim::from_seconds(bits / params_.bandwidth_bps);
  const std::uint64_t epoch = ch.epoch;
  // Both hop events carry the packet by value. They must fit the
  // scheduler's inline action storage, or every hop allocates twice.
  auto serialized = [this, &ch, to, packet = std::move(*next),
                     epoch]() mutable {
    // Serialization finished: free the line, launch propagation.
    if (epoch == ch.epoch) {
      auto propagated = [this, &ch, to, packet = std::move(packet),
                         epoch]() mutable {
        deliver(ch, to, std::move(packet), epoch);
      };
      static_assert(sim::Scheduler::stores_inline<decltype(propagated)>,
                    "Link propagation event outgrew the inline action size");
      sim_.after(params_.propagation_delay, std::move(propagated));
      ch.busy = false;
      start_next(ch, to);
    } else {
      // The direction was cut and the channel reset; the packet is lost
      // mid-serialization.
      ++dropped_down_;
      ++ch.dropped_wire;
      if (drop_hook_) drop_hook_(packet, DropKind::kDown);
    }
  };
  static_assert(sim::Scheduler::stores_inline<decltype(serialized)>,
                "Link serialization event outgrew the inline action size");
  sim_.after(tx, std::move(serialized));
}

void Link::set_loss_rate(Direction direction, double rate,
                         sim::Random* rng) {
  if (rate < 0.0 || rate > 1.0) {
    throw std::invalid_argument("Link::set_loss_rate: rate out of [0,1]");
  }
  if (rate > 0.0 && rng == nullptr) {
    throw std::invalid_argument("Link::set_loss_rate: rng required");
  }
  Channel& ch = channel(direction);
  ch.loss_rate = rate;
  ch.loss_rng = rng;
}

void Link::deliver(Channel& ch, const End& to, Packet packet,
                   std::uint64_t epoch) {
  if (epoch != ch.epoch || !ch.up) {
    ++dropped_down_;  // cut while propagating
    ++ch.dropped_wire;
    if (drop_hook_) drop_hook_(packet, DropKind::kDown);
    return;
  }
  if (ch.loss_rate > 0.0 && ch.loss_rng->chance(ch.loss_rate)) {
    ++dropped_gray_;  // silent gray-failure loss: nobody detects this
    ++ch.dropped_wire;
    if (drop_hook_) drop_hook_(packet, DropKind::kGray);
    return;
  }
  ++delivered_;
  ch.delivered_bytes += packet.size_bytes;
  ++packet.hops;
  to.node->receive(to.port, std::move(packet));
}

std::uint64_t Link::dropped_queue() const {
  return a_to_b_.queue.dropped() + b_to_a_.queue.dropped();
}

std::uint64_t Link::queue_enqueued() const {
  return a_to_b_.queue.enqueued() + b_to_a_.queue.enqueued();
}

std::uint64_t Link::queue_marked() const {
  return a_to_b_.queue.marked() + b_to_a_.queue.marked();
}

std::size_t Link::queue_depth() const {
  return a_to_b_.queue.size() + b_to_a_.queue.size();
}

}  // namespace f2t::net
