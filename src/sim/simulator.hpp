#pragma once

#include <cstdint>
#include <utility>

#include "sim/logging.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace f2t::sim {

/// Bundle of the per-run simulation services: clock+event queue, RNG and
/// logger. Every network object holds a Simulator& — there is no global
/// simulation state, so independent simulations can coexist in one process
/// (the test suite relies on this heavily).
class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : random_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Scheduler& scheduler() { return scheduler_; }
  Random& random() { return random_; }
  Logger& logger() { return logger_; }

  Time now() const { return scheduler_.now(); }

  template <typename F>
  EventId at(Time when, F&& action) {
    return scheduler_.schedule_at(when, std::forward<F>(action));
  }
  template <typename F>
  EventId after(Time delay, F&& action) {
    return scheduler_.schedule_after(delay, std::forward<F>(action));
  }
  void cancel(EventId id) { scheduler_.cancel(id); }

  /// Runs until the horizon (or queue exhaustion with the default).
  std::size_t run(Time until = kNever) { return scheduler_.run(until); }

  /// Next packet uid (net::Packet::uid): one counter per simulation,
  /// starting at 1, so uids are unique across every sending host.
  std::uint64_t next_packet_uid() { return ++last_packet_uid_; }

 private:
  Scheduler scheduler_;
  Random random_;
  Logger logger_;
  std::uint64_t last_packet_uid_ = 0;
};

}  // namespace f2t::sim
