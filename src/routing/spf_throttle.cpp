#include "routing/spf_throttle.hpp"

#include <algorithm>
#include <stdexcept>

namespace f2t::routing {

SpfThrottle::SpfThrottle(const SpfThrottleConfig& config)
    : config_(config),
      hold_(config.initial_delay),
      last_run_(-config.max_wait * 4) {
  if (config.initial_delay < 0 || config.max_wait < config.initial_delay) {
    throw std::invalid_argument("SpfThrottle: bad configuration");
  }
}

sim::Time SpfThrottle::schedule(sim::Time now) {
  if (!pending_ && now - last_run_ > 2 * hold_) {
    hold_ = config_.initial_delay;  // network has been quiet: reset backoff
  }
  const sim::Time when =
      std::max(now + config_.initial_delay, last_run_ + hold_);
  longest_wait_ = std::max(longest_wait_, when - now);
  // Back off per scheduled *run*, not per trigger: a burst of LSAs that
  // coalesces into one pending SPF must cost exactly one doubling, or a
  // single failure's flood inflates every later recovery (Cisco-style
  // throttling increments the hold once per run of the timer).
  if (!pending_) {
    pending_ = true;
    hold_ = std::min(hold_ * 2, config_.max_wait);
  }
  return when;
}

}  // namespace f2t::routing
