#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "sim/time.hpp"

namespace f2t::sim {

/// Deterministic random source used everywhere in the simulator.
///
/// A thin wrapper over mt19937_64 with the distributions the reproduction
/// needs. Log-normal samplers are parameterised by *median* and sigma —
/// the form used by the DCN measurement studies the paper cites ([1], [25])
/// — rather than by the underlying normal's mean, which is error-prone.
class Random {
 public:
  explicit Random(std::uint64_t seed) : seed_(seed), engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi).
  double uniform_real(double lo, double hi);

  /// Bernoulli trial.
  bool chance(double p);

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Log-normal sample with the given median (= exp(mu)) and sigma.
  double lognormal_median(double median, double sigma);

  /// Picks a uniformly random index in [0, n).
  std::size_t index(std::size_t n);

  /// Fisher-Yates shuffle (deterministic given the seed).
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<std::size_t>(
                              uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    }
  }

  /// Derives an independent child RNG; used to give each traffic source
  /// its own stream so adding one source does not perturb the others.
  /// Consumes parent draws: the child depends on how much the parent has
  /// been used. For order-independent streams use split().
  Random fork();

  /// Derives the `stream_id`-th independent child stream from this RNG's
  /// *construction seed* — a stateless SplitMix64 jump, so the result
  /// depends only on (seed, stream_id), never on how much this engine has
  /// been consumed or on call order. This is what makes sharded campaign
  /// results bitwise independent of thread count and schedule: shard i
  /// always simulates with split(i) of the campaign's root seed.
  Random split(std::uint64_t stream_id) const {
    return Random(derive_stream_seed(seed_, stream_id));
  }

  /// The seed-level form of split() for call sites that only carry the
  /// root seed (campaign sharders, config plumbing).
  static std::uint64_t derive_stream_seed(std::uint64_t root_seed,
                                          std::uint64_t stream_id);

  /// The construction seed (identifies the stream, not its position).
  std::uint64_t seed() const { return seed_; }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::uint64_t seed_;
  std::mt19937_64 engine_;
};

/// The DCN-measurement draw shape shared by every log-normal event
/// process in the simulator (workload arrival gaps, random failure
/// interarrivals and durations): sample a log-normal by median and
/// sigma, convert seconds to simulation time, and clamp below by a
/// process-specific floor so a deep-left-tail draw cannot collapse the
/// event loop into a zero-delay spin. One draw from `rng`, bit-identical
/// to calling rng.lognormal_median directly (pinned by test_stats.cpp).
Time lognormal_interval(Random& rng, double median_s, double sigma,
                        Time floor);

}  // namespace f2t::sim
