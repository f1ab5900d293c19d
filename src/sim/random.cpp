#include "sim/random.hpp"

#include <cmath>
#include <stdexcept>

namespace f2t::sim {

std::int64_t Random::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("uniform_int: lo > hi");
  std::uniform_int_distribution<std::int64_t> d(lo, hi);
  return d(engine_);
}

double Random::uniform_real(double lo, double hi) {
  if (lo > hi) throw std::invalid_argument("uniform_real: lo > hi");
  std::uniform_real_distribution<double> d(lo, hi);
  return d(engine_);
}

bool Random::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  std::bernoulli_distribution d(p);
  return d(engine_);
}

double Random::exponential(double mean) {
  if (mean <= 0.0) throw std::invalid_argument("exponential: mean <= 0");
  std::exponential_distribution<double> d(1.0 / mean);
  return d(engine_);
}

double Random::lognormal_median(double median, double sigma) {
  if (median <= 0.0) throw std::invalid_argument("lognormal: median <= 0");
  if (sigma < 0.0) throw std::invalid_argument("lognormal: sigma < 0");
  std::lognormal_distribution<double> d(std::log(median), sigma);
  return d(engine_);
}

std::size_t Random::index(std::size_t n) {
  if (n == 0) throw std::invalid_argument("index: empty range");
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

Random Random::fork() {
  // Consume two draws to decorrelate the child from subsequent parent use.
  const std::uint64_t a = engine_();
  const std::uint64_t b = engine_();
  return Random(a ^ (b << 1) ^ 0x9e3779b97f4a7c15ULL);
}

Time lognormal_interval(Random& rng, double median_s, double sigma,
                        Time floor) {
  const double gap_s = rng.lognormal_median(median_s, sigma);
  return std::max<Time>(from_seconds(gap_s), floor);
}

std::uint64_t Random::derive_stream_seed(std::uint64_t root_seed,
                                         std::uint64_t stream_id) {
  // SplitMix64 with random access: the stream_id-th state is root +
  // (stream_id + 1) * gamma, finalized by the SplitMix64 mixer. Two
  // finalizer rounds keep adjacent stream ids far apart even for small,
  // structured roots (seed 1, 2, ...), which is exactly the campaign use.
  std::uint64_t x = root_seed + (stream_id + 1) * 0x9e3779b97f4a7c15ULL;
  for (int round = 0; round < 2; ++round) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
  }
  return x;
}

}  // namespace f2t::sim
