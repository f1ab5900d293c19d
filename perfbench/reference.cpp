#include "reference.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "report.hpp"

namespace perfbench {

namespace {

constexpr unsigned kTableBits = 18;  // 2^18 lines of 64 B: 16 MiB
constexpr std::uint32_t kPending = 8192;
constexpr std::uint64_t kSteps = 40000;
constexpr int kRepeats = 5;

struct Line {
  std::uint64_t word[8];
};

using Key = std::pair<std::uint64_t, std::uint32_t>;

struct Kernel {
  std::vector<Line> table = std::vector<Line>(std::size_t{1} << kTableBits);
  std::vector<Key> heap = std::vector<Key>(kPending);
  std::uint64_t sink = 0;

  /// One repetition; every repetition does the same work.
  double time_once() {
    const double t0 = now_s();
    std::uint64_t x = 88172645463325252ULL;  // xorshift64
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    heap.clear();
    for (std::uint32_t id = 0; id < kPending; ++id) {
      heap.emplace_back(next() & 0xffffff, id);
    }
    std::make_heap(heap.begin(), heap.end(), std::greater<>());
    constexpr std::uint64_t mask = (std::uint64_t{1} << kTableBits) - 1;
    for (std::uint64_t step = 0; step < kSteps; ++step) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      Key& key = heap.back();
      Line& line = table[(next() ^ key.second) & mask];
      line.word[step & 7] += key.first;
      key.first += next() & 0xffff;
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    sink += table[heap.front().second & mask].word[0];
    return now_s() - t0;
  }
};

}  // namespace

double reference_footprint_mb() {
  const std::size_t bytes =
      (sizeof(Line) << kTableBits) + sizeof(Key) * kPending;
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

double reference_seconds() {
  static Kernel kernel;
  std::array<double, kRepeats> took{};
  for (double& t : took) t = kernel.time_once();
  std::nth_element(took.begin(), took.begin() + kRepeats / 2, took.end());
  return took[kRepeats / 2];
}

}  // namespace perfbench
