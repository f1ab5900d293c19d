#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

/// Seconds on the steady clock (arbitrary epoch).
double now_s();

/// Peak resident set of this process so far (getrusage ru_maxrss), in MB.
double peak_rss_mb();

/// Pins the calling thread to the (i mod n)-th of the n CPUs the process
/// started with. perfbench_e2e rotates its timed single-threaded
/// runs over every CPU this way: on a shared host one CPU can run at half
/// the speed of another for minutes, and a median over one CPU's runs
/// would report that CPU, not the program.
void pin_to_cpu(int i);

/// `text` as a quoted, escaped JSON string.
std::string json_string(std::string_view text);

/// One number with 17 significant digits.
std::string json_number(double value);

/// Command line of perfbench_e2e and perfbench_trace.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int ports = 0;  ///< 0 = the workload's default
  std::string spans_out;  ///< perfbench_trace: span file path
};

/// Parses --workload NAME [--seed N] [--seconds S] [--ports N]
/// [--spans PATH]; throws std::invalid_argument on anything else.
Args parse_args(int argc, char** argv);

}  // namespace perfbench
