#include "report.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/json.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// The CPUs the process started with.
const cpu_set_t& start_cpus() {
  static const cpu_set_t set = [] {
    cpu_set_t s;
    CPU_ZERO(&s);
    if (sched_getaffinity(0, sizeof s, &s) != 0) CPU_SET(0, &s);
    return s;
  }();
  return set;
}

}  // namespace

void pin_to_cpu(int i) {
  const cpu_set_t& all = start_cpus();
  const int n = CPU_COUNT(&all);
  int k = i % n;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &all) || k-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    sched_setaffinity(0, sizeof one, &one);  // best effort: timing only
    return;
  }
}

std::string json_string(std::string_view text) {
  return "\"" + f2t::core::json::escape(text) + "\"";
}

std::string json_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--ports") {
      args.ports = std::stoi(value);
    } else if (key == "--spans") {
      args.spans_out = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload needed");
  if (args.seed < 1) throw std::invalid_argument("--seed must be >= 1");
  return args;
}

}  // namespace perfbench
