#pragma once

/// Shared helpers for the paper-reproduction benches, which call the
/// library's experiment runners (core/runner.hpp) directly, so the CLI
/// tool and the tests use exactly the same code paths. Provides the
/// machine-readable result sink: every bench can emit a BENCH_<name>.json
/// so the perf trajectory is tracked across PRs instead of living in
/// scrollback.

#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/f2tree.hpp"
#include "core/runner.hpp"

namespace f2t::bench {

#ifndef F2T_GIT_REV
#define F2T_GIT_REV "unknown"
#endif

/// One machine-readable benchmark data point.
struct BenchResult {
  std::string name;    ///< e.g. "FibLookup/256"
  std::string metric;  ///< e.g. "real_time", "speedup", "loss"
  double value = 0;
  std::string unit;    ///< e.g. "ns", "x", "ms"
};

/// Writes `results` as BENCH_<bench>.json in `dir` (default: cwd, which
/// run_all.sh sets to results/). Schema:
///   {"benchmark": ..., "git_rev": ..., "results":
///     [{"name", "metric", "value", "unit"}, ...]}
/// Returns false on I/O failure. Non-finite values are serialised as 0
/// (JSON has no NaN/Inf) — benches should not produce them.
inline bool write_bench_json(const std::string& bench,
                             const std::vector<BenchResult>& results,
                             const std::string& dir = ".") {
  const std::string path = dir + "/BENCH_" + bench + ".json";
  std::ofstream os(path);
  if (!os) return false;
  os << "{\n"
     << "  \"benchmark\": \"" << bench << "\",\n"
     << "  \"git_rev\": \"" << F2T_GIT_REV << "\",\n"
     << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    const double value = std::isfinite(r.value) ? r.value : 0.0;
    os << "    {\"name\": \"" << r.name << "\", \"metric\": \"" << r.metric
       << "\", \"value\": " << value << ", \"unit\": \"" << r.unit << "\"}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  os.flush();
  return os.good();
}
inline void print_throughput_series(std::ostream& os, const std::string& name,
                                    const stats::ThroughputMeter& meter,
                                    sim::Time from, sim::Time to) {
  os << "# " << name << ": time_ms throughput_mbps\n";
  for (const auto& bin : meter.series(from, to)) {
    os << "  " << sim::to_millis(bin.start) << " "
       << stats::Table::num(bin.mbps, 1) << "\n";
  }
}

}  // namespace f2t::bench
