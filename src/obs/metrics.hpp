#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace f2t::obs {

/// Fixed-bucket histogram: `bounds` are the inclusive upper edges of the
/// finite buckets; one implicit overflow bucket catches the rest.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  const std::vector<std::uint64_t>& counts() const { return counts_; }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }

 private:
  std::vector<double> bounds_;           // sorted ascending
  std::vector<std::uint64_t> counts_;    // bounds_.size() + 1 (overflow last)
  std::uint64_t count_ = 0;
  double sum_ = 0;
};

/// Point-in-time export of a registry: every instrument sampled at one
/// simulation time, serialisable as schema-versioned JSON (the metrics
/// sibling of bench_util.hpp's BENCH_*.json).
struct MetricsSnapshot {
  static constexpr int kSchemaVersion = 1;

  struct Sample {
    std::string name;
    std::string kind;  ///< "probe"
    double value = 0;
  };
  struct HistogramSample {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;
    std::uint64_t count = 0;
    double sum = 0;
  };

  sim::Time at = 0;
  std::vector<Sample> samples;
  std::vector<HistogramSample> histograms;

  /// Value of a sampled metric by name; -1 when absent (tests and the
  /// timeline tool treat metrics as optional).
  double value_of(const std::string& name) const;

  /// {"schema_version":1,"at_ns":...,"metrics":[...],"histograms":[...]}
  void write_json(std::ostream& os) const;
};

/// Named instruments registered by components, snapshotable at any sim
/// time. Names are unique across kinds; re-requesting an existing
/// histogram returns the same one (so independent attach sites can share
/// it), a name taken by the other kind throws.
///
/// Histograms are stored behind stable pointers: references handed out
/// stay valid for the registry's lifetime regardless of later
/// registrations. `register_probe` adds a pull-style gauge sampled only
/// at snapshot time — the zero-overhead way to export the per-component
/// counter structs that already exist (L3Switch::Counters,
/// Ospf::Counters, DropTailQueue accounting, TCP stats).
class MetricsRegistry {
 public:
  Histogram& histogram(const std::string& name, std::vector<double> bounds);
  void register_probe(const std::string& name, std::function<double()> probe);

  MetricsSnapshot snapshot(sim::Time at) const;

  std::size_t size() const { return histograms_.size() + probes_.size(); }

 private:
  // std::map keeps snapshots deterministically sorted by name.
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::function<double()>> probes_;
};

}  // namespace f2t::obs
