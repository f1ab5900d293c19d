#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace f2t::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: at least one bucket bound");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("Histogram: bounds must be ascending");
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += v;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  if (probes_.contains(name)) {
    throw std::invalid_argument("MetricsRegistry: '" + name +
                                "' already registered with another kind");
  }
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

void MetricsRegistry::register_probe(const std::string& name,
                                     std::function<double()> probe) {
  if (histograms_.contains(name)) {
    throw std::invalid_argument("MetricsRegistry: '" + name +
                                "' already registered with another kind");
  }
  if (!probe) throw std::invalid_argument("MetricsRegistry: null probe");
  probes_[name] = std::move(probe);
}

MetricsSnapshot MetricsRegistry::snapshot(sim::Time at) const {
  MetricsSnapshot snap;
  snap.at = at;
  for (const auto& [name, probe] : probes_) {
    snap.samples.push_back({name, "probe", probe()});
  }
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back(
        {name, h->bounds(), h->counts(), h->count(), h->sum()});
  }
  return snap;
}

double MetricsSnapshot::value_of(const std::string& name) const {
  for (const Sample& s : samples) {
    if (s.name == name) return s.value;
  }
  return -1;
}

namespace {
/// JSON has no NaN/Inf; clamp to 0 like bench_util does.
double finite(double v) { return std::isfinite(v) ? v : 0.0; }
}  // namespace

void MetricsSnapshot::write_json(std::ostream& os) const {
  os << "{\n"
     << "  \"schema_version\": " << kSchemaVersion << ",\n"
     << "  \"at_ns\": " << at << ",\n"
     << "  \"metrics\": [\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    os << "    {\"name\": \"" << s.name << "\", \"kind\": \"" << s.kind
       << "\", \"value\": " << finite(s.value) << "}"
       << (i + 1 < samples.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"histograms\": [\n";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSample& h = histograms[i];
    os << "    {\"name\": \"" << h.name << "\", \"bounds\": [";
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      os << finite(h.bounds[b]) << (b + 1 < h.bounds.size() ? ", " : "");
    }
    os << "], \"counts\": [";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      os << h.counts[b] << (b + 1 < h.counts.size() ? ", " : "");
    }
    os << "], \"count\": " << h.count << ", \"sum\": " << finite(h.sum)
       << "}" << (i + 1 < histograms.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace f2t::obs
