#include "spans.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

#include "report.hpp"

namespace perfbench {

Tracer::Id Tracer::begin(std::string name, Id parent) {
  const double t = now_s();
  return add(std::move(name), parent, t, t, 0);
}

void Tracer::end(Id id) { spans_.at(id).end_s = now_s(); }

Tracer::Id Tracer::add(std::string name, Id parent, double start_s,
                       double end_s, int tid) {
  spans_.push_back(Span{std::move(name), parent, start_s, end_s, tid});
  return static_cast<Id>(spans_.size() - 1);
}

double Tracer::duration_s(Id id) const {
  const Span& s = spans_.at(id);
  return s.end_s - s.start_s;
}

double Tracer::self_s(Id id) const {
  const Span& s = spans_.at(id);
  std::vector<std::pair<double, double>> covered;
  for (const Span& child : spans_) {
    if (child.parent != id) continue;
    const double lo = std::max(child.start_s, s.start_s);
    const double hi = std::min(child.end_s, s.end_s);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  double union_s = 0;
  double reach = s.start_s;
  for (const auto& [lo, hi] : covered) {
    if (hi <= reach) continue;
    union_s += hi - std::max(lo, reach);
    reach = hi;
  }
  return (s.end_s - s.start_s) - union_s;
}

double Tracer::total_s(std::string_view name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.end_s - s.start_s;
  }
  return total;
}

void Tracer::write_chrome(std::ostream& os) const {
  const double origin = spans_.empty() ? 0 : spans_.front().start_s;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    os << (i > 0 ? ",\n" : "\n") << "{\"name\": " << json_string(s.name)
       << ", \"cat\": " << json_string(layer)
       << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
       << ", \"ts\": " << json_number((s.start_s - origin) * 1e6)
       << ", \"dur\": " << json_number((s.end_s - s.start_s) * 1e6)
       << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
       << ", \"self_us\": "
       << json_number(self_s(static_cast<Id>(i)) * 1e6) << "}}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
