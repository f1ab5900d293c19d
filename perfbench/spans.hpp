#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// In-memory span recorder of perfbench_trace. A span times one call
/// into a library module; its name is "<layer>.<step>", the layer being
/// the src/ module called. Spans stay in memory until write_chrome, so
/// recording costs two clock reads and a vector push.
///
/// Not thread-safe: the campaign records its shard spans from the
/// engine's serialized progress hooks.
class Tracer {
 public:
  using Id = int;
  static constexpr Id kNoParent = -1;

  /// Opens a span now.
  Id begin(std::string name, Id parent = kNoParent);
  /// Closes a span opened by begin.
  void end(Id id);
  /// Records an already finished span (times from now_s()).
  Id add(std::string name, Id parent, double start_s, double end_s, int tid);

  double duration_s(Id id) const;
  /// Duration minus the part of the span's interval that its child spans
  /// cover (overlapping children, e.g. parallel shards, count once).
  double self_s(Id id) const;
  /// Summed duration of every span called `name`.
  double total_s(std::string_view name) const;
  std::size_t size() const { return spans_.size(); }

  /// Chrome trace_event JSON (chrome://tracing, ui.perfetto.dev). Each
  /// event carries its id, parent id and self time in "args".
  void write_chrome(std::ostream& os) const;

 private:
  struct Span {
    std::string name;
    Id parent = kNoParent;
    double start_s = 0;
    double end_s = 0;
    int tid = 0;
  };

  std::vector<Span> spans_;
};

/// Opens a span for the lifetime of the scope.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, Tracer::Id parent = Tracer::kNoParent)
      : tracer_(tracer), id_(tracer.begin(std::move(name), parent)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  Tracer::Id id() const { return id_; }

 private:
  Tracer& tracer_;
  Tracer::Id id_;
};

}  // namespace perfbench
