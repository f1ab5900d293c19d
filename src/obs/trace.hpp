#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "obs/journal.hpp"
#include "obs/timeline.hpp"

namespace f2t::obs {

/// One stage of the paper's causal recovery chain, as a span. The chain
/// per failure episode is
///   link_down → detect → lsa_flood → spf_run → fib_delta →
///   first_rerouted_packet
/// under a per-episode root span; backup activation hangs off detect as
/// a side branch (it is the data-plane shortcut, not a chain stage).
enum class SpanKind : std::uint8_t {
  kRecovery,      ///< per-episode root: failure instant → last milestone
  kLinkDown,      ///< instant: the physical cut(s)
  kDetect,        ///< failure → first port-detected-down
  kBackup,        ///< instant: first static-backup activation
  kFlood,         ///< first → last LSA/BGP flood event of the episode
  kSpf,           ///< first → last SPF run (full or incremental)
  kFibDelta,      ///< first FIB write → convergence (last install/push)
  kFirstReroute,  ///< delivery gap: last pre-gap → first post-gap packet
};

const char* span_kind_name(SpanKind kind);

/// A parent-linked span. Durations are simulated time; the Chrome export
/// adds an estimated wall-clock duration from the engine profile. Spans
/// are pinned to RecoveryTimeline milestones *by construction*: kDetect
/// ends at detected_at, kFibDelta and kRecovery end at converged_at (when
/// converged), kFirstReroute ends at gap_end — so the trace can never
/// disagree with the scalar timeline it visualizes.
struct Span {
  SpanKind kind = SpanKind::kRecovery;
  int episode = 0;   ///< index into RecoveryTimeline::failures()
  int parent = -1;   ///< index into spans(), -1 for the episode root
  sim::Time begin = 0;
  sim::Time end = 0;
  std::uint64_t count = 0;  ///< folded journal events (links cut, LSAs, …)
  bool bfd = false;  ///< kDetect only: a BFD session-down drove detection

  sim::Time duration() const { return end - begin; }
};

/// Stitches one run's journal into causal recovery spans.
///
/// Pure post-run derivation: it reads the already-recorded journal, so
/// tracing adds zero hooks, zero branches and zero events to the
/// simulation itself — a traced run and an untraced observed run execute
/// identically. Missing milestones (never detected, never converged, …)
/// simply skip their stage; the chain links each present stage to the
/// nearest preceding one.
class SpanTrace {
 public:
  explicit SpanTrace(const std::vector<Event>& events,
                     const EngineProfile& profile = {});

  const std::vector<Span>& spans() const { return spans_; }
  /// The scalar timeline the spans were pinned to.
  const RecoveryTimeline& timeline() const { return timeline_; }

  /// First span of `kind` in `episode`, or nullptr.
  const Span* find(SpanKind kind, int episode = 0) const;

  /// Chrome trace_event JSON (the "JSON Array Format" with metadata),
  /// loadable in about:tracing and Perfetto. One pid ("f2t-sim"), one tid
  /// per failure episode; spans become "X" complete events with ts/dur in
  /// microseconds of simulated time, parent links become "s"/"f" flow
  /// arrows, and args carry the journal-event counts plus an estimated
  /// wall-clock cost from the engine profile.
  void write_chrome_trace(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
  RecoveryTimeline timeline_;
  EngineProfile profile_;
};

}  // namespace f2t::obs
