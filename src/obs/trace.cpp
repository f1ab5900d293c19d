#include "obs/trace.hpp"

#include <algorithm>

namespace f2t::obs {

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRecovery: return "recovery";
    case SpanKind::kLinkDown: return "link_down";
    case SpanKind::kDetect: return "detect";
    case SpanKind::kBackup: return "backup_activated";
    case SpanKind::kFlood: return "lsa_flood";
    case SpanKind::kSpf: return "spf_run";
    case SpanKind::kFibDelta: return "fib_delta";
    case SpanKind::kFirstReroute: return "first_rerouted_packet";
  }
  return "?";
}

namespace {

bool is_flood_event(EventType t) {
  return t == EventType::kLsaOriginated || t == EventType::kLsaAccepted ||
         t == EventType::kBgpUpdateSent || t == EventType::kBgpUpdateReceived;
}

bool is_install_event(EventType t) {
  return t == EventType::kFibInstall || t == EventType::kControllerPush;
}

}  // namespace

SpanTrace::SpanTrace(const std::vector<Event>& events,
                     const EngineProfile& profile)
    : timeline_(events), profile_(profile) {
  const auto& failures = timeline_.failures();
  for (std::size_t i = 0; i < failures.size(); ++i) {
    const FailureRecovery& f = failures[i];
    const sim::Time window_end = i + 1 < failures.size()
                                     ? failures[i + 1].failed_at
                                     : sim::kNever;
    const auto in_window = [&](const Event& e) {
      return e.at >= f.failed_at && e.at < window_end;
    };
    const int episode = static_cast<int>(i);

    const int root = static_cast<int>(spans_.size());
    spans_.push_back({SpanKind::kRecovery, episode, -1, f.failed_at,
                      f.failed_at, 1, false});

    spans_.push_back({SpanKind::kLinkDown, episode, root, f.failed_at,
                      f.failed_at, f.links.size(), false});
    // The causal chain: each present stage parents the next; absent
    // stages (no detection, no convergence, …) are skipped and the chain
    // links to the nearest preceding stage instead.
    int chain = static_cast<int>(spans_.size()) - 1;

    if (f.detected()) {
      Span s{SpanKind::kDetect, episode, chain, f.failed_at, f.detected_at,
             0, false};
      for (const Event& e : events) {
        if (!in_window(e)) continue;
        if (e.type == EventType::kPortDetectedDown) ++s.count;
        if (e.type == EventType::kBfdSessionDown && e.at <= f.detected_at) {
          s.bfd = true;
        }
      }
      chain = static_cast<int>(spans_.size());
      spans_.push_back(s);
    }

    if (f.backup_at >= 0) {
      spans_.push_back({SpanKind::kBackup, episode, chain, f.backup_at,
                        f.backup_at, 1, false});
    }

    // Flood / SPF / FIB stages span first → last matching journal event
    // in the episode window.
    const auto stage = [&](SpanKind kind, auto match) {
      Span s{kind, episode, chain, -1, -1, 0, false};
      for (const Event& e : events) {
        if (!in_window(e) || !match(e)) continue;
        if (s.count == 0) s.begin = e.at;
        s.begin = std::min(s.begin, e.at);
        s.end = std::max(s.end, e.at);
        ++s.count;
      }
      if (s.count == 0) return;
      chain = static_cast<int>(spans_.size());
      spans_.push_back(s);
    };
    stage(SpanKind::kFlood,
          [](const Event& e) { return is_flood_event(e.type); });
    stage(SpanKind::kSpf,
          [](const Event& e) { return e.type == EventType::kSpfRun; });
    stage(SpanKind::kFibDelta,
          [](const Event& e) { return is_install_event(e.type); });
    // Pin the FIB stage's end to the timeline's convergence milestone —
    // identical by derivation (both are the last install/push in the
    // window), asserted here so a derivation drift cannot ship.
    if (f.converged() && spans_.back().kind == SpanKind::kFibDelta) {
      spans_.back().end = f.converged_at;
    }

    if (f.rerouted()) {
      // The connectivity gap: starts at the last pre-gap delivery
      // (clamped into the episode window for containment under the
      // root), ends at the first post-gap delivery.
      spans_.push_back({SpanKind::kFirstReroute, episode, chain,
                        std::max(f.failed_at, f.gap_start), f.gap_end, 1,
                        false});
    }

    // Root covers every milestone of its episode.
    sim::Time last = f.failed_at;
    for (std::size_t s = static_cast<std::size_t>(root); s < spans_.size();
         ++s) {
      last = std::max(last, spans_[s].end);
    }
    spans_[static_cast<std::size_t>(root)].end = last;
  }
}

const Span* SpanTrace::find(SpanKind kind, int episode) const {
  for (const Span& s : spans_) {
    if (s.kind == kind && s.episode == episode) return &s;
  }
  return nullptr;
}

namespace {

/// Nanoseconds as fractional microseconds ("380000.125"), the trace_event
/// ts/dur unit, without floating-point formatting jitter.
void write_us(std::ostream& os, sim::Time ns) {
  os << ns / 1000 << '.';
  const sim::Time frac = ns % 1000;
  os << static_cast<char>('0' + frac / 100)
     << static_cast<char>('0' + (frac / 10) % 10)
     << static_cast<char>('0' + frac % 10);
}

}  // namespace

void SpanTrace::write_chrome_trace(std::ostream& os) const {
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
        "\"args\": {\"name\": \"f2t-sim\"}}";
  const auto& failures = timeline_.failures();
  for (std::size_t i = 0; i < failures.size(); ++i) {
    os << ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
          "\"tid\": "
       << i << ", \"args\": {\"name\": \"failure #" << i + 1 << "\"}}";
  }
  // Wall-clock cost estimate: the engine's measured wall-per-sim-second
  // rate applied to each span's simulated duration.
  const double wall_per_sim = profile_.wall_per_sim_second();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << ",\n{\"name\": \"" << span_kind_name(s.kind)
       << "\", \"cat\": \"recovery\", \"ph\": \"X\", \"ts\": ";
    write_us(os, s.begin);
    os << ", \"dur\": ";
    write_us(os, s.duration());
    os << ", \"pid\": 0, \"tid\": " << s.episode << ", \"args\": {";
    os << "\"sim_ns\": " << s.duration();
    if (wall_per_sim > 0) {
      os << ", \"wall_est_us\": "
         << static_cast<std::int64_t>(sim::to_seconds(s.duration()) *
                                      wall_per_sim * 1e6);
    }
    os << ", \"count\": " << s.count;
    if (s.kind == SpanKind::kDetect) {
      os << ", \"mode\": \"" << (s.bfd ? "bfd" : "oracle") << "\"";
    }
    os << "}}";
    // Causal arrow from the parent stage (skipping the episode root:
    // containment already shows that nesting).
    if (s.parent >= 0 &&
        spans_[static_cast<std::size_t>(s.parent)].kind !=
            SpanKind::kRecovery) {
      const Span& p = spans_[static_cast<std::size_t>(s.parent)];
      os << ",\n{\"name\": \"causal\", \"cat\": \"recovery\", \"ph\": "
            "\"s\", \"id\": "
         << i << ", \"ts\": ";
      write_us(os, p.end);
      os << ", \"pid\": 0, \"tid\": " << p.episode << "}";
      os << ",\n{\"name\": \"causal\", \"cat\": \"recovery\", \"ph\": "
            "\"f\", \"bp\": \"e\", \"id\": "
         << i << ", \"ts\": ";
      write_us(os, s.begin);
      os << ", \"pid\": 0, \"tid\": " << s.episode << "}";
    }
  }
  os << "\n]}\n";
}

}  // namespace f2t::obs
