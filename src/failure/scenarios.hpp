#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "failure/injector.hpp"
#include "topo/topology.hpp"

namespace f2t::failure {

/// The path `probe` would take right now from `src` to `dst`, predicted
/// by net::walk_path from each switch's forwarding decision; the probe's
/// TTL (64, as the host stack stamps it) bounds the walk. Returns every
/// node visited, source and destination hosts included, or an empty
/// vector when the packet would not reach `dst`.
std::vector<const net::Node*> trace_route(const net::Host& src,
                                          const net::Host& dst,
                                          const net::Packet& probe);

/// Like trace_route, but also reports the exact links traversed —
/// required when parallel links exist (F² across-link pairs, Aspen's
/// duplicated core links) and a scenario must fail the member the flow
/// actually hashes onto.
struct TracedPath {
  std::vector<const net::Node*> nodes;  ///< src host ... dst host
  std::vector<net::Link*> links;        ///< nodes.size() - 1 entries

  bool empty() const { return nodes.empty(); }
};

TracedPath trace_route_detailed(const net::Host& src, const net::Host& dst,
                                const net::Packet& probe);

/// The paper's failure conditions (Table IV), defined relative to a
/// reference flow's downward forwarding path. C8 is the parenthetical
/// case of §II-C ("the failures of both two across links of S8, which
/// F²Tree obviously degrades to fat tree"): Sx's downward link plus both
/// of its across links.
enum class Condition { kC1, kC2, kC3, kC4, kC5, kC6, kC7, kC8 };

const char* condition_name(Condition c);
/// True for the conditions that only exist in F² topologies (they fail
/// across links).
bool condition_requires_f2(Condition c);

/// A constructed failure scenario: the reference flow, the links to fail,
/// and the actors for diagnostics.
struct ScenarioPlan {
  Condition condition = Condition::kC1;
  const net::Host* src = nullptr;
  const net::Host* dst = nullptr;
  std::uint16_t sport = 0;
  std::uint16_t dport = 9000;
  std::vector<net::Link*> fail_links;
  net::L3Switch* sx = nullptr;       ///< downward agg on the path
  net::L3Switch* dst_tor = nullptr;  ///< destination ToR
  std::string description;
  /// Campaign metadata: the aggregation class of this scenario ("C1".."C8"
  /// for Table IV conditions, the link class for link sites) and whether
  /// the probe flow actually crosses a failed link pre-failure. An
  /// off-path scenario is still a valid experiment — its expected loss is
  /// zero (e.g. failing an idle across link), and campaigns report the
  /// two populations separately.
  std::string site_class;
  bool on_path = true;
};

/// Builds a Table IV condition against a *converged* topology. Picks the
/// paper's leftmost-to-rightmost host flow and searches source ports until
/// the ECMP path satisfies the condition's structural prerequisites (e.g.
/// the right across neighbour still owning a downlink to the destination
/// ToR). Returns nullopt only when no port in the search budget works.
/// `proto` must match the workload that will be measured — ECMP hashes
/// the protocol, so a plan built for UDP does not pin a TCP flow's path.
std::optional<ScenarioPlan> build_condition(
    const topo::BuiltTopology& topo, Condition condition,
    net::Protocol proto = net::Protocol::kUdp,
    std::uint16_t base_sport = 20000, int search_budget = 512);

/// Which layer pair a switch-to-switch link connects; the per-failure-
/// class breakdown campaigns aggregate over.
enum class LinkClass { kTorAgg, kAggCore, kAcross, kOther };

const char* link_class_name(LinkClass c);

/// The failure-site universe for exhaustive campaigns: every
/// switch-to-switch link (host uplinks excluded) in network construction
/// order, which is deterministic for a given topology spec — site index i
/// names the same physical link in every run, on every thread.
std::vector<net::Link*> switch_links(const topo::BuiltTopology& topo);

LinkClass classify_link(const topo::BuiltTopology& topo,
                        const net::Link& link);

/// Builds the single-link failure scenario for `site` (an index into
/// switch_links). Picks a probe flow directed *under* the link where the
/// topology allows it and searches source ports until the ECMP path
/// crosses the failed link; when no port in the budget crosses (e.g. an
/// across link, which carries no pre-failure traffic by design), the plan
/// is returned with on_path = false and the first candidate flow. Returns
/// nullopt only for an out-of-range site.
std::optional<ScenarioPlan> build_link_site_plan(
    const topo::BuiltTopology& topo, int site,
    net::Protocol proto = net::Protocol::kUdp,
    std::uint16_t base_sport = 20000, int search_budget = 256);

/// How the planned links fail. kCut is the paper's bidirectional
/// interface-down failure; the rest are the adversarial fault models the
/// probe-based detector exists for:
///  - kUnidirectional: only the downward direction (upper layer → lower)
///    is cut. The oracle still sees a transition; a real detector has to
///    discover it from asymmetric hello loss.
///  - kGray: the downward direction silently drops `gray_loss` of its
///    packets. No physical transition ever happens, so oracle-mode
///    detection is structurally blind to it.
///  - kFlap: the link cycles down/up `flap_cycles` times with period
///    `flap_period` (down for half, up for half), ending up — the
///    route-churn generator flap dampening is measured against.
enum class FaultKind { kCut, kUnidirectional, kGray, kFlap };

const char* fault_kind_name(FaultKind kind);
/// Parses "cut" / "unidir" / "gray" / "flap"; nullopt otherwise.
std::optional<FaultKind> parse_fault_kind(std::string_view name);

struct FaultSpec {
  FaultKind kind = FaultKind::kCut;
  double gray_loss = 1.0;  ///< drop probability for kGray
  sim::Time flap_period = sim::millis(300);
  int flap_cycles = 5;
};

/// The end of `link` on the higher topology layer (core > agg > ToR) —
/// the origin of its downward direction. Across links connect peers;
/// those (and unknown layers) deterministically resolve to end_a.
const net::Node& upper_end(const topo::BuiltTopology& topo,
                           const net::Link& link);

/// Applies `spec` to every link in `plan.fail_links` starting at `when`.
/// kCut goes through the injector exactly as before (byte-identical
/// schedules for existing experiments); kUnidirectional and kGray act on
/// the downward direction per upper_end; kFlap schedules the full
/// down/up train through the injector so the history stays auditable.
void apply_fault(const topo::BuiltTopology& topo, FailureInjector& injector,
                 const ScenarioPlan& plan, const FaultSpec& spec,
                 sim::Time when);

}  // namespace f2t::failure
