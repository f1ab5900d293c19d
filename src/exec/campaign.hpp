#pragma once

#include <functional>

#include "core/campaign.hpp"
#include "core/runner.hpp"
#include "transport/workload.hpp"

namespace f2t::exec {

/// Maps a spec's workload axis onto the generator options the runner
/// consumes (CDF by name, kind, deadline in simulated time); run_knobs
/// applies it.
transport::WorkloadOptions workload_options_of(
    const core::CampaignSpec::WorkloadAxis& axis, sim::Time horizon);

/// Campaign engine: shards a core::CampaignSpec into independent
/// simulations and runs them across a work-stealing ThreadPool.
///
/// Determinism contract: every shard builds its own Simulator, Network
/// and RNG stream (seed = Random::derive_stream_seed(base_seed, index)),
/// shares no mutable state with any other shard, and writes its result
/// into a pre-assigned slot of the results vector. The deterministic
/// portion of the CampaignResult is therefore byte-identical for a given
/// spec whatever `jobs` is and however the OS schedules the workers.

struct CampaignOptions {
  int jobs = 1;  ///< <= 0 selects hardware_concurrency
  /// Optional progress hook, invoked after each shard completes.
  ///
  /// Thread-safety contract: run_campaign serializes *all* callback
  /// invocations (on_shard_start and on_result share one mutex), so a
  /// hook never observes itself running concurrently and may touch
  /// un-synchronized state (ostreams, counters, vectors). Invocation
  /// still happens on whichever pool thread ran the shard — hooks must
  /// not assume the caller's thread — and completion *order* across
  /// shards remains schedule-dependent; only the runs vector is in
  /// shard order.
  std::function<void(const core::ShardResult&)> on_result;
  /// Optional heartbeat, invoked just before each shard starts running
  /// (same serialization contract as on_result). With on_result this
  /// gives the CLI a live started/finished view of long campaigns — a
  /// stuck shard shows up as a started-but-never-finished index instead
  /// of silent stall.
  std::function<void(const core::ShardSpec&)> on_shard_start;
};

/// The one mapping from a spec's settings to a run's knobs, for one of
/// its control names and a seed: run_shard passes the shard's, `f2tsim
/// recover` its one control and --seed. Validates the spec first, so an
/// invalid one (say, built in code) throws validate()'s message.
core::RunKnobs run_knobs(const core::CampaignSpec& spec,
                         const std::string& control, std::uint64_t seed);

/// Runs one shard in isolation — also the reproduction path: re-running
/// a single shard of a campaign must produce the very record the full
/// campaign stored at that index.
core::ShardResult run_shard(const core::CampaignSpec& spec,
                            const core::ShardSpec& shard);

/// run_shard with the campaign engine's failure capture: a throwing
/// shard becomes a deterministic error record (identity from the
/// ShardSpec, message from the spec-dependent exception) instead of
/// propagating. This is the exact per-shard semantic of run_campaign,
/// exported so process workers produce byte-identical records.
core::ShardResult run_shard_captured(const core::CampaignSpec& spec,
                                     const core::ShardSpec& shard);

core::CampaignResult run_campaign(const core::CampaignSpec& spec,
                                  const CampaignOptions& options = {});

}  // namespace f2t::exec
