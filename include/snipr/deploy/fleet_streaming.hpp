#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "snipr/core/scenario.hpp"
#include "snipr/deploy/fleet.hpp"
#include "snipr/deploy/fleet_engine.hpp"

/// \file fleet_streaming.hpp
/// Bounded-memory streaming fleet runs.
///
/// `FleetEngine::run` materialises every node's contact schedule up
/// front and returns one NodeOutcome row per node — O(fleet) memory
/// twice over, which a million-node run cannot afford. The streaming
/// path processes the fleet shard by shard: each shard builds the
/// schedules for *its own* node range just before simulating it (from
/// the shared vehicle flow, which is materialised once), folds its
/// nodes' results into scalar accumulators (Welford mean/variance via
/// `stats::OnlineStats`, quantiles via `stats::QuantileSketch`) and
/// frees everything before the next batch starts. Peak memory is the
/// vehicle flow plus one batch of shards, independent of fleet size.
///
/// Determinism matches the run() contract: node i's RNG stream is a
/// pure function of (seed, i); per-node values are folded into the
/// accumulators in node order regardless of shard/thread count, so the
/// summary — and its JSON — is byte-identical for any partitioning.
///
/// Long runs can checkpoint: after each shard batch the accumulator
/// state is written (atomically) to `StreamingOptions::checkpoint_path`,
/// and a later call with the same configuration resumes from the last
/// completed batch, bit-identical to an uninterrupted run.

namespace snipr::deploy {

/// Aggregate outcome of a streaming fleet run (the whole point: no
/// per-node vector).
struct FleetSummary {
  std::uint64_t nodes{0};
  std::uint64_t epochs{0};
  std::uint64_t shards{0};
  double total_zeta_s{0.0};
  double total_phi_s{0.0};
  double total_bytes{0.0};
  double min_zeta_s{0.0};
  double max_zeta_s{0.0};
  double mean_zeta_s{0.0};
  double zeta_variance{0.0};
  double zeta_stddev_s{0.0};
  /// Jain's fairness index over per-node ζ (1 = perfectly even).
  double zeta_fairness{1.0};
  /// Per-node mean-ζ quantiles from the merged sketch (1% relative
  /// error).
  double zeta_p50_s{0.0};
  double zeta_p90_s{0.0};
  double zeta_p99_s{0.0};
  /// Probed sessions summed over the whole fleet and run (exact).
  std::uint64_t contacts_probed{0};
  /// Discrete events executed across every shard simulator — events,
  /// not wakeups: a SNIP-RH node's empty wakeups are charged in closed
  /// form (the probe-lattice fast-forward), so this falls well below the
  /// wakeup count on such fleets.
  std::uint64_t events_executed{0};
};

struct StreamingOptions {
  /// Checkpoint file; empty disables checkpointing.
  std::string checkpoint_path;
  /// Shards simulated per batch (between checkpoint writes; also the
  /// number of shards whose schedules coexist in memory). 0 = the
  /// worker-thread count.
  std::size_t batch_shards{0};
  /// Process at most this many shards in this call, then checkpoint and
  /// return nullopt (time-slicing a huge run). 0 = run to completion.
  std::size_t max_shards{0};
};

/// Run `spec` as a streaming fleet. Returns the summary, or nullopt when
/// `options.max_shards` stopped the run early (state saved to the
/// checkpoint). Store-and-forward routing is rejected: replaying
/// per-contact sessions is exactly the per-node state streaming exists
/// to avoid. So is an enabled fault plan (`spec.faults`): the per-node
/// injectors live in FleetEngine::run, and a fleet streamed without them
/// would silently report fault-free numbers. Both throw
/// std::invalid_argument naming the reason.
[[nodiscard]] std::optional<FleetSummary> run_streaming_fleet(
    const core::RoadsideScenario& scenario, const FleetSpec& spec,
    const FleetConfig& config, const StreamingOptions& options = {});

/// Deterministic JSON for a summary (`snipr.fleet_summary.v1`).
[[nodiscard]] std::string to_json(const FleetSummary& summary);

}  // namespace snipr::deploy
