#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "snipr/core/scenario.hpp"
#include "snipr/deploy/collection.hpp"
#include "snipr/deploy/deployment.hpp"
#include "snipr/deploy/fleet.hpp"
#include "snipr/deploy/fleet_engine.hpp"
#include "snipr/deploy/road_contacts.hpp"
#include "snipr/stats/online_stats.hpp"

/// \file fleet_pipeline.hpp
/// The one fleet pipeline behind `FleetEngine::run` (both overloads) and
/// `run_streaming_fleet`. Private to src/deploy.
///
///   inputs, built once -> per-shard schedules -> shard worker
///     -> node rows (FleetEngine) or a node-order fold (streaming)
///     -> optional store-and-forward collection pass (FleetEngine)
///
/// Determinism contract: node i's channel stream is fork i of
/// root(seed), taken in node order before any partitioning; every
/// auxiliary stream (vehicle flow, exit draws, trace replay streams)
/// comes from the root after those forks. A shard's schedules are a
/// pure function of the inputs and its node range, and consumers take
/// shard results in node order, so outcomes do not depend on the shard
/// or thread count.

namespace snipr::deploy::pipeline {

/// A fleet's deterministic inputs. Shard workers share them read-only;
/// exactly one workload source is set.
struct FleetInputs {
  DeploymentConfig deployment;
  SchedulerFactory make_scheduler;
  std::vector<sim::Rng> node_rngs;  ///< channel stream per node
  /// Vehicle-flow horizon: the flow profile's epoch times the epochs.
  sim::Duration flow_horizon{};
  /// Caller-built schedules; node i runs (*prebuilt)[i], moved out by
  /// the shard that owns node i.
  std::vector<contact::ContactSchedule>* prebuilt{nullptr};
  /// Road workload: node positions and the shared flow, exits drawn.
  const RoadWorkload* road{nullptr};
  std::vector<double> positions_m;
  std::vector<VehicleEntry> vehicles;
  /// Trace workload: the base trace and a replay stream per node.
  const TraceWorkload* trace{nullptr};
  std::vector<contact::Contact> trace_base;
  sim::Duration trace_period{};
  std::vector<sim::Rng> trace_rngs;
};

/// Inputs over caller-built schedules (node i runs schedules[i]).
[[nodiscard]] FleetInputs build_inputs(
    std::vector<contact::ContactSchedule>& schedules,
    SchedulerFactory make_scheduler, const DeploymentConfig& config);

/// Inputs for `spec`, one scheduler per node from `spec.strategy`
/// against `scenario`. Rejects empty fleets, routing over a trace
/// workload and bad road geometry with named reasons.
[[nodiscard]] FleetInputs build_inputs(const core::RoadsideScenario& scenario,
                                       const FleetSpec& spec,
                                       const DeploymentConfig& config);

/// Contiguous balanced partition: shard s owns [begin(s), begin(s + 1)).
struct Partition {
  std::size_t nodes{0};
  std::size_t shards{0};
  std::size_t threads{0};  ///< pool size, capped at the shard count

  [[nodiscard]] std::size_t begin(std::size_t shard) const noexcept {
    return nodes * shard / shards;
  }
};

[[nodiscard]] Partition partition(std::size_t nodes, const FleetConfig& config);

/// What one shard hands back, in node order.
struct ShardResult {
  std::vector<NodeOutcome> nodes;
  std::uint64_t probed_sessions{0};
  std::uint64_t events{0};
  /// Probed contacts with their carriers, when the run is routed.
  std::vector<CollectionSession> sessions;
};

/// Build the schedules of nodes [begin, end) and simulate them in one
/// Simulator to the horizon. Node i is wired to `faults->node(i)` when
/// a plan is attached.
[[nodiscard]] ShardResult run_shard(const FleetInputs& in, std::size_t begin,
                                    std::size_t end, fault::FaultPlan* faults,
                                    bool routed);

/// Node-order fold of per-node means: plain totals and one Welford pass
/// over ζ. finalize_outcome and the streaming summary both fold through
/// it, so the fields they share agree bit for bit.
struct FleetFold {
  stats::OnlineStats zeta;
  double total_zeta_s{0.0};
  double total_phi_s{0.0};
  double total_bytes{0.0};

  void add(const NodeOutcome& n) {
    zeta.add(n.mean_zeta_s);
    total_zeta_s += n.mean_zeta_s;
    total_phi_s += n.mean_phi_s;
    total_bytes += n.mean_bytes_uploaded;
  }

  /// Write the totals, the ζ spread and Jain's index into a
  /// DeploymentOutcome or a FleetSummary.
  template <class Aggregates>
  void write(Aggregates& out) const {
    out.total_zeta_s = total_zeta_s;
    out.total_phi_s = total_phi_s;
    out.total_bytes = total_bytes;
    if (zeta.count() == 0) return;
    out.min_zeta_s = zeta.min();
    out.max_zeta_s = zeta.max();
    out.mean_zeta_s = zeta.mean();
    out.zeta_variance = zeta.variance();
    out.zeta_stddev_s = zeta.stddev();
    // Jain's index (Σζ)²/(nΣζ²) rewritten on (mean, variance):
    //   Σζ = n·mean, Σζ² = n·(variance + mean²)  =>  mean²/(mean² + var).
    // Algebraically identical, but conditioned on the *spread* instead of
    // on the difference of two enormous nearly-equal sums.
    const double mean_sq = zeta.mean() * zeta.mean();
    const double denom = mean_sq + zeta.variance();
    out.zeta_fairness = denom > 0.0 ? mean_sq / denom : 1.0;
  }
};

}  // namespace snipr::deploy::pipeline
