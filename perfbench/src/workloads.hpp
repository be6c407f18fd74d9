#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "snipr/core/batch_runner.hpp"
#include "snipr/core/scenario_catalog.hpp"
#include "snipr/deploy/fleet.hpp"

/// \file workloads.hpp
/// The benchmark's four workloads, each runnable two ways:
///  - `run_entry_point`: the one call a `snipr_cli fleet` / `batch` user
///    makes (FleetEngine::run(scenario, spec, config) or
///    BatchRunner::run, then to_json). End-to-end timings use only this.
///  - `run_traced`: the same workload replayed as a phase-split sequence
///    of public calls (input builders, FleetEngine::run over pre-built
///    schedules with counting schedulers, run_collection, to_json) with
///    spans around each call. It must reproduce the entry point's bytes.

namespace perfbench {

struct Workload {
  std::string name;
  std::uint64_t seed{1};
  std::size_t epochs{0};
  /// Catalog entry supplying the per-node environment and budget.
  const snipr::core::CatalogEntry* entry{nullptr};
  bool is_grid{false};
  /// Fleet workloads: the (possibly rescaled) catalog fleet.
  snipr::deploy::FleetSpec spec;
  /// Grid workload: the sweep and its expansion.
  snipr::core::SweepSpec sweep;
  std::vector<snipr::core::BatchRun> runs;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Workload `name` with inputs drawn from `seed`; `epochs` 0 keeps the
/// workload's default horizon. Throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] Workload make_workload(std::string_view name,
                                     std::uint64_t seed, std::size_t epochs);

/// `workload` (a faulted fleet) at its catalog entry's node count, with
/// checkpointed reboots and the phantom-detection rate of
/// `chaos-lossy-radio`: the variant that drives the decorator's
/// checkpoint/restore forwarding, which amnesiac crashes never call.
[[nodiscard]] Workload checkpoint_variant(const Workload& workload);

/// Build the workload's inputs through the public builders and drop
/// them: vehicle flow, contact schedules or plan and one scheduler per
/// node for fleets; the sweep expansion, one contact schedule per seed
/// and one scheduler per run for the grid.
void build_inputs(const Workload& workload);

/// The entry-point run at `threads` workers; returns the JSON bytes.
[[nodiscard]] std::string run_entry_point(const Workload& workload,
                                          std::size_t threads);

/// Named values of one traced run, in a fixed order.
using Values = std::vector<std::pair<std::string, double>>;

struct TracedRun {
  std::string json;
  double wall_s{0.0};
  /// Spans of the consecutive phases, seconds; they tile `wall_s`.
  Values phases;
  /// Derived and nested timings, clock-read cost removed.
  Values timings;
  Values counters;  ///< deterministic; must repeat exactly
  /// Fleet aggregates in the streaming summary's field set (highway).
  std::string aggregates;
};

/// Phase-split replay at `threads` workers with counting schedulers.
[[nodiscard]] TracedRun run_traced(const Workload& workload,
                                   std::size_t threads, double timer_ns);

/// run_streaming_fleet on the workload's spec: its aggregates in the
/// same field set as TracedRun::aggregates, its probed-session count,
/// and its wall seconds.
struct StreamRun {
  std::string aggregates;
  std::uint64_t contacts_probed{0};
  double wall_s{0.0};
};
[[nodiscard]] StreamRun run_streaming(const Workload& workload,
                                      std::size_t threads);

}  // namespace perfbench
