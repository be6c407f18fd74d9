/// End-to-end hot-path throughput benches (google-benchmark), emitting
/// the BENCH_hotpath.json trajectory (see README):
///
///   BM_SimulatorEventLoop — raw discrete-event engine throughput
///     (events/sec) plus steady-state allocation counters measured by a
///     global operator-new hook: allocs_per_event and bytes_per_event
///     must read 0 for the inline-callback/slot-id queue.
///   BM_EventQueueChurn    — schedule/cancel/pop churn straight against
///     the queue, ops/sec, with the same allocation counters.
///   BM_ExperimentRun      — one full run_experiment (schedule build +
///     simulated epochs), runs/sec.
///   BM_BatchGrid          — a BatchRunner grid sharing one materialised
///     schedule per distinct (scenario, epochs, jitter, seed) group.
///
/// The checked-in baseline lives at bench/baselines/BENCH_hotpath.json;
/// CI re-runs these benches and gates (non-blocking) on a ±15% drift of
/// every */sec counter via tools/check_bench_regression.py.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "snipr/core/batch_runner.hpp"
#include "snipr/core/experiment.hpp"
#include "snipr/core/strategy.hpp"
#include "snipr/sim/simulator.hpp"
#include "support/counting_alloc_hook.hpp"

namespace {

using namespace snipr;

/// Monotone counters from the shared hook; benches read deltas around
/// their hot region.
struct AllocSnapshot {
  std::uint64_t calls;
  std::uint64_t bytes;
};

AllocSnapshot alloc_snapshot() {
  return {testing::alloc_calls.load(std::memory_order_relaxed),
          testing::alloc_bytes.load(std::memory_order_relaxed)};
}

/// A self-rescheduling timer whose closure is deliberately as fat as the
/// transfer-completion closure in SensorNode::begin_transfer (~56 bytes):
/// the representative worst case for per-event callback storage.
struct FatTick {
  sim::Simulator* simulator;
  sim::Duration period;
  std::uint64_t payload[5];

  void operator()() const {
    benchmark::DoNotOptimize(payload[0]);
    simulator->schedule_after(period, *this);
  }
};

void BM_SimulatorEventLoop(benchmark::State& state) {
  const auto timers = static_cast<std::int64_t>(state.range(0));
  sim::Simulator simulator{1};
  for (std::int64_t i = 0; i < timers; ++i) {
    FatTick tick{};
    tick.simulator = &simulator;
    tick.period = sim::Duration::microseconds(997 + 13 * i);
    tick.payload[0] = static_cast<std::uint64_t>(i);
    simulator.schedule_after(tick.period, tick);
  }
  // Warm the engine so vectors reach steady-state capacity before any
  // allocation is counted.
  simulator.run_until(simulator.now() + sim::Duration::seconds(1));

  const AllocSnapshot before = alloc_snapshot();
  std::uint64_t events = 0;
  for (auto _ : state) {
    events += simulator.run_until(simulator.now() + sim::Duration::seconds(1));
  }
  const AllocSnapshot after = alloc_snapshot();

  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  const double n = events > 0 ? static_cast<double>(events) : 1.0;
  state.counters["allocs_per_event"] =
      static_cast<double>(after.calls - before.calls) / n;
  state.counters["bytes_per_event"] =
      static_cast<double>(after.bytes - before.bytes) / n;
  state.counters["events_per_sec"] =
      benchmark::Counter(static_cast<double>(events),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorEventLoop)->Arg(4)->Arg(64);

/// Mixed schedule/cancel/pop churn straight against the queue, over a
/// standing population of range(0) pending events: each step cancels
/// one tracked event and reschedules it, then pops the earliest and
/// replaces it. Library code never cancels (a node's pending wakeup and
/// epoch boundary both run), so this is a stress of the cancel path and
/// its tombstone compaction, not a model of a simulated node. Delays are
/// mostly sub-second with an occasional two-hour hop.
void BM_EventQueueChurn(benchmark::State& state) {
  const auto population = static_cast<std::size_t>(state.range(0));
  sim::EventQueue q;
  std::vector<sim::EventId> pending(population);
  std::uint64_t lcg = 0x9E3779B97F4A7C15ull;
  const auto delay = [&lcg]() {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t r = lcg >> 33;
    if ((r & 0xFF) == 0) return sim::Duration::hours(2);
    return sim::Duration::microseconds(
        static_cast<std::int64_t>(r % 1'000'000));
  };
  sim::TimePoint now = sim::TimePoint::zero();
  for (auto& id : pending) id = q.schedule(now + delay(), [] {});
  std::size_t cursor = 0;
  std::uint64_t ops = 0;
  const auto step = [&] {
    // A cancel misses when a pop already consumed the handle (keeping
    // stale-handle rejection on the measured path); the slot then tracks
    // the pop's replacement instead, so the queue holds exactly
    // range(0) events at every step.
    const bool retimed = q.cancel(pending[cursor]);
    if (retimed) pending[cursor] = q.schedule(now + delay(), [] {});
    auto popped = q.pop();
    now = popped->at;
    const sim::EventId replacement = q.schedule(now + delay(), [] {});
    if (!retimed) pending[cursor] = replacement;
    cursor = (cursor + 1) % population;
    ops += retimed ? 4 : 3;
  };
  // Warm to steady-state capacity before counting allocations.
  for (std::size_t i = 0; i < 4 * population + 1024; ++i) step();

  ops = 0;
  const AllocSnapshot before = alloc_snapshot();
  for (auto _ : state) step();
  const AllocSnapshot after = alloc_snapshot();

  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  const double n = ops > 0 ? static_cast<double>(ops) : 1.0;
  state.counters["allocs_per_op"] =
      static_cast<double>(after.calls - before.calls) / n;
  state.counters["bytes_per_op"] =
      static_cast<double>(after.bytes - before.bytes) / n;
  state.counters["churn_ops_per_sec"] = benchmark::Counter(
      static_cast<double>(ops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventQueueChurn)->Arg(64)->Arg(4096);

void BM_ExperimentRun(benchmark::State& state) {
  const core::RoadsideScenario scenario;
  for (auto _ : state) {
    const auto scheduler = core::make_scheduler(
        scenario, core::Strategy::kSnipRh, 48.0, scenario.phi_max_large_s());
    core::ExperimentConfig config;
    config.epochs = 7;
    config.phi_max_s = scenario.phi_max_large_s();
    config.sensing_rate_bps = scenario.sensing_rate_for_target(48.0);
    config.seed = 1;
    const auto result = core::run_experiment(scenario, *scheduler, config);
    benchmark::DoNotOptimize(result.mean_zeta_s);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["runs_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExperimentRun);

void BM_BatchGrid(benchmark::State& state) {
  core::SweepSpec sweep;
  sweep.strategies = {core::Strategy::kSnipAt, core::Strategy::kSnipOpt,
                      core::Strategy::kSnipRh, core::Strategy::kAdaptive};
  sweep.zeta_targets_s = {16.0, 32.0, 56.0};
  sweep.phi_maxes_s = {sweep.scenario.phi_max_large_s()};
  sweep.seeds = {1, 2};
  sweep.epochs = 3;
  const std::vector<core::BatchRun> runs = core::expand_sweep(sweep);
  const core::BatchRunner runner;

  for (auto _ : state) {
    const auto results = runner.run(runs);
    benchmark::DoNotOptimize(results.size());
  }
  const auto total =
      static_cast<std::int64_t>(runs.size()) * state.iterations();
  state.SetItemsProcessed(total);
  state.counters["grid_runs_per_sec"] = benchmark::Counter(
      static_cast<double>(total), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchGrid)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
