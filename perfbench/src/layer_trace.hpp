#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "snipr/node/scheduler.hpp"

/// \file layer_trace.hpp
/// Layer attribution from outside the library: a delegating scheduler
/// decorator that counts and samples the `core` scheduler calls the
/// `node` layer makes, and a calibrated clock for the benchmark's spans.
///
/// Known limit: the decorator forwards exactly the virtuals
/// `node::Scheduler` declares today. A scheduler contract added later
/// (for example a closed-form fast-forward query) is invisible to it,
/// and a wrapped scheduler would silently answer with the base-class
/// default. That is why the end-to-end timings never run through it;
/// counters inside the program belong to a later change.

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t elapsed_ns(Clock::time_point from,
                                             Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point from) {
  return static_cast<double>(elapsed_ns(from, Clock::now())) * 1e-9;
}

/// Median cost of one clock read, from back-to-back reads. A sampled
/// span of a call costs the call plus about one read; subtracting this
/// removes the read.
[[nodiscard]] inline double calibrate_timer_ns() {
  constexpr std::size_t kPairs = 4096;
  std::vector<std::int64_t> deltas;
  deltas.reserve(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    const Clock::time_point a = Clock::now();
    deltas.push_back(elapsed_ns(a, Clock::now()));
  }
  std::nth_element(deltas.begin(), deltas.begin() + kPairs / 2, deltas.end());
  return static_cast<double>(deltas[kPairs / 2]);
}

/// One scheduler's calls, as the node layer made them. Every field but
/// the *_ns sums is deterministic and is compared exactly across runs.
struct SchedulerCounters {
  std::uint64_t wakeups{0};
  std::uint64_t probes{0};
  std::uint64_t detections{0};
  std::uint64_t completions{0};
  std::uint64_t epoch_starts{0};
  std::uint64_t resets{0};
  std::uint64_t restores{0};
  std::uint64_t checkpoints{0};
  std::uint64_t decide_samples{0};
  std::int64_t decide_ns{0};       ///< raw sampled on_wakeup spans
  std::int64_t epoch_start_ns{0};  ///< raw on_epoch_start spans
  /// Completed probed sessions as (probing wakeup time, probe time), in
  /// completion order; recorded only when `record_sessions` is set.
  std::vector<std::pair<snipr::sim::TimePoint, snipr::sim::TimePoint>>
      sessions;
  bool record_sessions{false};
};

/// Time one on_wakeup in this many (per scheduler; deterministic).
inline constexpr std::uint64_t kDecideSampleEvery = 64;

/// Delegates every virtual of `node::Scheduler` to `inner`, counting the
/// calls into `counters` (one slot per scheduler, so shard workers never
/// share one).
class CountingScheduler final : public snipr::node::Scheduler {
 public:
  CountingScheduler(std::unique_ptr<snipr::node::Scheduler> inner,
                    SchedulerCounters& counters)
      : inner_{std::move(inner)}, c_{&counters} {}

  [[nodiscard]] snipr::node::SchedulerDecision on_wakeup(
      const snipr::node::SensorContext& ctx) override {
    snipr::node::SchedulerDecision decision;
    if (c_->wakeups++ % kDecideSampleEvery == 0) {
      const Clock::time_point t0 = Clock::now();
      decision = inner_->on_wakeup(ctx);
      c_->decide_ns += elapsed_ns(t0, Clock::now());
      ++c_->decide_samples;
    } else {
      decision = inner_->on_wakeup(ctx);
    }
    if (decision.probe) {
      ++c_->probes;
      last_probe_wakeup_ = ctx.now;
    }
    return decision;
  }

  void on_probe_detected(snipr::sim::TimePoint when) override {
    ++c_->detections;
    inner_->on_probe_detected(when);
  }

  void on_contact_probed(
      const snipr::node::ProbedContactObservation& obs) override {
    ++c_->completions;
    // A transfer is scheduled from its probing wakeup and the node sleeps
    // until it completes, so the last probing wakeup is this session's.
    if (c_->record_sessions) {
      c_->sessions.emplace_back(last_probe_wakeup_, obs.probe_time);
    }
    inner_->on_contact_probed(obs);
  }

  void on_epoch_start(std::int64_t epoch_index) override {
    ++c_->epoch_starts;
    const Clock::time_point t0 = Clock::now();
    inner_->on_epoch_start(epoch_index);
    c_->epoch_start_ns += elapsed_ns(t0, Clock::now());
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] std::string checkpoint() const override {
    ++c_->checkpoints;
    return inner_->checkpoint();
  }

  bool restore(std::string_view blob) override {
    ++c_->restores;
    return inner_->restore(blob);
  }

  void reset() override {
    ++c_->resets;
    inner_->reset();
  }

  [[nodiscard]] std::vector<bool> rush_mask_bits() const override {
    return inner_->rush_mask_bits();
  }

 private:
  std::unique_ptr<snipr::node::Scheduler> inner_;
  SchedulerCounters* c_;
  snipr::sim::TimePoint last_probe_wakeup_{};
};

}  // namespace perfbench
