#pragma once

#include <cstdint>

#include "snipr/sim/event_queue.hpp"
#include "snipr/sim/rng.hpp"
#include "snipr/sim/time.hpp"

/// \file simulator.hpp
/// Discrete-event simulation kernel.
///
/// This is the substrate standing in for COOJA in the paper's evaluation:
/// a deterministic event loop over a microsecond-resolution virtual clock.
/// Components (radios, nodes, contact processes) schedule callbacks; the
/// kernel fires them in timestamp order.

namespace snipr::sim {

class Simulator {
 public:
  using Callback = EventQueue::Callback;

  explicit Simulator(std::uint64_t seed = 1);

  /// Current virtual time.
  [[nodiscard]] TimePoint now() const noexcept { return now_; }

  /// Deterministic random source shared by the run.
  [[nodiscard]] Rng& rng() noexcept { return rng_; }

  /// Schedule at an absolute time (must not be before now()).
  EventId schedule_at(TimePoint at, Callback fn);
  /// Schedule after a non-negative delay from now().
  EventId schedule_after(Duration delay, Callback fn);
  /// Cancel a pending event; false if already fired/cancelled.
  bool cancel(EventId id);

  /// Run all events with timestamp <= until, then advance the clock to
  /// `until` even if idle. Returns the number of events executed.
  std::size_t run_until(TimePoint until);

  /// Run until the event queue drains. Returns events executed.
  std::size_t run();

  /// Execute at most `max_events` events. Returns events executed.
  std::size_t step(std::size_t max_events = 1);

  /// Latest timestamp the run in progress may execute: run_until's
  /// target, TimePoint::max() under run() and step(). Components that
  /// account for many instants in one event (the probe-lattice
  /// fast-forward) stop there, as event-by-event execution would.
  [[nodiscard]] TimePoint horizon() const noexcept { return horizon_; }

  /// Live events still pending.
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }

 private:
  std::size_t drain(TimePoint limit, std::size_t max_events);

  EventQueue queue_;
  TimePoint now_{TimePoint::zero()};
  TimePoint horizon_{TimePoint::max()};
  Rng rng_;
};

}  // namespace snipr::sim
