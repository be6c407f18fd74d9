#include "snipr/sim/simulator.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

namespace snipr::sim {

Simulator::Simulator(std::uint64_t seed) : rng_{seed} {}

EventId Simulator::schedule_at(TimePoint at, Callback fn) {
  if (at < now_) {
    throw std::logic_error("Simulator::schedule_at: time is in the past");
  }
  return queue_.schedule(at, std::move(fn));
}

EventId Simulator::schedule_after(Duration delay, Callback fn) {
  if (delay.is_negative()) {
    throw std::logic_error("Simulator::schedule_after: negative delay");
  }
  return queue_.schedule(now_ + delay, std::move(fn));
}

bool Simulator::cancel(EventId id) { return queue_.cancel(id); }

std::size_t Simulator::drain(TimePoint limit, std::size_t max_events) {
  std::size_t executed = 0;
  horizon_ = limit;
  while (executed < max_events) {
    auto popped = queue_.pop_due(limit);
    if (!popped.has_value()) break;
    now_ = popped->at;
    popped->fn();
    ++executed;
  }
  return executed;
}

std::size_t Simulator::run_until(TimePoint until) {
  if (until < now_) {
    throw std::logic_error("Simulator::run_until: target is in the past");
  }
  const std::size_t n =
      drain(until, std::numeric_limits<std::size_t>::max());
  now_ = until;  // idle advance
  return n;
}

std::size_t Simulator::run() {
  return drain(TimePoint::max(), std::numeric_limits<std::size_t>::max());
}

std::size_t Simulator::step(std::size_t max_events) {
  return drain(TimePoint::max(), max_events);
}

}  // namespace snipr::sim
