#pragma once

#include <memory>
#include <optional>

#include "snipr/contact/schedule.hpp"
#include "snipr/radio/link.hpp"
#include "snipr/sim/rng.hpp"

/// \file channel.hpp
/// Contact-driven radio channel.
///
/// Geometry is abstracted by the contact schedule (Sec. II reference
/// model): a frame between the sensor node and the mobile node can be
/// delivered iff a contact covers the transmission. Frame loss is an
/// independent Bernoulli draw per frame.
///
/// The schedule is held by shared_ptr-to-const so one materialised
/// schedule can back many channels (BatchRunner builds each distinct
/// (scenario, epochs, jitter, seed) schedule once per grid); per-channel
/// mutable state is only the RNG and the query cursor.
///
/// Queries are served through a monotone cursor: simulation time only
/// moves forward, so instead of a fresh O(log n) binary search per
/// wakeup the channel remembers the first contact that has not yet
/// departed and advances it linearly — amortised O(1) across a run. A
/// backward query (replay, tests, the post-probe `active_contact`
/// re-read) falls back to a binary search that repositions the cursor,
/// so any query sequence returns exactly what ContactSchedule's own
/// binary-search lookups would.

namespace snipr::radio {

class Channel {
 public:
  Channel(contact::ContactSchedule schedule, LinkParams link, sim::Rng rng);
  Channel(std::shared_ptr<const contact::ContactSchedule> schedule,
          LinkParams link, sim::Rng rng);

  [[nodiscard]] const contact::ContactSchedule& schedule() const noexcept {
    return *schedule_;
  }
  [[nodiscard]] const LinkParams& link() const noexcept { return link_; }

  /// Contact covering `t`, if any.
  [[nodiscard]] std::optional<contact::Contact> active_contact(
      sim::TimePoint t) const;

  /// First contact with arrival >= t (cursor-accelerated counterpart of
  /// ContactSchedule::next_arrival_at_or_after).
  [[nodiscard]] std::optional<contact::Contact> next_arrival_at_or_after(
      sim::TimePoint t) const;

  /// True when a frame transmitted over [start, start+airtime) is
  /// delivered: the receiver must be in range for the whole airtime and
  /// the Bernoulli loss draw must pass. Mutates the RNG (one draw per call
  /// made while in range), so call exactly once per frame.
  [[nodiscard]] bool try_deliver(sim::TimePoint start, sim::Duration airtime);

  /// Probe-lattice query: the first point t = t0 + k·step (k >= 0) before
  /// `end` at which a beacon of link().beacon_airtime would reach the
  /// frame-loss draw of try_deliver — a contact covers t and the beacon
  /// ends no later than its departure — or, when no point before `end`
  /// qualifies, the first lattice point at or after `end`. Every point
  /// skipped finds nothing and would draw no RNG. Walks the cursor in
  /// amortised O(1) per contact passed and consumes no RNG itself.
  /// Requires step > 0 and beacon_airtime > 0.
  [[nodiscard]] sim::TimePoint first_probe_candidate(sim::TimePoint t0,
                                                     sim::Duration step,
                                                     sim::TimePoint end) const;

 private:
  /// Advance (or binary-search back) the cursor to the first contact
  /// with departure() > t, the only candidate able to cover t or any
  /// later instant. Returns the cursor index.
  std::size_t position_cursor(sim::TimePoint t) const;

  std::shared_ptr<const contact::ContactSchedule> schedule_;
  LinkParams link_;
  sim::Rng rng_;
  /// Invariant: every contact before cursor_ has departure() <=
  /// cursor_time_ (initially vacuous), so forward queries never look
  /// behind it.
  mutable std::size_t cursor_{0};
  mutable sim::TimePoint cursor_time_{sim::TimePoint::zero()};
};

}  // namespace snipr::radio
