#include "snipr/radio/channel.hpp"

#include <utility>

namespace snipr::radio {

Channel::Channel(contact::ContactSchedule schedule, LinkParams link,
                 sim::Rng rng)
    : Channel{std::make_shared<const contact::ContactSchedule>(
                  std::move(schedule)),
              link, rng} {}

Channel::Channel(std::shared_ptr<const contact::ContactSchedule> schedule,
                 LinkParams link, sim::Rng rng)
    : schedule_{std::move(schedule)}, link_{link}, rng_{rng} {}

std::size_t Channel::position_cursor(sim::TimePoint t) const {
  const std::vector<contact::Contact>& contacts = schedule_->contacts();
  if (t < cursor_time_) {
    // Backward query: re-derive the cursor by binary search.
    cursor_ = schedule_->first_undeparted_index(t);
  } else {
    while (cursor_ < contacts.size() &&
           contacts[cursor_].departure() <= t) {
      ++cursor_;
    }
  }
  cursor_time_ = t;
  return cursor_;
}

std::optional<contact::Contact> Channel::active_contact(
    sim::TimePoint t) const {
  const std::vector<contact::Contact>& contacts = schedule_->contacts();
  const std::size_t i = position_cursor(t);
  if (i < contacts.size() && contacts[i].covers(t)) return contacts[i];
  return std::nullopt;
}

std::optional<contact::Contact> Channel::next_arrival_at_or_after(
    sim::TimePoint t) const {
  const std::vector<contact::Contact>& contacts = schedule_->contacts();
  std::size_t i = position_cursor(t);
  // The cursor keeps only undeparted contacts ahead of it, which is one
  // contact too far for this query when a zero-length contact sits
  // exactly at t: it has departure() == arrival == t, so the cursor has
  // stepped past it even though its arrival satisfies >= t. Walk back
  // over any such contacts (all necessarily zero-length at exactly t —
  // arrival >= t and departure() <= t force both) so the result matches
  // ContactSchedule::next_arrival_at_or_after on every schedule.
  while (i > 0 && contacts[i - 1].arrival >= t) --i;
  // The contact at the cursor has not departed yet, but may be active
  // (arrival < t); every later contact arrives strictly after t.
  if (i < contacts.size() && contacts[i].arrival < t) ++i;
  if (i >= contacts.size()) return std::nullopt;
  return contacts[i];
}

sim::TimePoint Channel::first_probe_candidate(sim::TimePoint t0,
                                             sim::Duration step,
                                             sim::TimePoint end) const {
  const std::vector<contact::Contact>& contacts = schedule_->contacts();
  // First lattice point at or after `t`.
  const auto lattice_ceil = [t0, step](sim::TimePoint t) {
    if (t <= t0) return t0;
    return t0 + step * (((t - t0).count() + step.count() - 1) / step.count());
  };
  sim::TimePoint t = t0;
  while (t < end) {
    const std::size_t i = position_cursor(t);
    if (i >= contacts.size()) break;
    const contact::Contact& c = contacts[i];  // departs after t
    if (t < c.arrival) {
      t = lattice_ceil(c.arrival);
    } else if (t + link_.beacon_airtime <= c.departure()) {
      return t;
    } else {
      // This and every later point inside the contact sends a beacon
      // that would cross the departure: resume past it.
      t = lattice_ceil(c.departure());
    }
  }
  return lattice_ceil(end);
}

bool Channel::try_deliver(sim::TimePoint start, sim::Duration airtime) {
  if (!(airtime > sim::Duration::zero())) {
    // A zero-length frame carries no bytes over the air (a transfer with
    // zero bytes remaining degenerates to this). It is deliverable
    // whenever the receiver is in range at the instant itself — under the
    // *closed* interval [arrival, departure], since exactly-at-departure
    // and zero-length contacts are still "in range for the whole (empty)
    // airtime" — and it must not consume a frame-loss draw: there is no
    // airtime to lose a frame in, and a draw here would shift every later
    // draw in the node's stream.
    const std::vector<contact::Contact>& contacts = schedule_->contacts();
    const std::size_t i = position_cursor(start);
    if (i < contacts.size() && contacts[i].covers(start)) return true;
    // Exactly at a departure boundary the cursor has stepped past the
    // contact (departures are non-decreasing, so if any earlier contact
    // departs exactly at `start`, the one just behind the cursor does).
    return i > 0 && contacts[i - 1].departure() == start;
  }
  const auto active = active_contact(start);
  if (!active.has_value()) return false;
  // A frame ending exactly at departure is still fully in range
  // ([start, start+airtime) against [arrival, departure)): strict >.
  if (start + airtime > active->departure()) return false;
  if (link_.frame_loss > 0.0 && rng_.bernoulli(link_.frame_loss)) return false;
  return true;
}

}  // namespace snipr::radio
