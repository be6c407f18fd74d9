#include "snipr/core/rush_hour_mask.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace snipr::core {

RushHourMask::RushHourMask(sim::Duration epoch, std::size_t slot_count)
    : RushHourMask{epoch, std::vector<bool>(slot_count, false)} {}

RushHourMask::RushHourMask(sim::Duration epoch, std::vector<bool> slots)
    : epoch_{epoch}, slots_{std::move(slots)} {
  if (!(epoch > sim::Duration::zero())) {
    throw std::invalid_argument("RushHourMask: epoch must be positive");
  }
  if (slots_.empty()) {
    throw std::invalid_argument("RushHourMask: need at least one slot");
  }
  if (epoch_.count() % static_cast<std::int64_t>(slots_.size()) != 0) {
    throw std::invalid_argument(
        "RushHourMask: epoch must divide evenly into slots");
  }
}

RushHourMask RushHourMask::from_hours(
    std::initializer_list<std::size_t> hours) {
  std::vector<bool> bits(24, false);
  for (const std::size_t h : hours) {
    if (h >= 24) throw std::invalid_argument("from_hours: hour must be < 24");
    bits[h] = true;
  }
  return RushHourMask{sim::Duration::hours(24), std::move(bits)};
}

RushHourMask RushHourMask::top_k(sim::Duration epoch, std::size_t slot_count,
                                 const std::vector<contact::SlotIndex>& ordered,
                                 std::size_t k) {
  RushHourMask mask{epoch, slot_count};
  const std::size_t take = std::min(k, ordered.size());
  for (std::size_t i = 0; i < take; ++i) {
    if (ordered[i] >= slot_count) {
      throw std::invalid_argument("top_k: slot index out of range");
    }
    mask.set(ordered[i], true);
  }
  return mask;
}

bool RushHourMask::is_rush_slot(contact::SlotIndex s) const {
  if (s >= slots_.size()) throw std::out_of_range("RushHourMask::is_rush_slot");
  return slots_[s];
}

bool RushHourMask::is_rush(sim::TimePoint t) const noexcept {
  const std::int64_t into_epoch =
      ((t.count() % epoch_.count()) + epoch_.count()) % epoch_.count();
  const auto slot =
      static_cast<std::size_t>(into_epoch / slot_length().count());
  return slots_[slot];
}

sim::TimePoint RushHourMask::rush_end(sim::TimePoint t) const noexcept {
  if (!is_rush(t)) return t;
  const std::int64_t slot_us = slot_length().count();
  const std::int64_t into_epoch =
      ((t.count() % epoch_.count()) + epoch_.count()) % epoch_.count();
  auto slot = static_cast<std::size_t>(into_epoch / slot_us) + 1;
  while (slot < slots_.size() && slots_[slot]) ++slot;
  const auto run_end_us = static_cast<std::int64_t>(slot) * slot_us;
  return t + sim::Duration::microseconds(run_end_us - into_epoch);
}

std::optional<sim::TimePoint> RushHourMask::next_rush_start(
    sim::TimePoint t) const noexcept {
  if (is_rush(t)) return t;
  if (rush_slot_count() == 0) return std::nullopt;
  const std::int64_t slot_us = slot_length().count();
  // Scan forward slot by slot; at most one epoch of slots.
  std::int64_t start = (t.count() / slot_us + 1) * slot_us;
  for (std::size_t i = 0; i <= slots_.size(); ++i) {
    const sim::TimePoint candidate =
        sim::TimePoint::at(sim::Duration::microseconds(start));
    if (is_rush(candidate)) return candidate;
    start += slot_us;
  }
  return std::nullopt;  // unreachable: some slot is rush
}

std::size_t RushHourMask::rush_slot_count() const noexcept {
  return static_cast<std::size_t>(
      std::count(slots_.begin(), slots_.end(), true));
}

sim::Duration RushHourMask::rush_time_per_epoch() const noexcept {
  return slot_length() * static_cast<std::int64_t>(rush_slot_count());
}

void RushHourMask::set(contact::SlotIndex s, bool rush) {
  if (s >= slots_.size()) throw std::out_of_range("RushHourMask::set");
  slots_[s] = rush;
}

}  // namespace snipr::core
