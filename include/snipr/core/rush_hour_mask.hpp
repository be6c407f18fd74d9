#pragma once

#include <initializer_list>
#include <optional>
#include <vector>

#include "snipr/contact/profile.hpp"
#include "snipr/sim/time.hpp"

/// \file rush_hour_mask.hpp
/// The Rush-Hours bitmap of SNIP-RH (Sec. VI-A of the paper).
///
/// An epoch is divided into N equal time-slots; each is marked "1" (rush
/// hour: SNIP may be activated) or "0". Engineers can configure the mask
/// directly, or it can be learned from probed contacts (RushHourLearner).

namespace snipr::core {

class RushHourMask {
 public:
  /// All-zero mask over `slot_count` slots of epoch `epoch`.
  RushHourMask(sim::Duration epoch, std::size_t slot_count);
  /// Explicit bitmap.
  RushHourMask(sim::Duration epoch, std::vector<bool> slots);

  /// 24-slot diurnal mask with the listed hours marked; the paper's
  /// road-side scenario is from_hours({7, 8, 17, 18}).
  [[nodiscard]] static RushHourMask from_hours(
      std::initializer_list<std::size_t> hours);

  /// Mask selecting the first `k` slots of `ordered` (e.g. slots sorted by
  /// observed contact count).
  [[nodiscard]] static RushHourMask top_k(
      sim::Duration epoch, std::size_t slot_count,
      const std::vector<contact::SlotIndex>& ordered, std::size_t k);

  [[nodiscard]] sim::Duration epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return slots_.size();
  }
  [[nodiscard]] sim::Duration slot_length() const noexcept {
    return epoch_ / static_cast<std::int64_t>(slots_.size());
  }
  [[nodiscard]] bool is_rush_slot(contact::SlotIndex s) const;
  /// True when `t` falls in a rush slot (epoch wraps).
  [[nodiscard]] bool is_rush(sim::TimePoint t) const noexcept;
  /// Start of the next rush slot at or after `t`; `t` itself when already
  /// inside one. Returns nullopt for an all-zero mask.
  [[nodiscard]] std::optional<sim::TimePoint> next_rush_start(
      sim::TimePoint t) const noexcept;
  /// End (exclusive) of the run of rush slots containing `t`, capped at
  /// the end of t's epoch; `t` itself when `t` is not in a rush slot.
  [[nodiscard]] sim::TimePoint rush_end(sim::TimePoint t) const noexcept;

  /// Number of slots marked "1".
  [[nodiscard]] std::size_t rush_slot_count() const noexcept;
  /// Total rush time per epoch (Trh).
  [[nodiscard]] sim::Duration rush_time_per_epoch() const noexcept;

  void set(contact::SlotIndex s, bool rush);
  [[nodiscard]] const std::vector<bool>& bits() const noexcept {
    return slots_;
  }

 private:
  sim::Duration epoch_;
  std::vector<bool> slots_;
};

}  // namespace snipr::core
