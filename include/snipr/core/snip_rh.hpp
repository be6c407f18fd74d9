#pragma once

#include "snipr/core/rush_hour_mask.hpp"
#include "snipr/node/scheduler.hpp"
#include "snipr/stats/ewma.hpp"

/// \file snip_rh.hpp
/// SNIP-RH: the paper's contribution (Sec. VI).
///
/// SNIP is activated only when all three conditions hold:
///   1. the current time-slot is marked as a Rush Hour;
///   2. the buffer holds at least the learned mean amount of data uploaded
///      per probed contact (so probed capacity is never wasted);
///   3. the epoch's probing-energy budget Φmax still affords a wakeup.
///
/// The duty-cycle is d_rh = Ton / T̄contact where T̄contact is an EWMA of
/// the contact length with a small weight on new samples (Sec. VI-C) —
/// the knee of the SNIP capacity curve, i.e. the largest duty that still
/// probes at the minimum per-unit energy cost ρ.
///
/// A sensor node can only time a contact from the moment it probes it, so
/// the raw observation is Tprobed, which under-estimates Tcontact by the
/// expected pre-awareness gap. With head correction (default) the sample
/// is Tprobed + Tcycle/2, an unbiased reconstruction of Tcontact when
/// Tcycle < Tcontact; without it the estimator settles at ~2/3·Tcontact
/// and the duty lands slightly above the knee (the paper notes ρ is not
/// very sensitive there). The ablation bench A3 quantifies both choices.

namespace snipr::core {

struct SnipRhConfig {
  /// SNIP's per-wakeup radio-on time (Ton).
  sim::Duration ton{sim::Duration::milliseconds(20)};
  /// Prior estimate of the mean contact length, seconds (engineers'
  /// deployment-time guess; refined online).
  double initial_tcontact_s{2.0};
  /// EWMA weight for T̄contact ("a small weight", Sec. VI-C).
  double length_ewma_weight{0.1};
  /// EWMA weight for the mean upload per probed contact (Sec. VI-B).
  double upload_ewma_weight{0.1};
  /// Condition 2 floor: probe only when at least this many bytes wait,
  /// even before any upload has been observed.
  double min_data_bytes{1.0};
  /// Reconstruct Tcontact from Tprobed by adding Tcycle/2 (see above).
  bool head_correction{true};
  /// Learn from observations truncated by buffer drain (default: skip,
  /// they under-estimate the contact length).
  bool learn_truncated{false};
  /// Floor for CPU sleep intervals between condition checks.
  sim::Duration min_sleep{sim::Duration::seconds(1)};
};

class SnipRh final : public node::Scheduler {
 public:
  SnipRh(RushHourMask mask, SnipRhConfig config);

  [[nodiscard]] node::SchedulerDecision on_wakeup(
      const node::SensorContext& ctx) override;
  /// Inside one run of rush slots, with the buffer over threshold and
  /// budget left, every wakeup probes at the same cadence Ton/d; the run
  /// ends at the earliest of the rush run's end, the mask epoch's end and
  /// budget exhaustion.
  [[nodiscard]] sim::TimePoint probe_run_end(
      const node::SensorContext& ctx,
      sim::Duration probe_cost) const override;
  void on_contact_probed(const node::ProbedContactObservation& obs) override;
  [[nodiscard]] std::string name() const override { return "SNIP-RH"; }

  /// Current contact-length estimate T̄contact (seconds).
  [[nodiscard]] double tcontact_estimate_s() const noexcept;
  /// Current duty d_rh = Ton / T̄contact, clamped to (0, 1].
  [[nodiscard]] double duty() const noexcept;
  /// Condition-2 threshold: learned mean upload per contact (bytes).
  [[nodiscard]] double upload_threshold_bytes() const noexcept;
  [[nodiscard]] const RushHourMask& mask() const noexcept { return mask_; }
  /// Replace the mask (used by adaptive variants tracking seasonal shift).
  /// Call it from a scheduler hook or between simulator runs: a node may
  /// already have charged a run of wakeups under the old mask
  /// (probe_run_end), which another event's change could not undo.
  void set_mask(RushHourMask mask) noexcept { mask_ = std::move(mask); }

  /// Crash/recovery seam. The checkpoint carries the mask bits and both
  /// EWMAs; reset() clears the EWMAs back to their priors but keeps the
  /// mask — for standalone SNIP-RH the mask is provisioned configuration
  /// (it lives in flash), not learned state. AdaptiveSnipRh wipes the
  /// mask itself when it reboots its inner SnipRh.
  [[nodiscard]] std::string checkpoint() const override;
  bool restore(std::string_view blob) override;
  void reset() override;
  [[nodiscard]] std::vector<bool> rush_mask_bits() const override {
    return mask_.bits();
  }

 private:
  /// on_wakeup's verdict; SNIP-RH's decision has no side effects.
  [[nodiscard]] node::SchedulerDecision decide(
      const node::SensorContext& ctx) const;

  RushHourMask mask_;
  SnipRhConfig config_;
  stats::Ewma tcontact_s_;
  stats::Ewma upload_bytes_;
};

}  // namespace snipr::core
