#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "snipr/sim/time.hpp"

/// \file scheduler.hpp
/// The radio-scheduling seam of a sensor node.
///
/// The sensor node's CPU wakes periodically and asks its scheduler whether
/// to carry out a SNIP probing wakeup now and when to check again
/// (Sec. VI-B of the paper). Concrete policies — SNIP-AT, SNIP-OPT,
/// SNIP-RH, adaptive variants — live in snipr::core; the node only knows
/// this interface.

namespace snipr::node {

/// Snapshot handed to the scheduler at each CPU wakeup.
struct SensorContext {
  sim::TimePoint now;
  double buffer_bytes{0.0};        ///< data currently buffered
  sim::Duration budget_used{};     ///< probing radio-on time this epoch
  sim::Duration budget_limit{};    ///< Φmax per epoch
  std::int64_t epoch_index{0};
};

/// What the sensor observed about one successfully probed contact.
struct ProbedContactObservation {
  sim::TimePoint probe_time;          ///< both sides aware of each other
  sim::Duration observed_probed_len;  ///< probe_time .. transfer end
  double bytes_uploaded{0.0};
  sim::Duration cycle_at_probe{};     ///< Tcycle in effect when probed
  /// True when the transfer ended because the mobile node left range (the
  /// observation spans the full Tprobed); false when the buffer drained
  /// first (the observation is truncated).
  bool saw_departure{true};
};

/// Scheduler verdict for one CPU wakeup.
struct SchedulerDecision {
  /// Perform one SNIP wakeup (radio on for Ton, beacon, listen) now.
  bool probe{false};
  /// Delay until the next CPU wakeup. After a probing wakeup this is
  /// typically the SNIP cycle Tcycle = Ton/d; otherwise a coarser check
  /// period. Must be positive.
  sim::Duration next_wakeup{sim::Duration::seconds(1)};
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  Scheduler(Scheduler&&) = delete;
  Scheduler& operator=(Scheduler&&) = delete;

  /// Called at every CPU wakeup; decides whether to probe now.
  [[nodiscard]] virtual SchedulerDecision on_wakeup(
      const SensorContext& ctx) = 0;

  /// Probe-lattice fast-forward contract, asked right after on_wakeup(ctx)
  /// returned {probe = true, next_wakeup = c}. Returns the exclusive end
  /// T of the run of identical decisions from there: if the node wakes at
  /// ctx.now + j·c (j = 0, 1, …), finds nothing at each wakeup and
  /// charges `probe_cost` to the budget for each, with no other hook
  /// called in between and the buffer never shrinking, then every such
  /// wakeup before T would get {probe = true, next_wakeup = c} from
  /// on_wakeup — and on_wakeup would change no state — so the node may
  /// charge those wakeups without making the calls. The default, ctx.now,
  /// means "no run": schedulers and decorators that do not override it
  /// keep the per-event path.
  [[nodiscard]] virtual sim::TimePoint probe_run_end(
      const SensorContext& ctx, sim::Duration probe_cost) const;

  /// Called synchronously the instant a new contact is detected (both
  /// sides aware), before any transfer runs. This is the censored-
  /// feedback hook: slot-occupancy learners must count detections here,
  /// at detection time, so a transfer that straddles an epoch boundary
  /// cannot push the count into the epoch after the one whose probing
  /// effort produced it. Fires exactly once per probed contact — a
  /// re-beacon inside an already-probed contact does not repeat it.
  virtual void on_probe_detected(sim::TimePoint when);

  /// Called after each successfully probed contact's transfer ends
  /// (learning hook for quantities only known at completion: observed
  /// length, bytes uploaded).
  virtual void on_contact_probed(const ProbedContactObservation& obs);

  /// Called at each epoch boundary, before the budget resets.
  virtual void on_epoch_start(std::int64_t epoch_index);

  /// Human-readable policy name for reports.
  [[nodiscard]] virtual std::string name() const = 0;

  // --- Crash/recovery seam (the fault plane's checkpoint API) ----------

  /// Serialize all learned state as deterministic text (hexfloat
  /// doubles, so restore() is bit-exact). Empty = the policy is
  /// stateless and a reboot costs it nothing.
  [[nodiscard]] virtual std::string checkpoint() const { return {}; }

  /// Restore state captured by checkpoint() on a scheduler constructed
  /// with the same configuration. Returns false (state unchanged) when
  /// the blob does not parse; an empty blob is the stateless policies'
  /// valid no-op checkpoint.
  virtual bool restore(std::string_view blob) { return blob.empty(); }

  /// Reboot with amnesia: discard learned state back to as-constructed.
  /// Configuration (duties, provisioned masks, targets) survives — it
  /// lives in flash, not RAM.
  virtual void reset() {}

  /// Learned rush-slot bits, empty when the policy maintains no mask —
  /// the fault plane's re-convergence yardstick after a crash.
  [[nodiscard]] virtual std::vector<bool> rush_mask_bits() const {
    return {};
  }
};

}  // namespace snipr::node
