#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "snipr/contact/contact.hpp"
#include "snipr/energy/energy_model.hpp"
#include "snipr/radio/channel.hpp"
#include "snipr/node/data_buffer.hpp"
#include "snipr/node/mobile_node.hpp"
#include "snipr/node/node_block.hpp"
#include "snipr/node/scheduler.hpp"
#include "snipr/sim/simulator.hpp"

/// \file sensor_node.hpp
/// The duty-cycled sensor node (Contiki-substitute state machine).
///
/// One SNIP probing wakeup (Sec. III):
///   1. radio on, transmit a beacon (beacon_airtime);
///   2. listen for a reply until Ton expires;
///   3. on reply: the contact is probed — switch to a transfer session,
///      uploading buffered data until the mobile leaves range or the
///      buffer drains; then radio off;
///   4. on no reply: radio off after Ton.
///
/// Probing overhead Φ is the radio-on time of steps 1-2 (charged against
/// the per-epoch probing budget); transfer airtime is metered separately,
/// matching the paper's Table I definition of Φ.
///
/// The per-wakeup-mutated counters (Φ, ζ, bytes, wakeups, budget, the
/// retiming hints) live in a struct-of-arrays node::NodeBlock lane, not
/// in the node object: a FleetEngine shard hands every node a lane of
/// its own block, so the shard's hot state stays contiguous. Standalone
/// nodes own a private 1-lane block.
///
/// Empty SNIP wakeups need not be events: when the scheduler vouches for
/// a run of identical probing decisions (Scheduler::probe_run_end) and no
/// fault plan is attached, the node charges every wakeup the channel says
/// finds nothing in one step — the probe-lattice fast-forward, exact to
/// the bit (DESIGN.md, "Hot path & memory layout"). Simulator::step()
/// counts events, so it covers more simulated time per step then.

namespace snipr::fault {
class NodeFaultInjector;
}  // namespace snipr::fault

namespace snipr::node {

/// Who initiates the probe during a wakeup window.
enum class ProbingProtocol {
  /// SNIP (the paper, Sec. III): the sensor beacons, the mobile replies.
  kSnip,
  /// MIP baseline ([15] in the paper): the sensor only listens; the
  /// mobile broadcasts beacons every LinkParams::mobile_beacon_period
  /// while in range, and the contact is probed when one lands wholly
  /// inside the listen window.
  kMip,
};

struct SensorNodeConfig {
  /// Radio-on time per probing wakeup (SNIP's Ton).
  sim::Duration ton{sim::Duration::milliseconds(20)};
  /// Epoch length for budget/statistics (Tepoch).
  sim::Duration epoch{sim::Duration::hours(24)};
  /// Per-epoch probing-energy budget Φmax (radio-on time).
  sim::Duration budget_limit{sim::Duration::max()};
  /// Data generation rate, bytes/second.
  double sensing_rate_bps{1.0};
  /// Physical energy model for Joule reporting.
  energy::EnergyModel energy_model{};
  /// Probing protocol executed on each wakeup.
  ProbingProtocol protocol{ProbingProtocol::kSnip};
  /// Epochs the run is expected to simulate (0 = unknown). Drivers that
  /// know their horizon set it so the per-epoch history is reserved up
  /// front instead of growing geometrically across a long run.
  std::size_t expected_epochs{0};
  /// Retain the per-epoch EpochStats history (one entry per epoch).
  /// Fleet runs turn this off: the NodeBlock's streaming totals carry
  /// the identical information for run-level summaries, in O(1) memory
  /// per node regardless of epoch count.
  bool record_epoch_history{true};
  /// Retain the per-contact ProbedContactRecord log. Needed only by
  /// consumers that replay individual sessions (the store-and-forward
  /// collection pass, miss-ratio drill-downs); the probed-session *count*
  /// is maintained in the NodeBlock either way.
  bool record_probed_contacts{true};
};

/// Per-epoch outcome counters, snapshotted at each epoch boundary.
struct EpochStats {
  std::int64_t epoch_index{0};
  sim::Duration phi{};             ///< probing radio-on time
  sim::Duration zeta{};            ///< probed contact capacity (ground truth)
  double bytes_uploaded{0.0};
  std::uint64_t contacts_probed{0};
  std::uint64_t wakeups{0};        ///< probing wakeups performed
  double probing_energy_j{0.0};    ///< Joules spent probing
  double transfer_energy_j{0.0};   ///< Joules spent transferring
};

/// Ground-truth record of one probed contact (for miss-ratio analysis).
struct ProbedContactRecord {
  contact::Contact contact;
  sim::TimePoint probe_time;
  double bytes_uploaded{0.0};
};

class SensorNode {
 public:
  /// All references must outlive the node. Call start() once before
  /// running the simulator. This standalone form owns a private 1-lane
  /// NodeBlock.
  SensorNode(sim::Simulator& simulator, radio::Channel& channel,
             MobileNode& sink, Scheduler& scheduler, SensorNodeConfig config);

  /// Fleet form: hot state lives in `block` lane `lane` (owned by the
  /// caller, shared by the shard's nodes; must outlive the node).
  SensorNode(sim::Simulator& simulator, radio::Channel& channel,
             MobileNode& sink, Scheduler& scheduler, SensorNodeConfig config,
             NodeBlock& block, std::size_t lane);

  /// Schedule the first CPU wakeup and the epoch-boundary bookkeeping.
  void start();

  [[nodiscard]] const SensorNodeConfig& config() const noexcept {
    return config_;
  }

  /// Epochs completed so far (snapshotted stats). Empty when
  /// `config.record_epoch_history` is off — use the NodeBlock's
  /// streaming totals instead.
  [[nodiscard]] const std::vector<EpochStats>& epoch_history() const noexcept {
    return history_;
  }
  /// Counters for the epoch in progress, assembled from the block lane.
  [[nodiscard]] EpochStats current_epoch() const noexcept;
  /// Every successfully probed contact since start(). Empty when
  /// `config.record_probed_contacts` is off (the count survives in the
  /// block's probed_sessions lane).
  [[nodiscard]] const std::vector<ProbedContactRecord>& probed_contacts()
      const noexcept {
    return probed_;
  }
  [[nodiscard]] const FluidBuffer& buffer() const noexcept { return buffer_; }
  /// Radio time of the probing wakeups (beacon, reply, listen) and of the
  /// transfer sessions, per radio state.
  [[nodiscard]] const energy::EnergyMeter& probing_meter() const noexcept {
    return probing_meter_;
  }
  [[nodiscard]] const energy::EnergyMeter& transfer_meter() const noexcept {
    return transfer_meter_;
  }
  /// Probing radio-on time in the current epoch (the budget meter).
  [[nodiscard]] sim::Duration budget_used() const noexcept {
    return sim::Duration::microseconds(block_->budget_used_us(lane_));
  }

  /// The hot-state block this node writes (its own 1-lane block for the
  /// standalone form) and the lane within it — how summaries read the
  /// streaming totals without per-epoch history.
  [[nodiscard]] const NodeBlock& block() const noexcept { return *block_; }
  [[nodiscard]] std::size_t lane() const noexcept { return lane_; }

  /// Attach this node's fault-plan stream (fault::FaultPlan hands out one
  /// injector per node; must outlive the node). Null detaches. With no
  /// injector attached every fault path is skipped entirely — no RNG
  /// draw, no extra work — so fault-free runs stay byte-identical.
  void attach_faults(fault::NodeFaultInjector* faults) noexcept {
    faults_ = faults;
  }

 private:
  /// Shared delegate: `owned` is the standalone form's private block
  /// (null for fleet nodes); `block` overrides it when non-null.
  SensorNode(sim::Simulator& simulator, radio::Channel& channel,
             MobileNode& sink, Scheduler& scheduler, SensorNodeConfig config,
             std::unique_ptr<NodeBlock> owned, NodeBlock* block,
             std::size_t lane);

  void cpu_wakeup();
  /// Probe-lattice fast-forward: when the scheduler vouches for a run of
  /// identical probing wakeups at `cadence` (Scheduler::probe_run_end),
  /// charge every one of them that the channel says finds nothing in one
  /// step and schedule the next CPU wakeup at the first that needs the
  /// per-event path. Returns false (nothing charged) when no wakeup can
  /// be skipped.
  bool skip_empty_probes(const SensorContext& ctx, sim::Duration cadence);
  void schedule_next(sim::Duration delay);
  void probing_wakeup();
  void snip_wakeup();
  void mip_wakeup();
  /// `new_session` is false when re-beaconing inside an already-probed
  /// contact (after an early buffer drain): more data may flow, but ζ,
  /// contact counts and learning observations are not double-counted.
  void begin_transfer(const contact::Contact& active, sim::TimePoint probe_time,
                      sim::Duration cycle_hint, bool new_session);
  void epoch_boundary();
  /// Crash/reboot step of the epoch boundary (fault plan attached only):
  /// draw the crash, wipe or restore the scheduler, and track how many
  /// epochs the relearned mask needs to re-cover the pre-crash one.
  void crash_and_recovery_step();
  [[nodiscard]] SensorContext make_context() const;

  sim::Simulator& sim_;
  radio::Channel& channel_;
  MobileNode& sink_;
  Scheduler& scheduler_;
  SensorNodeConfig config_;

  /// Present only for the standalone form; fleet nodes borrow the
  /// shard's block.
  std::unique_ptr<NodeBlock> owned_block_;
  NodeBlock* block_;
  std::size_t lane_;

  FluidBuffer buffer_;
  energy::EnergyMeter probing_meter_;
  energy::EnergyMeter transfer_meter_;

  std::int64_t epoch_index_{0};
  /// When the pending epoch_boundary event fires.
  sim::TimePoint next_epoch_{};
  std::vector<EpochStats> history_;
  std::vector<ProbedContactRecord> probed_;
  double probing_j_mark_{0.0};
  double transfer_j_mark_{0.0};
  bool started_{false};

  /// Fault plane (null = no faults; every hook is then skipped).
  fault::NodeFaultInjector* faults_{nullptr};
  /// Scheduler checkpoint refreshed each epoch boundary (restore mode).
  std::string checkpoint_;
  /// The last rush mask seen before a crash — the re-convergence target.
  /// Frozen while re-converging, refreshed each healthy epoch otherwise.
  std::vector<bool> last_good_mask_bits_;
  bool reconverging_{false};
};

}  // namespace snipr::node
