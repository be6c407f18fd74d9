#include "snipr/node/sensor_node.hpp"

#include <algorithm>
#include <stdexcept>

#include "snipr/fault/fault_plan.hpp"

namespace snipr::node {

namespace {
using energy::RadioState;
}  // namespace

SensorNode::SensorNode(sim::Simulator& simulator, radio::Channel& channel,
                       MobileNode& sink, Scheduler& scheduler,
                       SensorNodeConfig config)
    : SensorNode{simulator,          channel, sink,
                 scheduler,          std::move(config),
                 std::make_unique<NodeBlock>(1), nullptr,
                 0} {}

SensorNode::SensorNode(sim::Simulator& simulator, radio::Channel& channel,
                       MobileNode& sink, Scheduler& scheduler,
                       SensorNodeConfig config, NodeBlock& block,
                       std::size_t lane)
    : SensorNode{simulator, channel, sink,    scheduler, std::move(config),
                 nullptr,   &block,  lane} {}

SensorNode::SensorNode(sim::Simulator& simulator, radio::Channel& channel,
                       MobileNode& sink, Scheduler& scheduler,
                       SensorNodeConfig config, std::unique_ptr<NodeBlock> owned,
                       NodeBlock* block, std::size_t lane)
    : sim_{simulator},
      channel_{channel},
      sink_{sink},
      scheduler_{scheduler},
      config_{config},
      owned_block_{std::move(owned)},
      block_{block != nullptr ? block : owned_block_.get()},
      lane_{lane},
      buffer_{config.sensing_rate_bps},
      probing_meter_{config.energy_model, RadioState::kOff, simulator.now()},
      transfer_meter_{config.energy_model, RadioState::kOff, simulator.now()} {
  if (!(config.ton > sim::Duration::zero())) {
    throw std::invalid_argument("SensorNode: ton must be positive");
  }
  if (!(config.epoch > sim::Duration::zero())) {
    throw std::invalid_argument("SensorNode: epoch must be positive");
  }
  if (lane >= block_->size()) {
    throw std::out_of_range("SensorNode: lane outside the node block");
  }
}

void SensorNode::start() {
  if (started_) throw std::logic_error("SensorNode::start called twice");
  started_ = true;
  if (config_.record_epoch_history) {
    history_.reserve(config_.expected_epochs);
  }
  if (config_.record_probed_contacts) {
    // Each schedule contact is probed at most once, so schedule size is a
    // hard bound — but duty-cycled nodes typically probe a small fraction
    // of it, so cap the up-front commitment (a fleet holds every node's
    // world at once); a heavier-probing run still grows geometrically
    // past the cap.
    constexpr std::size_t kProbedReserveCap = 1024;
    probed_.reserve(std::min(channel_.schedule().size(), kProbedReserveCap));
  }
  sim_.schedule_at(sim_.now(), [this] { cpu_wakeup(); });
  next_epoch_ = sim_.now() + config_.epoch;
  sim_.schedule_after(config_.epoch, [this] { epoch_boundary(); });
}

SensorContext SensorNode::make_context() const {
  SensorContext ctx;
  ctx.now = sim_.now();
  ctx.buffer_bytes = buffer_.available(ctx.now);
  ctx.budget_used = budget_used();
  ctx.budget_limit = config_.budget_limit;
  ctx.epoch_index = epoch_index_;
  return ctx;
}

EpochStats SensorNode::current_epoch() const noexcept {
  EpochStats e;
  e.epoch_index = epoch_index_;
  e.phi = sim::Duration::microseconds(block_->phi_us(lane_));
  e.zeta = sim::Duration::microseconds(block_->zeta_us(lane_));
  e.bytes_uploaded = block_->bytes_uploaded(lane_);
  e.contacts_probed = block_->contacts_probed(lane_);
  e.wakeups = block_->wakeups(lane_);
  e.probing_energy_j = probing_meter_.energy_j() - probing_j_mark_;
  e.transfer_energy_j = transfer_meter_.energy_j() - transfer_j_mark_;
  return e;
}

void SensorNode::schedule_next(sim::Duration delay) {
  sim_.schedule_after(delay, [this] { cpu_wakeup(); });
}

void SensorNode::cpu_wakeup() {
  const SensorContext ctx = make_context();
  const SchedulerDecision decision = scheduler_.on_wakeup(ctx);
  if (!(decision.next_wakeup > sim::Duration::zero())) {
    throw std::logic_error("Scheduler returned a non-positive next_wakeup");
  }
  block_->last_wakeup_us(lane_) = decision.next_wakeup.count();
  if (!decision.probe) {
    schedule_next(decision.next_wakeup);
  } else if (!skip_empty_probes(ctx, decision.next_wakeup)) {
    probing_wakeup();  // schedules the next CPU wakeup itself
  }
}

bool SensorNode::skip_empty_probes(const SensorContext& ctx,
                                   sim::Duration cadence) {
  // SNIP only (MIP listens for mobile beacons, a different geometry),
  // and never with a fault plan: faults draw once per probe. A cadence
  // below Ton is stretched to Ton per probe, off the scheduler's lattice.
  const radio::LinkParams& link = channel_.link();
  if (config_.protocol != ProbingProtocol::kSnip || faults_ != nullptr ||
      !(link.beacon_airtime > sim::Duration::zero()) ||
      cadence < config_.ton) {
    return false;
  }
  // The epoch boundary event resets the budget and snapshots the stats,
  // and nothing past the simulator's horizon may run: a lattice point at
  // either stays a real event (the boundary, scheduled earlier, runs
  // first at a tie — as it does per event).
  sim::TimePoint end =
      std::min(scheduler_.probe_run_end(ctx, config_.ton), next_epoch_);
  if (sim_.horizon() < end) {
    end = sim_.horizon() + sim::Duration::microseconds(1);
  }
  if (end <= ctx.now) return false;

  sim::TimePoint next;
  if (link.beacon_airtime + link.reply_airtime > config_.ton) {
    // The reply can never fit the listen window: every probe is empty.
    const std::int64_t points =
        ((end - ctx.now).count() + cadence.count() - 1) / cadence.count();
    next = ctx.now + cadence * points;
  } else {
    next = channel_.first_probe_candidate(ctx.now, cadence, end);
  }
  const std::int64_t skipped = (next - ctx.now).count() / cadence.count();
  if (skipped == 0) return false;

  // Exactly what `skipped` empty snip_wakeup calls charge: integer
  // durations, so the sums equal the per-event ones bit for bit.
  block_->wakeups(lane_) += static_cast<std::uint64_t>(skipped);
  block_->budget_used_us(lane_) += config_.ton.count() * skipped;
  block_->phi_us(lane_) += config_.ton.count() * skipped;
  probing_meter_.accumulate(RadioState::kTx, link.beacon_airtime * skipped);
  probing_meter_.accumulate(RadioState::kListen,
                            (config_.ton - link.beacon_airtime) * skipped);
  sim_.schedule_at(next, [this] { cpu_wakeup(); });
  return true;
}

void SensorNode::probing_wakeup() {
  ++block_->wakeups(lane_);
  if (config_.protocol == ProbingProtocol::kMip) {
    mip_wakeup();
  } else {
    snip_wakeup();
  }
}

void SensorNode::snip_wakeup() {
  const sim::TimePoint t0 = sim_.now();
  const radio::LinkParams& link = channel_.link();
  const sim::Duration last_next_wakeup =
      sim::Duration::microseconds(block_->last_wakeup_us(lane_));

  // Beacon transmission. The exchange resolves synchronously: the only
  // parties are this node and (at most) the one mobile node in range, so
  // outcomes can be computed now and only the *end* of the activity needs
  // a future event. Meters use duration accumulation rather than open
  // intervals so an epoch boundary inside the window stays consistent.
  const sim::TimePoint beacon_end = t0 + link.beacon_airtime;
  const sim::TimePoint listen_end = t0 + config_.ton;

  bool probed = false;
  sim::TimePoint reply_end = beacon_end + link.reply_airtime;
  if (reply_end <= listen_end &&
      channel_.try_deliver(t0, link.beacon_airtime) &&
      channel_.try_deliver(beacon_end, link.reply_airtime)) {
    probed = true;
  }

  if (probed && faults_ != nullptr) {
    // Injected radio false negative: the handshake happened in the world,
    // but this node's receiver dropped it. The injector sees only how far
    // into the contact the probe landed (an SNR proxy the radio itself
    // embodies), never the schedule.
    const auto active = channel_.active_contact(t0);
    double contact_fraction = 0.0;
    if (active.has_value() && active->length > sim::Duration::zero()) {
      contact_fraction =
          (t0 - active->arrival).to_seconds() / active->length.to_seconds();
    }
    if (faults_->miss_probe(contact_fraction)) probed = false;
  }

  probing_meter_.accumulate(RadioState::kTx, link.beacon_airtime);
  if (!probed) {
    if (faults_ != nullptr && faults_->spurious_detection()) {
      // Radio false positive: a ghost reply. The scheduler (and through
      // it the learner) records a detection that never was; no transfer
      // follows, and the wakeup is charged like any other miss.
      scheduler_.on_probe_detected(reply_end);
    }
    // Listen out the rest of Ton, then sleep. Full Ton charged to Φ.
    probing_meter_.accumulate(RadioState::kListen,
                              listen_end - beacon_end);
    block_->budget_used_us(lane_) += config_.ton.count();
    block_->phi_us(lane_) += config_.ton.count();
    // The radio is busy until listen_end: the next wakeup can never come
    // sooner than one Ton, whatever the scheduler asked for.
    schedule_next(std::max(last_next_wakeup, config_.ton));
    return;
  }

  // Reply received: contact probed at reply_end. Probing cost is only the
  // exchange up to awareness; the transfer session is metered separately.
  probing_meter_.accumulate(RadioState::kRx, link.reply_airtime);
  const sim::Duration probe_cost = reply_end - t0;
  block_->budget_used_us(lane_) += probe_cost.count();
  block_->phi_us(lane_) += probe_cost.count();

  const auto active = channel_.active_contact(t0);
  if (!active.has_value()) {
    throw std::logic_error("probed without an active contact");
  }
  const bool new_session =
      block_->last_probed_arrival_us(lane_) != active->arrival.count();
  block_->last_probed_arrival_us(lane_) = active->arrival.count();
  // Detection is observable now; learners bucket it into the epoch whose
  // effort paid for it, however long the transfer runs.
  if (new_session) scheduler_.on_probe_detected(reply_end);
  begin_transfer(*active, reply_end, last_next_wakeup, new_session);
}

void SensorNode::mip_wakeup() {
  const sim::TimePoint t0 = sim_.now();
  const radio::LinkParams& link = channel_.link();
  const sim::TimePoint listen_end = t0 + config_.ton;
  const sim::Duration last_next_wakeup =
      sim::Duration::microseconds(block_->last_wakeup_us(lane_));

  // MIP: the sensor only listens; the mobile beacons every
  // mobile_beacon_period while in range. Candidate contact: the one in
  // range now, else the first arriving inside the listen window.
  std::optional<contact::Contact> cand = channel_.active_contact(t0);
  if (!cand.has_value()) {
    const auto next = channel_.next_arrival_at_or_after(t0);
    if (next.has_value() && next->arrival < listen_end) cand = next;
  }

  bool probed = false;
  sim::TimePoint aware = t0;
  if (cand.has_value()) {
    const std::int64_t period = link.mobile_beacon_period.count();
    // First mobile beacon at or after max(t0, arrival).
    const sim::TimePoint from = std::max(t0, cand->arrival);
    const std::int64_t offset = from.count() - cand->arrival.count();
    std::int64_t k = (offset + period - 1) / period;
    for (;; ++k) {
      const sim::TimePoint b =
          cand->arrival + link.mobile_beacon_period * k;
      if (b + link.beacon_airtime > std::min(listen_end, cand->departure())) {
        break;  // no more beacons fit the window
      }
      // Beacon (mobile -> sensor) then the sensor's acknowledgement; the
      // sensor stretches its on-time to finish the handshake if needed.
      const sim::TimePoint ack_end =
          b + link.beacon_airtime + link.reply_airtime;
      if (channel_.try_deliver(b, link.beacon_airtime) &&
          ack_end <= cand->departure() &&
          channel_.try_deliver(b + link.beacon_airtime,
                               link.reply_airtime)) {
        if (faults_ != nullptr && cand->length > sim::Duration::zero()) {
          // Injected false negative: this beacon was dropped by the
          // listener; keep listening — a later beacon in the window may
          // still be caught.
          const double contact_fraction =
              (b - cand->arrival).to_seconds() / cand->length.to_seconds();
          if (faults_->miss_probe(contact_fraction)) continue;
        }
        probed = true;
        aware = ack_end;
        probing_meter_.accumulate(RadioState::kListen, b - t0);
        probing_meter_.accumulate(RadioState::kRx, link.beacon_airtime);
        probing_meter_.accumulate(RadioState::kTx, link.reply_airtime);
        break;
      }
    }
  }

  if (!probed) {
    if (faults_ != nullptr && faults_->spurious_detection()) {
      // Ghost beacon: the scheduler logs a detection that never was.
      scheduler_.on_probe_detected(t0 + config_.ton);
    }
    probing_meter_.accumulate(RadioState::kListen, config_.ton);
    block_->budget_used_us(lane_) += config_.ton.count();
    block_->phi_us(lane_) += config_.ton.count();
    schedule_next(std::max(last_next_wakeup, config_.ton));
    return;
  }

  const sim::Duration probe_cost = aware - t0;
  block_->budget_used_us(lane_) += probe_cost.count();
  block_->phi_us(lane_) += probe_cost.count();
  const bool new_session =
      block_->last_probed_arrival_us(lane_) != cand->arrival.count();
  block_->last_probed_arrival_us(lane_) = cand->arrival.count();
  if (new_session) scheduler_.on_probe_detected(aware);
  begin_transfer(*cand, aware, last_next_wakeup, new_session);
}

void SensorNode::begin_transfer(const contact::Contact& active,
                                sim::TimePoint probe_time,
                                sim::Duration cycle_hint, bool new_session) {
  const double rate = channel_.link().data_rate_bps;
  const double backlog = buffer_.available(probe_time);

  // Fluid drain: the buffer refills at the sensing rate while uploading at
  // the link rate. With rate <= sensing the transfer only ends at departure.
  sim::TimePoint transfer_end = active.departure();
  bool saw_departure = true;
  if (rate > buffer_.rate_bps()) {
    const double drain_s = backlog / (rate - buffer_.rate_bps());
    const sim::TimePoint drained = probe_time + sim::Duration::seconds(drain_s);
    if (drained < transfer_end) {
      transfer_end = drained;
      saw_departure = false;
    }
  }

  if (faults_ != nullptr) {
    // Injected mid-transfer abort: the session dies at a uniform fraction
    // of its planned duration and delivers only the truncated bytes. The
    // node cannot tell an abort from a departure it slept through, so the
    // observation is reported exactly like a truncated one
    // (saw_departure = false) — the learner's censoring rules apply.
    const double abort_fraction = faults_->transfer_abort_fraction();
    if (abort_fraction < 1.0) {
      const double planned_s = (transfer_end - probe_time).to_seconds();
      transfer_end =
          probe_time + sim::Duration::seconds(planned_s * abort_fraction);
      saw_departure = false;
    }
  }

  if (new_session) {
    // Ground-truth probed capacity is Tprobed = departure − awareness,
    // independent of how much of it the transfer used (Table I).
    block_->zeta_us(lane_) += (active.departure() - probe_time).count();
    ++block_->contacts_probed(lane_);
  }

  // Bools ride at the tail of the capture list so the closure packs into
  // the event queue's 64-byte inline storage; the link rate is re-read at
  // completion (constant during a run) rather than captured.
  const sim::Duration cycle = cycle_hint;
  sim_.schedule_at(transfer_end, [this, active, probe_time, transfer_end,
                                  cycle, saw_departure, new_session] {
    // Metered on completion; a transfer straddling an epoch boundary is
    // attributed to the epoch in which it ends, like its bytes.
    transfer_meter_.accumulate(RadioState::kTx, transfer_end - probe_time);
    const double duration_s = (transfer_end - probe_time).to_seconds();
    const double bytes = buffer_.take(
        transfer_end, channel_.link().data_rate_bps * duration_s);
    block_->bytes_uploaded(lane_) += bytes;
    sink_.deliver(bytes, transfer_end, new_session);
    if (new_session) {
      ++block_->probed_sessions(lane_);
      if (config_.record_probed_contacts) {
        probed_.push_back(ProbedContactRecord{active, probe_time, bytes});
      }
      ProbedContactObservation obs;
      obs.probe_time = probe_time;
      obs.observed_probed_len = transfer_end - probe_time;
      obs.bytes_uploaded = bytes;
      obs.cycle_at_probe = cycle;
      obs.saw_departure = saw_departure;
      scheduler_.on_contact_probed(obs);
    }
    schedule_next(sim::Duration::microseconds(block_->last_wakeup_us(lane_)));
  });
}

void SensorNode::epoch_boundary() {
  if (config_.record_epoch_history) {
    history_.push_back(current_epoch());
  }
  probing_j_mark_ = probing_meter_.energy_j();
  transfer_j_mark_ = transfer_meter_.energy_j();

  // Fold this epoch into the streaming totals and zero the counters —
  // the same additions, in the same order, a history-based summary does.
  block_->fold_epoch(lane_);
  ++epoch_index_;
  if (faults_ != nullptr) {
    crash_and_recovery_step();
  } else {
    scheduler_.on_epoch_start(epoch_index_);
  }
  next_epoch_ = sim_.now() + config_.epoch;
  sim_.schedule_after(config_.epoch, [this] { epoch_boundary(); });
}

void SensorNode::crash_and_recovery_step() {
  // Crash before the epoch-start hook: a node that died overnight reboots
  // into the new epoch, and whatever state survived is what the scheduler
  // folds its first post-crash epoch with.
  if (faults_->crash_now()) {
    const bool restored = faults_->spec().node.restore_from_checkpoint &&
                          !checkpoint_.empty() &&
                          scheduler_.restore(checkpoint_);
    if (!restored) {
      // Amnesia reboot: back to as-constructed state. If the node had a
      // learned mask, start measuring how long it takes to re-cover it.
      scheduler_.reset();
      bool had_mask = false;
      for (const bool bit : last_good_mask_bits_) had_mask = had_mask || bit;
      reconverging_ = had_mask;
    }
  }
  scheduler_.on_epoch_start(epoch_index_);

  if (reconverging_) {
    const std::vector<bool> bits = scheduler_.rush_mask_bits();
    std::size_t target_rush = 0;
    std::size_t matched = 0;
    for (std::size_t s = 0; s < last_good_mask_bits_.size(); ++s) {
      if (!last_good_mask_bits_[s]) continue;
      ++target_rush;
      if (s < bits.size() && bits[s]) ++matched;
    }
    const double overlap =
        target_rush == 0
            ? 1.0
            : static_cast<double>(matched) / static_cast<double>(target_rush);
    if (overlap >= faults_->spec().node.reconvergence_overlap) {
      ++faults_->counters().reconvergences;
      reconverging_ = false;
    } else {
      ++faults_->counters().reconvergence_epochs;
    }
  }
  if (!reconverging_) {
    // Healthy epoch: today's mask becomes the next crash's target.
    last_good_mask_bits_ = scheduler_.rush_mask_bits();
  }
  if (faults_->spec().node.restore_from_checkpoint &&
      faults_->spec().node.enabled()) {
    checkpoint_ = scheduler_.checkpoint();
  }
}

}  // namespace snipr::node
