#include "snipr/core/snip_rh.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "snipr/core/checkpoint_io.hpp"

namespace snipr::core {
namespace {

void append_ewma(std::string& out, const stats::Ewma& ewma) {
  ckpt::append_double(out, ewma.mean_raw());
  ckpt::append_u64(out, ewma.has_value() ? 1 : 0);
  ckpt::append_u64(out, ewma.count());
}

bool read_ewma(ckpt::TokenReader& reader, stats::Ewma& ewma) {
  double mean = 0.0;
  std::uint64_t initialised = 0;
  std::uint64_t count = 0;
  if (!reader.read_double(mean) || !reader.read_u64(initialised) ||
      !reader.read_u64(count)) {
    return false;
  }
  ewma.restore(mean, initialised != 0, static_cast<std::size_t>(count));
  return true;
}

}  // namespace

SnipRh::SnipRh(RushHourMask mask, SnipRhConfig config)
    : mask_{std::move(mask)},
      config_{config},
      tcontact_s_{config.length_ewma_weight, config.initial_tcontact_s},
      upload_bytes_{config.upload_ewma_weight} {
  if (!(config.ton > sim::Duration::zero())) {
    throw std::invalid_argument("SnipRh: ton must be positive");
  }
  if (!(config.initial_tcontact_s > 0.0)) {
    throw std::invalid_argument("SnipRh: initial tcontact must be positive");
  }
  if (!(config.min_sleep > sim::Duration::zero())) {
    throw std::invalid_argument("SnipRh: min_sleep must be positive");
  }
}

double SnipRh::tcontact_estimate_s() const noexcept {
  return tcontact_s_.value_or(config_.initial_tcontact_s);
}

double SnipRh::duty() const noexcept {
  // d_rh = Ton / T̄contact: the knee of the SNIP capacity curve.
  return std::clamp(config_.ton.to_seconds() / tcontact_estimate_s(), 0.0,
                    1.0);
}

double SnipRh::upload_threshold_bytes() const noexcept {
  return std::max(config_.min_data_bytes, upload_bytes_.value_or(0.0));
}

node::SchedulerDecision SnipRh::on_wakeup(const node::SensorContext& ctx) {
  return decide(ctx);
}

node::SchedulerDecision SnipRh::decide(const node::SensorContext& ctx) const {
  // Condition 3: the epoch's probing budget must afford one more wakeup.
  if (ctx.budget_used + config_.ton > ctx.budget_limit) {
    // Budget resets at the next epoch boundary.
    const std::int64_t epoch_us = mask_.epoch().count();
    const std::int64_t next_epoch = (ctx.now.count() / epoch_us + 1) * epoch_us;
    const auto wake =
        sim::TimePoint::at(sim::Duration::microseconds(next_epoch));
    return {.probe = false,
            .next_wakeup = std::max(wake - ctx.now, config_.min_sleep)};
  }

  // Condition 1: only probe inside Rush Hours.
  if (!mask_.is_rush(ctx.now)) {
    const auto next = mask_.next_rush_start(ctx.now);
    if (!next.has_value()) {
      // Degenerate all-zero mask: re-check once per epoch (the mask may be
      // replaced by an adaptive learner in the meantime).
      return {.probe = false, .next_wakeup = mask_.epoch()};
    }
    return {.probe = false,
            .next_wakeup = std::max(*next - ctx.now, config_.min_sleep)};
  }

  // Condition 2: enough data must wait so probed capacity is not wasted.
  const double threshold = upload_threshold_bytes();
  if (ctx.buffer_bytes < threshold) {
    // Sleep until the constant-rate sensing refills the gap (bounded below
    // by min_sleep; re-evaluated on the next wakeup anyway).
    sim::Duration wait = config_.min_sleep;
    // The node's sensing rate is not in the context; a half-threshold
    // heuristic keeps checks cheap without assuming the rate: re-check
    // after one rush-slot fraction.
    wait = std::max(wait, mask_.slot_length() / 16);
    return {.probe = false, .next_wakeup = wait};
  }

  const double d = duty();
  if (d <= 0.0) {
    return {.probe = false, .next_wakeup = config_.min_sleep};
  }
  return {.probe = true,
          .next_wakeup = std::max(
              sim::Duration::seconds(config_.ton.to_seconds() / d),
              config_.ton)};
}

sim::TimePoint SnipRh::probe_run_end(const node::SensorContext& ctx,
                                     sim::Duration probe_cost) const {
  const node::SchedulerDecision first = decide(ctx);
  if (!first.probe || !(probe_cost > sim::Duration::zero())) return ctx.now;
  // Between detections decide() depends on the run only through the
  // clock and the budget: the EWMAs (hence the cadence) change only in
  // on_contact_probed, and a buffer that met condition 2 keeps meeting it
  // while nothing uploads. Condition 1 holds to the end of the current
  // run of rush slots, capped at the end of the mask's epoch.
  const sim::TimePoint rush_end = mask_.rush_end(ctx.now);

  // Condition 3 holds for wakeups j = 0 … affordable-1, each charging
  // probe_cost before the next check: budget_used + j·cost + ton <= limit.
  const sim::Duration headroom =
      ctx.budget_limit - ctx.budget_used - config_.ton;
  const std::int64_t affordable = headroom.count() / probe_cost.count() + 1;
  const sim::Duration cadence = first.next_wakeup;
  const std::int64_t in_rush =
      ((rush_end - ctx.now).count() + cadence.count() - 1) / cadence.count();
  return affordable < in_rush ? ctx.now + cadence * affordable : rush_end;
}

void SnipRh::on_contact_probed(const node::ProbedContactObservation& obs) {
  if (!obs.saw_departure && !config_.learn_truncated) {
    // A drained buffer truncated the observation; it under-estimates the
    // contact length, so skip it (upload amount is still informative).
    upload_bytes_.add(obs.bytes_uploaded);
    return;
  }
  double sample_s = obs.observed_probed_len.to_seconds();
  if (config_.head_correction) {
    // The pre-awareness gap is uniform over the cycle: add its mean.
    sample_s += obs.cycle_at_probe.to_seconds() / 2.0;
  }
  if (sample_s > 0.0) tcontact_s_.add(sample_s);
  upload_bytes_.add(obs.bytes_uploaded);
}

std::string SnipRh::checkpoint() const {
  std::string out;
  out += "snip-rh-v1 ";
  ckpt::append_u64(out, static_cast<std::uint64_t>(mask_.slot_count()));
  for (std::size_t s = 0; s < mask_.slot_count(); ++s) {
    ckpt::append_u64(out, mask_.bits()[s] ? 1 : 0);
  }
  append_ewma(out, tcontact_s_);
  append_ewma(out, upload_bytes_);
  return out;
}

bool SnipRh::restore(std::string_view blob) {
  ckpt::TokenReader reader{blob};
  if (!reader.expect("snip-rh-v1")) return false;
  std::uint64_t slots = 0;
  if (!reader.read_u64(slots) || slots != mask_.slot_count()) return false;
  std::vector<bool> bits(static_cast<std::size_t>(slots), false);
  for (std::size_t s = 0; s < bits.size(); ++s) {
    std::uint64_t bit = 0;
    if (!reader.read_u64(bit)) return false;
    bits[s] = bit != 0;
  }
  stats::Ewma tcontact = tcontact_s_;
  stats::Ewma upload = upload_bytes_;
  if (!read_ewma(reader, tcontact) || !read_ewma(reader, upload) ||
      !reader.exhausted()) {
    return false;
  }
  mask_ = RushHourMask{mask_.epoch(), std::move(bits)};
  tcontact_s_ = tcontact;
  upload_bytes_ = upload;
  return true;
}

void SnipRh::reset() {
  tcontact_s_ =
      stats::Ewma{config_.length_ewma_weight, config_.initial_tcontact_s};
  upload_bytes_ = stats::Ewma{config_.upload_ewma_weight};
}

}  // namespace snipr::core
