/// Property: the probe-lattice fast-forward is observationally identical
/// to running every SNIP-RH wakeup as its own event.
///
/// The oracle is the per-event loop itself: the same SnipRh runs once
/// bare (the node may charge its empty wakeups in closed form) and once
/// behind a decorator that forwards every Scheduler virtual except
/// probe_run_end, so the node sees the base-class "no run" answer and takes
/// one event per wakeup. Random contact schedules aim at the lattice's
/// edges — contacts starting exactly on a lattice point, departing
/// exactly one beacon after one (the last instant a probe still reaches
/// the frame-loss draw) or 1 µs earlier, zero-length and touching
/// contacts, contacts across slot and epoch edges — under empty, full
/// and wrap-around masks, tight and unbounded budgets, sensing rates
/// below and above the upload threshold, frame loss off and on, node
/// epochs on and off the mask's, and with a fault plan attached (which
/// must keep both runs per event).
/// Every observable must match: epoch history, probed contacts, NodeBlock
/// lanes, per-state meter time, the learner's state and the channel's
/// RNG position. A fleet-sized run compares FleetEngine JSON bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "snipr/core/scenario_catalog.hpp"
#include "snipr/core/snip_rh.hpp"
#include "snipr/core/strategy.hpp"
#include "snipr/deploy/fleet_engine.hpp"
#include "snipr/deploy/road_contacts.hpp"
#include "snipr/fault/fault_plan.hpp"
#include "snipr/node/sensor_node.hpp"
#include "snipr/sim/distributions.hpp"

namespace snipr::node {
namespace {

using contact::Contact;
using contact::ContactSchedule;
using sim::Duration;
using sim::Rng;
using sim::TimePoint;

/// Delegates every virtual except probe_run_end: the per-event oracle.
class PerEvent final : public Scheduler {
 public:
  explicit PerEvent(std::unique_ptr<Scheduler> inner)
      : inner_{std::move(inner)} {}

  SchedulerDecision on_wakeup(const SensorContext& ctx) override {
    return inner_->on_wakeup(ctx);
  }
  void on_probe_detected(TimePoint when) override {
    inner_->on_probe_detected(when);
  }
  void on_contact_probed(const ProbedContactObservation& obs) override {
    inner_->on_contact_probed(obs);
  }
  void on_epoch_start(std::int64_t epoch_index) override {
    inner_->on_epoch_start(epoch_index);
  }
  std::string name() const override { return inner_->name(); }
  std::string checkpoint() const override { return inner_->checkpoint(); }
  bool restore(std::string_view blob) override {
    return inner_->restore(blob);
  }
  void reset() override { inner_->reset(); }
  std::vector<bool> rush_mask_bits() const override {
    return inner_->rush_mask_bits();
  }

 private:
  std::unique_ptr<Scheduler> inner_;
};

constexpr Duration kEpoch = Duration::hours(1);
constexpr std::size_t kSlots = 6;  // 10-minute slots
constexpr Duration kTon = Duration::milliseconds(20);

struct Case {
  std::vector<bool> mask;
  /// The node's epoch (budget reset, stats snapshot); the mask's is
  /// always kEpoch.
  Duration node_epoch{kEpoch};
  Duration budget{Duration::max()};
  double sensing_rate_bps{50.0};
  double initial_tcontact_s{2.0};
  radio::LinkParams link;
  std::vector<Contact> contacts;
  TimePoint horizon;
  /// A long contact past the horizon: never probed, it gives both
  /// channels a place to draw from after the run.
  Contact sentinel;
  /// Probe misses and spurious detections: both paths must then run per
  /// event, since every probe draws from the fault stream.
  bool faulted{false};
};

/// The cadence SnipRh probes at before its first detection.
Duration initial_cadence(double tcontact_s) {
  const double d = std::clamp(kTon.to_seconds() / tcontact_s, 0.0, 1.0);
  return std::max(Duration::seconds(kTon.to_seconds() / d), kTon);
}

Duration random_span(Rng& rng, std::uint64_t max_us) {
  return Duration::microseconds(
      static_cast<std::int64_t>(rng.uniform_int(max_us)));
}

/// Non-overlapping contacts up to `horizon`, aimed at the lattice
/// t = k·cadence that slot starts anchor (slot lengths are multiples of
/// every cadence used here).
std::vector<Contact> random_contacts(Rng& rng, Duration cadence,
                                     Duration beacon, TimePoint horizon) {
  const auto lattice_ceil = [cadence](TimePoint t) {
    return TimePoint::zero() +
           cadence * ((t.count() + cadence.count() - 1) / cadence.count());
  };
  const Duration slot = kEpoch / static_cast<std::int64_t>(kSlots);
  std::vector<Contact> list;
  TimePoint t = TimePoint::zero();
  while (t < horizon) {
    const double kind = rng.uniform();
    Duration length = Duration::microseconds(1) + random_span(rng, 5'000'000);
    if (rng.bernoulli(0.1)) length = Duration::zero();
    Contact c{t, length};
    if (kind < 0.25) {
      // Arrives exactly on a lattice point.
      c.arrival = lattice_ceil(t + random_span(rng, 200'000'000));
    } else if (kind < 0.45) {
      // Departs exactly one beacon after a lattice point (still a hit)
      // or 1 µs earlier (the beacon would cross the departure).
      const TimePoint p =
          lattice_ceil(t + length + random_span(rng, 200'000'000));
      const TimePoint departure =
          p + beacon - Duration::microseconds(rng.bernoulli(0.5) ? 1 : 0);
      c.arrival = std::max(t, departure - length);
      c.length = departure - c.arrival;
    } else if (kind < 0.6) {
      // Straddles a slot (and every sixth time an epoch) edge.
      const TimePoint edge =
          TimePoint::zero() + slot * (t.count() / slot.count() + 1);
      c.arrival = std::max(t, edge - random_span(rng, 3'000'000));
      c.length = Duration::microseconds(1) + random_span(rng, 6'000'000);
    } else if (kind < 0.7) {
      // Touches the previous contact.
      c.arrival = t;
    } else {
      c.arrival = t + random_span(rng, 300'000'000);
    }
    list.push_back(c);
    t = c.departure();
  }
  return list;
}

ContactSchedule schedule_of(const Case& c) {
  std::vector<Contact> all = c.contacts;
  all.push_back(c.sentinel);
  return ContactSchedule{std::move(all)};
}

struct World {
  sim::Simulator simulator{1};
  radio::Channel channel;
  MobileNode sink;
  std::unique_ptr<Scheduler> scheduler;
  fault::FaultSpec fault_spec;
  fault::NodeFaultInjector injector{&fault_spec, Rng{77}};
  std::unique_ptr<SensorNode> node;
  std::size_t events{0};

  World(const Case& c, bool per_event)
      : channel{schedule_of(c), c.link, Rng{4242}} {
    core::SnipRhConfig rh;
    rh.ton = kTon;
    rh.initial_tcontact_s = c.initial_tcontact_s;
    std::unique_ptr<Scheduler> bare = std::make_unique<core::SnipRh>(
        core::RushHourMask{kEpoch, c.mask}, rh);
    scheduler = per_event ? std::make_unique<PerEvent>(std::move(bare))
                          : std::move(bare);
    SensorNodeConfig config;
    config.ton = kTon;
    config.epoch = c.node_epoch;
    config.budget_limit = c.budget;
    config.sensing_rate_bps = c.sensing_rate_bps;
    node = std::make_unique<SensorNode>(simulator, channel, sink, *scheduler,
                                        config);
    if (c.faulted) {
      fault_spec.radio.probe_miss_prob = 0.2;
      fault_spec.radio.spurious_detect_prob = 0.01;
      node->attach_faults(&injector);
    }
    node->start();
    // Two legs: the fast-forward must stop at each run_until horizon.
    const TimePoint half =
        TimePoint::zero() + Duration::microseconds(c.horizon.count() / 2);
    events += simulator.run_until(half);
    events += simulator.run_until(c.horizon);
  }
};

void expect_same_epoch(const EpochStats& a, const EpochStats& b) {
  EXPECT_EQ(a.epoch_index, b.epoch_index);
  EXPECT_EQ(a.phi, b.phi);
  EXPECT_EQ(a.zeta, b.zeta);
  EXPECT_EQ(a.bytes_uploaded, b.bytes_uploaded);
  EXPECT_EQ(a.contacts_probed, b.contacts_probed);
  EXPECT_EQ(a.wakeups, b.wakeups);
  EXPECT_EQ(a.probing_energy_j, b.probing_energy_j);
  EXPECT_EQ(a.transfer_energy_j, b.transfer_energy_j);
}

void expect_same_world(World& fast, World& slow, const Case& c) {
  const SensorNode& f = *fast.node;
  const SensorNode& s = *slow.node;
  ASSERT_EQ(f.epoch_history().size(), s.epoch_history().size());
  for (std::size_t e = 0; e < f.epoch_history().size(); ++e) {
    expect_same_epoch(f.epoch_history()[e], s.epoch_history()[e]);
  }
  expect_same_epoch(f.current_epoch(), s.current_epoch());

  ASSERT_EQ(f.probed_contacts().size(), s.probed_contacts().size());
  for (std::size_t i = 0; i < f.probed_contacts().size(); ++i) {
    EXPECT_EQ(f.probed_contacts()[i].contact, s.probed_contacts()[i].contact);
    EXPECT_EQ(f.probed_contacts()[i].probe_time,
              s.probed_contacts()[i].probe_time);
    EXPECT_EQ(f.probed_contacts()[i].bytes_uploaded,
              s.probed_contacts()[i].bytes_uploaded);
  }

  const NodeBlock& fb = f.block();
  const NodeBlock& sb = s.block();
  const std::size_t fl = f.lane();
  const std::size_t sl = s.lane();
  EXPECT_EQ(fb.phi_us(fl), sb.phi_us(sl));
  EXPECT_EQ(fb.zeta_us(fl), sb.zeta_us(sl));
  EXPECT_EQ(fb.bytes_uploaded(fl), sb.bytes_uploaded(sl));
  EXPECT_EQ(fb.contacts_probed(fl), sb.contacts_probed(sl));
  EXPECT_EQ(fb.wakeups(fl), sb.wakeups(sl));
  EXPECT_EQ(fb.budget_used_us(fl), sb.budget_used_us(sl));
  EXPECT_EQ(fb.last_wakeup_us(fl), sb.last_wakeup_us(sl));
  EXPECT_EQ(fb.last_probed_arrival_us(fl), sb.last_probed_arrival_us(sl));
  EXPECT_EQ(fb.epochs(fl), sb.epochs(sl));
  EXPECT_EQ(fb.sum_zeta_s(fl), sb.sum_zeta_s(sl));
  EXPECT_EQ(fb.sum_phi_s(fl), sb.sum_phi_s(sl));
  EXPECT_EQ(fb.sum_bytes(fl), sb.sum_bytes(sl));
  EXPECT_EQ(fb.sum_contacts(fl), sb.sum_contacts(sl));
  EXPECT_EQ(fb.probed_sessions(fl), sb.probed_sessions(sl));

  for (std::size_t st = 0; st < energy::kRadioStateCount; ++st) {
    const auto state = static_cast<energy::RadioState>(st);
    EXPECT_EQ(f.probing_meter().time_in(state),
              s.probing_meter().time_in(state))
        << energy::to_string(state);
    EXPECT_EQ(f.transfer_meter().time_in(state),
              s.transfer_meter().time_in(state))
        << energy::to_string(state);
  }
  EXPECT_EQ(f.buffer().uploaded(), s.buffer().uploaded());
  EXPECT_EQ(fast.sink.bytes_received(), slow.sink.bytes_received());
  EXPECT_EQ(fast.sink.contacts_served(), slow.sink.contacts_served());
  EXPECT_EQ(fast.scheduler->checkpoint(), slow.scheduler->checkpoint());
  EXPECT_EQ(fast.injector.counters().detections_lost,
            slow.injector.counters().detections_lost);
  EXPECT_EQ(fast.injector.counters().spurious_detections,
            slow.injector.counters().spurious_detections);

  if (c.link.frame_loss > 0.0) {
    // Same RNG position: the next draws (one per in-range frame) agree.
    const TimePoint inside = c.sentinel.arrival + Duration::seconds(1);
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(fast.channel.try_deliver(inside, c.link.beacon_airtime),
                slow.channel.try_deliver(inside, c.link.beacon_airtime))
          << "draw " << i;
    }
  }
}

/// Every combination of the dimensions above, each with its own random
/// contact schedule (and a coin-flip fault plan).
std::vector<Case> all_cases(Rng& rng) {
  std::vector<bool> random_mask(kSlots);
  for (std::size_t s = 0; s < kSlots; ++s) random_mask[s] = rng.bernoulli(0.5);
  const std::vector<std::vector<bool>> masks{
      std::vector<bool>(kSlots, false),         // empty
      std::vector<bool>(kSlots, true),          // full
      {true, false, false, true, false, true},  // wraps the epoch
      random_mask,
  };
  // The mask's own epoch, one that resets the budget mid mask-epoch, and
  // one whose boundaries fall off every lattice.
  const Duration node_epochs[] = {
      kEpoch,
      kEpoch / 2,
      Duration::seconds(1789) + Duration::microseconds(7),
  };
  const Duration budgets[] = {
      Duration::max(),
      kTon * 37 + Duration::microseconds(7),  // runs out mid-slot
      kTon * 400,
  };
  const double rates[] = {0.004, 50.0};  // below / above the threshold
  const double losses[] = {0.0, 0.3};
  const double tcontacts[] = {2.0, 0.5};
  // A reply that cannot fit Ton makes every probe empty.
  const Duration replies[] = {Duration::milliseconds(1),
                              Duration::milliseconds(25)};

  std::vector<Case> cases;
  for (const std::vector<bool>& mask : masks) {
    for (const Duration node_epoch : node_epochs) {
      for (const Duration budget : budgets) {
        for (const double rate : rates) {
          for (const double loss : losses) {
            for (const double tcontact : tcontacts) {
              for (const Duration reply : replies) {
                Case c;
                c.mask = mask;
                c.node_epoch = node_epoch;
                c.budget = budget;
                c.sensing_rate_bps = rate;
                c.initial_tcontact_s = tcontact;
                c.link.frame_loss = loss;
                c.link.reply_airtime = reply;
                c.faulted = rng.bernoulli(0.25);
                cases.push_back(c);
              }
            }
          }
        }
      }
    }
  }
  for (Case& c : cases) {
    // 3.5 epochs: the horizon falls mid-epoch, on a lattice point of
    // every cadence used.
    c.horizon = TimePoint::zero() + kEpoch * 3 + kEpoch / 2;
    c.contacts = random_contacts(rng, initial_cadence(c.initial_tcontact_s),
                                 c.link.beacon_airtime, c.horizon);
    const TimePoint after = std::max(c.horizon, c.contacts.back().departure());
    c.sentinel = {after + Duration::seconds(100), Duration::seconds(1000)};
  }
  return cases;
}

TEST(ProbeLattice, FastForwardMatchesThePerEventOracle) {
  Rng rng{20260517};
  const std::vector<Case> cases = all_cases(rng);
  std::size_t fast_events = 0;
  std::size_t slow_events = 0;
  std::uint64_t probed = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    SCOPED_TRACE(::testing::Message()
                 << "case " << i << " node epoch " << c.node_epoch.count()
                 << " budget " << c.budget.count() << " rate "
                 << c.sensing_rate_bps << " loss " << c.link.frame_loss
                 << " tcontact " << c.initial_tcontact_s << " reply "
                 << c.link.reply_airtime.count() << " faulted " << c.faulted);
    World fast{c, /*per_event=*/false};
    World slow{c, /*per_event=*/true};
    expect_same_world(fast, slow, c);
    fast_events += fast.events;
    slow_events += slow.events;
    probed += slow.node->block().probed_sessions(slow.node->lane());
  }
  // The schedules are not vacuous, and the fast path actually ran: far
  // fewer events for the same outcome.
  EXPECT_GT(probed, cases.size());
  EXPECT_LT(fast_events * 2, slow_events);
}

/// The road schedules FleetEngine::run(scenario, spec, config) builds for
/// a through-flow road fleet, rebuilt through the public builders.
std::vector<ContactSchedule> road_schedules(const deploy::FleetSpec& spec,
                                            const deploy::FleetConfig& config) {
  const deploy::RoadWorkload& road = *spec.road_workload();
  Rng root{config.deployment.seed};
  for (std::size_t i = 0; i < spec.nodes; ++i) (void)root.fork();
  const Duration horizon = spec.flow_profile.epoch() *
                           static_cast<std::int64_t>(config.deployment.epochs);
  deploy::VehicleFlow flow;
  flow.profile = spec.flow_profile;
  flow.jitter = road.jitter;
  if (road.speed_stddev_mps > 0.0) {
    flow.speed_mps = std::make_unique<sim::TruncatedNormalDistribution>(
        road.speed_mean_mps, road.speed_stddev_mps, road.speed_min_mps);
  } else {
    flow.speed_mps =
        std::make_unique<sim::FixedDistribution>(road.speed_mean_mps);
  }
  const std::vector<deploy::VehicleEntry> vehicles =
      deploy::materialize_vehicles(flow, horizon, root);
  std::vector<double> positions;
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    positions.push_back(road.first_position_m +
                        road.spacing_m * static_cast<double>(i));
  }
  return deploy::build_road_schedules(positions, road.range_m, vehicles);
}

TEST(ProbeLattice, HighwayFleetJsonIsByteIdenticalPerEvent) {
  const core::CatalogEntry& entry =
      core::ScenarioCatalog::instance().at("fleet-highway-1k");
  ASSERT_TRUE(entry.is_fleet());
  const deploy::FleetSpec& spec = *entry.fleet;
  ASSERT_EQ(spec.strategy, core::Strategy::kSnipRh);
  ASSERT_NE(spec.road_workload(), nullptr);
  ASSERT_EQ(spec.road_workload()->through_fraction, 1.0);
  ASSERT_FALSE(spec.routing.has_value());
  ASSERT_EQ(spec.faults, nullptr);

  deploy::FleetConfig config;
  config.deployment = deploy::make_fleet_deployment_config(
      entry.scenario, spec, entry.phi_max_s, /*epochs=*/3, /*seed=*/1);
  const deploy::FleetEngine engine{};
  const std::string fast =
      deploy::FleetEngine::to_json(engine.run(entry.scenario, spec, config));

  const double phi_max_s = config.deployment.node.budget_limit.to_seconds();
  const deploy::SchedulerFactory per_event = [&](std::size_t) {
    return std::make_unique<PerEvent>(
        core::make_scheduler(entry.scenario, spec.strategy, spec.zeta_target_s,
                             phi_max_s, spec.exploration));
  };
  const std::string slow = deploy::FleetEngine::to_json(
      engine.run(road_schedules(spec, config), per_event, config));
  EXPECT_EQ(fast, slow);
}

}  // namespace
}  // namespace snipr::node
