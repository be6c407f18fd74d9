#include "snipr/node/sensor_node.hpp"

#include <gtest/gtest.h>

namespace snipr::node {
namespace {

using contact::Contact;
using contact::ContactSchedule;
using sim::Duration;
using sim::TimePoint;

TimePoint at_s(double s) { return TimePoint::zero() + Duration::seconds(s); }

/// Probes on every wakeup at a fixed cycle; records observations.
class AlwaysProbe final : public Scheduler {
 public:
  explicit AlwaysProbe(Duration cycle) : cycle_{cycle} {}
  SchedulerDecision on_wakeup(const SensorContext&) override {
    return {.probe = true, .next_wakeup = cycle_};
  }
  void on_contact_probed(const ProbedContactObservation& obs) override {
    observations.push_back(obs);
  }
  std::string name() const override { return "always"; }
  std::vector<ProbedContactObservation> observations;

 private:
  Duration cycle_;
};

/// Never probes; re-checks at a fixed period.
class NeverProbe final : public Scheduler {
 public:
  SchedulerDecision on_wakeup(const SensorContext&) override {
    return {.probe = false, .next_wakeup = Duration::seconds(60)};
  }
  std::string name() const override { return "never"; }
};

struct World {
  sim::Simulator simulator{1};
  radio::Channel channel;
  MobileNode sink;

  World(std::vector<Contact> contacts, radio::LinkParams link = {})
      : channel{ContactSchedule{std::move(contacts)}, link,
                sim::Rng{99}} {}
};

SensorNodeConfig small_config() {
  SensorNodeConfig cfg;
  cfg.ton = Duration::milliseconds(20);
  cfg.epoch = Duration::hours(1);
  cfg.budget_limit = Duration::max();
  cfg.sensing_rate_bps = 10.0;
  return cfg;
}

TEST(SensorNode, ProbesContactAndAccountsCapacity) {
  World w{{{at_s(100), Duration::seconds(2)}}};
  AlwaysProbe sched{Duration::seconds(1)};
  SensorNode node{w.simulator, w.channel, w.sink, sched, small_config()};
  node.start();
  w.simulator.run_until(at_s(200));

  ASSERT_EQ(node.probed_contacts().size(), 1U);
  const ProbedContactRecord& rec = node.probed_contacts().front();
  // Wakeup at t=100 exactly; awareness 2 ms later.
  EXPECT_EQ(rec.probe_time, at_s(100) + Duration::milliseconds(2));
  // ζ = departure − awareness = 2 s − 2 ms.
  EXPECT_EQ(node.current_epoch().zeta,
            Duration::seconds(2) - Duration::milliseconds(2));
  EXPECT_EQ(node.current_epoch().contacts_probed, 1U);
}

TEST(SensorNode, PhiCountsFullTonForIdleWakeups) {
  World w{{}};  // no contacts at all
  AlwaysProbe sched{Duration::seconds(10)};
  SensorNode node{w.simulator, w.channel, w.sink, sched, small_config()};
  node.start();
  w.simulator.run_until(at_s(100));
  // Wakeups at 0,10,...,90 and 100 = 11; each costs the full 20 ms.
  EXPECT_EQ(node.current_epoch().wakeups, 11U);
  EXPECT_EQ(node.current_epoch().phi, Duration::milliseconds(20) * 11);
  EXPECT_EQ(node.budget_used(), node.current_epoch().phi);
}

TEST(SensorNode, ProbedWakeupChargesOnlyExchange) {
  World w{{{at_s(0), Duration::seconds(2)}}};
  AlwaysProbe sched{Duration::seconds(100)};
  SensorNode node{w.simulator, w.channel, w.sink, sched, small_config()};
  node.start();
  w.simulator.run_until(at_s(50));
  // One probing wakeup that succeeded: Φ = 2 ms, not 20 ms.
  EXPECT_EQ(node.current_epoch().phi, Duration::milliseconds(2));
}

TEST(SensorNode, UploadsBacklogDuringContact) {
  // 10 B/s sensing for 100 s = 1000 B backlog; a 2 s contact at 12.5 kB/s
  // can carry ~25 kB, so the transfer drains the buffer.
  World w{{{at_s(100), Duration::seconds(2)}}};
  AlwaysProbe sched{Duration::seconds(1)};
  SensorNode node{w.simulator, w.channel, w.sink, sched, small_config()};
  node.start();
  w.simulator.run_until(at_s(200));
  EXPECT_NEAR(node.current_epoch().bytes_uploaded, 1000.0, 15.0);
  EXPECT_NEAR(w.sink.bytes_received(), node.current_epoch().bytes_uploaded,
              1e-9);
  EXPECT_EQ(w.sink.contacts_served(), 1U);
  // The buffer drained before departure: truncated observation.
  ASSERT_EQ(sched.observations.size(), 1U);
  EXPECT_FALSE(sched.observations[0].saw_departure);
}

TEST(SensorNode, TransferLimitedByDeparture) {
  // Huge backlog: sensing 1 MB/s for 100 s. The 2 s contact moves only
  // ~2 s x 12.5 kB/s; the mobile leaves first.
  World w{{{at_s(100), Duration::seconds(2)}}};
  AlwaysProbe sched{Duration::seconds(1)};
  SensorNodeConfig cfg = small_config();
  cfg.sensing_rate_bps = 1e6;
  SensorNode node{w.simulator, w.channel, w.sink, sched, cfg};
  node.start();
  w.simulator.run_until(at_s(200));
  ASSERT_EQ(sched.observations.size(), 1U);
  EXPECT_TRUE(sched.observations[0].saw_departure);
  const double expected =
      (Duration::seconds(2) - Duration::milliseconds(2)).to_seconds() *
      12500.0;
  EXPECT_NEAR(node.current_epoch().bytes_uploaded, expected, 1.0);
}

TEST(SensorNode, ObservationCarriesCycleHint) {
  // Cycle 7 s puts a wakeup at t=98, inside the contact [98, 100).
  World w{{{at_s(98), Duration::seconds(2)}}};
  AlwaysProbe sched{Duration::seconds(7)};
  SensorNode node{w.simulator, w.channel, w.sink, sched, small_config()};
  node.start();
  w.simulator.run_until(at_s(200));
  ASSERT_EQ(sched.observations.size(), 1U);
  EXPECT_EQ(sched.observations[0].cycle_at_probe, Duration::seconds(7));
}

TEST(SensorNode, EpochBoundarySnapshotsAndResets) {
  World w{{{at_s(100), Duration::seconds(2)}}};
  AlwaysProbe sched{Duration::seconds(10)};
  SensorNode node{w.simulator, w.channel, w.sink, sched, small_config()};
  node.start();
  w.simulator.run_until(at_s(3600 * 2));  // two 1 h epochs
  ASSERT_EQ(node.epoch_history().size(), 2U);
  const EpochStats& first = node.epoch_history()[0];
  EXPECT_EQ(first.epoch_index, 0);
  EXPECT_EQ(first.contacts_probed, 1U);
  EXPECT_GT(first.phi, Duration::zero());
  EXPECT_GT(first.probing_energy_j, 0.0);
  const EpochStats& second = node.epoch_history()[1];
  EXPECT_EQ(second.epoch_index, 1);
  EXPECT_EQ(second.contacts_probed, 0U);
  // Budget usage reset at the boundary and re-accumulated in epoch 2.
  EXPECT_LT(node.budget_used(), first.phi + Duration::seconds(1));
}

TEST(SensorNode, BudgetGateObservedThroughContext) {
  // A scheduler that stops probing when the context shows an exhausted
  // budget; with a 100 ms budget only 5 wakeups (20 ms each) fit.
  class BudgetAware final : public Scheduler {
   public:
    SchedulerDecision on_wakeup(const SensorContext& ctx) override {
      const bool afford =
          ctx.budget_used + Duration::milliseconds(20) <= ctx.budget_limit;
      return {.probe = afford, .next_wakeup = Duration::seconds(1)};
    }
    std::string name() const override { return "budget-aware"; }
  };
  World w{{}};
  BudgetAware sched;
  SensorNodeConfig cfg = small_config();
  cfg.budget_limit = Duration::milliseconds(100);
  SensorNode node{w.simulator, w.channel, w.sink, sched, cfg};
  node.start();
  w.simulator.run_until(at_s(1000));
  EXPECT_EQ(node.current_epoch().wakeups, 5U);
  EXPECT_EQ(node.budget_used(), Duration::milliseconds(100));
}

TEST(SensorNode, NeverProbeSpendsNothing) {
  World w{{{at_s(100), Duration::seconds(2)}}};
  NeverProbe sched;
  SensorNode node{w.simulator, w.channel, w.sink, sched, small_config()};
  node.start();
  w.simulator.run_until(at_s(1000));
  EXPECT_EQ(node.current_epoch().phi, Duration::zero());
  EXPECT_EQ(node.current_epoch().wakeups, 0U);
  EXPECT_TRUE(node.probed_contacts().empty());
}

TEST(SensorNode, LostBeaconsMeanNoProbe) {
  radio::LinkParams lossy;
  lossy.frame_loss = 1.0;
  World w{{{at_s(100), Duration::seconds(2)}}, lossy};
  AlwaysProbe sched{Duration::seconds(1)};
  SensorNode node{w.simulator, w.channel, w.sink, sched, small_config()};
  node.start();
  w.simulator.run_until(at_s(200));
  EXPECT_TRUE(node.probed_contacts().empty());
  // Every wakeup paid the full Ton.
  EXPECT_EQ(node.current_epoch().phi,
            Duration::milliseconds(20) *
                static_cast<std::int64_t>(node.current_epoch().wakeups));
}

TEST(SensorNode, StartTwiceThrows) {
  World w{{}};
  NeverProbe sched;
  SensorNode node{w.simulator, w.channel, w.sink, sched, small_config()};
  node.start();
  EXPECT_THROW(node.start(), std::logic_error);
}

TEST(SensorNode, RejectsBadConfig) {
  World w{{}};
  NeverProbe sched;
  SensorNodeConfig bad = small_config();
  bad.ton = Duration::zero();
  EXPECT_THROW(
      SensorNode(w.simulator, w.channel, w.sink, sched, bad),
      std::invalid_argument);
  SensorNodeConfig bad2 = small_config();
  bad2.epoch = Duration::zero();
  EXPECT_THROW(
      SensorNode(w.simulator, w.channel, w.sink, sched, bad2),
      std::invalid_argument);
}

TEST(SensorNode, NonPositiveNextWakeupIsSchedulerBug) {
  class Broken final : public Scheduler {
   public:
    SchedulerDecision on_wakeup(const SensorContext&) override {
      return {.probe = false, .next_wakeup = Duration::zero()};
    }
    std::string name() const override { return "broken"; }
  };
  World w{{}};
  Broken sched;
  SensorNode node{w.simulator, w.channel, w.sink, sched, small_config()};
  node.start();
  EXPECT_THROW(w.simulator.run_until(at_s(10)), std::logic_error);
}

TEST(SensorNode, DetectionHookFiresAtDetectionNotTransferCompletion) {
  // A contact detected just before an epoch boundary whose transfer
  // drains past it: the detection hook must fire pre-boundary (once) and
  // the completion observation post-boundary (once). Learners listening
  // on on_probe_detected then attribute the contact to the epoch whose
  // probing effort found it — completion-time feeding was the censoring
  // bug that pushed every boundary-straddling contact into the wrong
  // epoch's statistics.
  class DetectionSpy final : public Scheduler {
   public:
    explicit DetectionSpy(sim::Simulator& sim) : sim_{sim} {}
    SchedulerDecision on_wakeup(const SensorContext&) override {
      return {.probe = true, .next_wakeup = Duration::seconds(1)};
    }
    void on_probe_detected(TimePoint when) override {
      detections.push_back(when);
    }
    void on_contact_probed(const ProbedContactObservation& obs) override {
      completion_times.push_back(sim_.now());
      observations.push_back(obs);
    }
    std::string name() const override { return "detection-spy"; }
    std::vector<TimePoint> detections;
    std::vector<TimePoint> completion_times;
    std::vector<ProbedContactObservation> observations;

   private:
    sim::Simulator& sim_;
  };

  // 10 B/s sensing for 3599 s ≈ 36 kB backlog; at 12.5 kB/s the transfer
  // runs ~2.9 s — across the 1 h epoch boundary. The contact itself (10 s)
  // outlives the drain, so departure is never observed.
  World w{{{at_s(3599), Duration::seconds(10)}}};
  DetectionSpy sched{w.simulator};
  SensorNode node{w.simulator, w.channel, w.sink, sched, small_config()};
  node.start();
  w.simulator.run_until(at_s(3700));

  const TimePoint boundary = at_s(3600);
  ASSERT_EQ(sched.detections.size(), 1U);
  ASSERT_EQ(sched.observations.size(), 1U);  // exactly once per contact
  EXPECT_GT(sched.detections[0], at_s(3599));
  EXPECT_LT(sched.detections[0], boundary);
  EXPECT_GT(sched.completion_times[0], boundary);
  // The epoch whose effort paid for the probe owns the contact.
  ASSERT_GE(node.epoch_history().size(), 1U);
  EXPECT_EQ(node.epoch_history()[0].contacts_probed, 1U);
}

TEST(SensorNode, ConsecutiveContactsAllProbedAtHighDuty) {
  std::vector<Contact> contacts;
  for (int i = 0; i < 20; ++i) {
    contacts.push_back({at_s(10.0 + 5.0 * i), Duration::seconds(2)});
  }
  World w{contacts};
  AlwaysProbe sched{Duration::seconds(1)};
  SensorNode node{w.simulator, w.channel, w.sink, sched, small_config()};
  node.start();
  w.simulator.run_until(at_s(200));
  EXPECT_EQ(node.probed_contacts().size(), 20U);
  EXPECT_EQ(w.sink.contacts_served(), 20U);
}

// --- Probe-lattice fast-forward -----------------------------------------

/// AlwaysProbe that also vouches for the whole lattice (no run end of
/// its own), so the node may charge empty probes in closed form.
class LatticeProbe final : public Scheduler {
 public:
  explicit LatticeProbe(Duration cycle) : cycle_{cycle} {}
  SchedulerDecision on_wakeup(const SensorContext&) override {
    return {.probe = true, .next_wakeup = cycle_};
  }
  TimePoint probe_run_end(const SensorContext&, Duration) const override {
    return TimePoint::max();
  }
  std::string name() const override { return "lattice"; }

 private:
  Duration cycle_;
};

TEST(SensorNode, LatticeRunChargesEmptyProbesInOneEvent) {
  World fast_world{{}};
  LatticeProbe lattice{Duration::seconds(2)};
  SensorNode fast{fast_world.simulator, fast_world.channel, fast_world.sink,
                  lattice, small_config()};
  fast.start();
  // Wakeups at 0, 2, …, 1000 all find nothing: one event charges them.
  EXPECT_EQ(fast_world.simulator.run_until(at_s(1000.5)), 1U);

  World slow_world{{}};
  AlwaysProbe always{Duration::seconds(2)};
  SensorNode slow{slow_world.simulator, slow_world.channel, slow_world.sink,
                  always, small_config()};
  slow.start();
  EXPECT_EQ(slow_world.simulator.run_until(at_s(1000.5)), 501U);

  EXPECT_EQ(fast.current_epoch().wakeups, 501U);
  EXPECT_EQ(fast.current_epoch().phi, slow.current_epoch().phi);
  EXPECT_EQ(fast.budget_used(), slow.budget_used());
  for (const auto state : {energy::RadioState::kTx, energy::RadioState::kRx,
                           energy::RadioState::kListen}) {
    EXPECT_EQ(fast.probing_meter().time_in(state),
              slow.probing_meter().time_in(state));
  }
  EXPECT_EQ(fast.probing_meter().time_in(energy::RadioState::kTx),
            Duration::milliseconds(501));
}

TEST(SensorNode, LatticeRunBelowTonKeepsThePerEventCadence) {
  // A cycle shorter than Ton is stretched to Ton per probe, which is off
  // the scheduler's lattice: the node must not fast-forward it.
  World fast_world{{}};
  LatticeProbe lattice{Duration::milliseconds(10)};
  SensorNode fast{fast_world.simulator, fast_world.channel, fast_world.sink,
                  lattice, small_config()};
  fast.start();
  fast_world.simulator.run_until(at_s(10));
  EXPECT_EQ(fast.current_epoch().wakeups, 501U);  // every 20 ms
}

TEST(SensorNode, LatticeRunStopsAtTheEpochBoundary) {
  World w{{}};
  LatticeProbe lattice{Duration::seconds(2)};
  SensorNode node{w.simulator, w.channel, w.sink, lattice, small_config()};
  node.start();
  // The wakeup at exactly 3600 s stays an event, after the boundary that
  // was scheduled before it: 0 … 3598 s count in epoch 0, 3600 s in 1.
  EXPECT_EQ(w.simulator.run_until(at_s(3601)), 3U);
  ASSERT_EQ(node.epoch_history().size(), 1U);
  EXPECT_EQ(node.epoch_history()[0].wakeups, 1800U);
  EXPECT_EQ(node.current_epoch().wakeups, 1U);
}

TEST(SensorNode, LatticeRunWithAReplyLongerThanTonIsAllEmpty) {
  // The reply cannot fit the listen window, so even wakeups inside the
  // contact find nothing — and are charged without events.
  radio::LinkParams link;
  link.reply_airtime = Duration::milliseconds(25);
  World w{{{at_s(100), Duration::seconds(800)}}, link};
  LatticeProbe lattice{Duration::seconds(2)};
  SensorNode node{w.simulator, w.channel, w.sink, lattice, small_config()};
  node.start();
  EXPECT_EQ(w.simulator.run_until(at_s(1000.5)), 1U);
  EXPECT_EQ(node.current_epoch().wakeups, 501U);
  EXPECT_EQ(node.current_epoch().contacts_probed, 0U);
}

TEST(SensorNode, LatticeRunHandsTheHitToThePerEventPath) {
  World w{{{at_s(101), Duration::seconds(2)}}};
  LatticeProbe lattice{Duration::seconds(2)};
  SensorNode node{w.simulator, w.channel, w.sink, lattice, small_config()};
  node.start();
  w.simulator.run_until(at_s(200));
  ASSERT_EQ(node.probed_contacts().size(), 1U);
  // The first lattice point inside the contact, as per event.
  EXPECT_EQ(node.probed_contacts().front().probe_time,
            at_s(102) + Duration::milliseconds(2));
}

}  // namespace
}  // namespace snipr::node
