/// Steady-state zero-allocation guarantee for the event loop.
///
/// This binary replaces global operator new with the shared counting
/// hook. After a warm-up (which is allowed to allocate: heap/slot/
/// free-list vectors grow to their steady-state capacity), a
/// forward-running mix of self-rescheduling timers and cancel/retime
/// churn through Simulator::run_until must perform exactly zero
/// allocations — the guarantee the InlineCallback + generation-slot
/// EventQueue exists to provide, and the one a stray std::function or
/// node-based container on the hot path would break. The same holds for
/// a SNIP-RH node's probe-lattice fast-forward, which charges its empty
/// wakeups in closed form between per-event detections.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "snipr/core/snip_rh.hpp"
#include "snipr/node/sensor_node.hpp"
#include "snipr/sim/simulator.hpp"
#include "support/counting_alloc_hook.hpp"

namespace snipr::sim {
namespace {

/// Self-rescheduling timer with a deliberately fat closure (the size
/// class of SensorNode::begin_transfer's completion callback).
struct FatTick {
  Simulator* simulator;
  Duration period;
  std::uint64_t* fired;
  std::uint64_t payload[3];

  void operator()() const {
    ++*fired;
    simulator->schedule_after(period, *this);
  }
};

/// Cancel-heavy churn: every fire cancels a pending placeholder and
/// schedules a fresh one, exercising slot retirement and free-list
/// reuse on every event.
struct Retimer {
  Simulator* simulator;
  EventId* pending;
  std::uint64_t* fired;

  void operator()() const {
    ++*fired;
    if (*pending != kInvalidEventId) {
      (void)simulator->cancel(*pending);
    }
    *pending = simulator->schedule_after(Duration::hours(1), [] {});
    simulator->schedule_after(Duration::milliseconds(7), *this);
  }
};

TEST(ZeroAllocTest, EventLoopSteadyStateAllocatesNothing) {
  Simulator simulator{1};
  std::uint64_t fired = 0;
  for (std::int64_t i = 0; i < 16; ++i) {
    FatTick tick{};
    tick.simulator = &simulator;
    tick.period = Duration::microseconds(911 + 17 * i);
    tick.fired = &fired;
    tick.payload[0] = static_cast<std::uint64_t>(i);
    simulator.schedule_after(tick.period, tick);
  }
  EventId pending = kInvalidEventId;
  simulator.schedule_after(Duration::milliseconds(1),
                           Retimer{&simulator, &pending, &fired});

  // Warm-up: vectors (heap, slots, free list) reach steady capacity.
  simulator.run_until(simulator.now() + Duration::seconds(2));
  const std::uint64_t fired_before = fired;

  const std::uint64_t allocs_before =
      testing::alloc_calls.load(std::memory_order_relaxed);
  simulator.run_until(simulator.now() + Duration::seconds(10));
  const std::uint64_t allocs_after =
      testing::alloc_calls.load(std::memory_order_relaxed);

  EXPECT_GT(fired - fired_before, 100000U) << "hot loop barely ran";
  EXPECT_EQ(allocs_after, allocs_before)
      << "the steady-state event loop must not allocate";
}

TEST(ZeroAllocTest, ScheduleCancelChurnAllocatesNothingAfterWarmup) {
  Simulator simulator{7};
  // Pure schedule/cancel churn (no timer mix): the compaction path runs
  // inside the measured region and must stay allocation-free too.
  std::uint64_t fired = 0;
  EventId pending = kInvalidEventId;
  simulator.schedule_after(Duration::milliseconds(1),
                           Retimer{&simulator, &pending, &fired});
  simulator.run_until(simulator.now() + Duration::seconds(5));

  const std::uint64_t allocs_before =
      testing::alloc_calls.load(std::memory_order_relaxed);
  simulator.run_until(simulator.now() + Duration::seconds(60));
  EXPECT_EQ(testing::alloc_calls.load(std::memory_order_relaxed),
            allocs_before);
  EXPECT_GT(fired, 1000U);
}

TEST(ZeroAllocTest, ProbeLatticeFastForwardAllocatesNothing) {
  // A 2 s contact every 97 s under an always-rush mask: most wakeups are
  // skipped in closed form, each detection and transfer runs per event.
  std::vector<contact::Contact> contacts;
  for (std::int64_t i = 0; i < 400; ++i) {
    const auto at = TimePoint::zero() + Duration::seconds(97 * i + 5);
    contacts.push_back({at, Duration::seconds(2)});
  }
  Simulator simulator{1};
  radio::Channel channel{contact::ContactSchedule{std::move(contacts)},
                         radio::LinkParams{}, Rng{3}};
  node::MobileNode sink;
  const std::vector<bool> all_rush(6, true);
  core::SnipRh scheduler{core::RushHourMask{Duration::hours(1), all_rush}, {}};
  node::SensorNodeConfig config;
  config.epoch = Duration::hours(1);
  config.sensing_rate_bps = 5000.0;
  config.record_epoch_history = false;
  config.record_probed_contacts = false;
  node::SensorNode sensor{simulator, channel, sink, scheduler, config};
  sensor.start();
  simulator.run_until(TimePoint::zero() + Duration::hours(2));  // warm-up

  const std::uint64_t allocs_before =
      testing::alloc_calls.load(std::memory_order_relaxed);
  const std::size_t events = simulator.run_until(
      TimePoint::zero() + Duration::hours(3) - Duration::seconds(1));
  EXPECT_EQ(testing::alloc_calls.load(std::memory_order_relaxed),
            allocs_before)
      << "the fast-forward and detection path must not allocate";
  EXPECT_GT(sensor.current_epoch().contacts_probed, 20U);
  EXPECT_GT(sensor.current_epoch().wakeups, 4 * events)
      << "most wakeups should have been charged without events";
}

}  // namespace
}  // namespace snipr::sim
