#include "snipr/radio/channel.hpp"

#include <gtest/gtest.h>

namespace snipr::radio {
namespace {

using contact::Contact;
using contact::ContactSchedule;
using sim::Duration;
using sim::TimePoint;

TimePoint at_s(double s) { return TimePoint::zero() + Duration::seconds(s); }

ContactSchedule one_contact() {
  return ContactSchedule{
      {{at_s(100), Duration::seconds(2)}}};
}

TEST(Channel, DeliversInsideContact) {
  Channel ch{one_contact(), LinkParams{}, sim::Rng{1}};
  EXPECT_TRUE(ch.try_deliver(at_s(100), Duration::milliseconds(1)));
  EXPECT_TRUE(ch.try_deliver(at_s(101.5), Duration::milliseconds(1)));
}

TEST(Channel, FailsOutsideContact) {
  Channel ch{one_contact(), LinkParams{}, sim::Rng{1}};
  EXPECT_FALSE(ch.try_deliver(at_s(99), Duration::milliseconds(1)));
  EXPECT_FALSE(ch.try_deliver(at_s(102.5), Duration::milliseconds(1)));
}

TEST(Channel, FrameCrossingDepartureIsLost) {
  Channel ch{one_contact(), LinkParams{}, sim::Rng{1}};
  // Transmission starts in range but the mobile leaves mid-frame.
  EXPECT_FALSE(ch.try_deliver(at_s(101.9995), Duration::milliseconds(1)));
  EXPECT_TRUE(ch.try_deliver(at_s(101.999), Duration::milliseconds(1)));
}

TEST(Channel, CertainLossDropsEverything) {
  LinkParams link;
  link.frame_loss = 1.0;
  Channel ch{one_contact(), link, sim::Rng{1}};
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(ch.try_deliver(at_s(100.5), Duration::milliseconds(1)));
  }
}

TEST(Channel, PartialLossDropsSomeFrames) {
  LinkParams link;
  link.frame_loss = 0.5;
  Channel ch{one_contact(), link, sim::Rng{7}};
  int delivered = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    delivered += ch.try_deliver(at_s(100.5), Duration::milliseconds(1)) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(delivered) / n, 0.5, 0.05);
}

TEST(Channel, ZeroAirtimeProbesTheClosedContactInterval) {
  // A zero-airtime delivery is a pure presence query: "is the receiver
  // in range at this instant?" The answer is yes over the CLOSED
  // interval [arrival, departure] — a frame *starting* exactly at the
  // departure instant with no airtime still sees the vehicle, while the
  // half-open covers() test would already say no.
  Channel ch{one_contact(), LinkParams{}, sim::Rng{1}};
  EXPECT_TRUE(ch.try_deliver(at_s(100), Duration::zero()));    // arrival
  EXPECT_TRUE(ch.try_deliver(at_s(101), Duration::zero()));    // middle
  EXPECT_TRUE(ch.try_deliver(at_s(102), Duration::zero()));    // departure
  EXPECT_FALSE(ch.try_deliver(at_s(99.999), Duration::zero()));
  EXPECT_FALSE(ch.try_deliver(at_s(102.001), Duration::zero()));
}

TEST(Channel, ZeroAirtimeNeverConsumesTheLossStream) {
  // Presence queries must not advance the frame-loss RNG: a zero-length
  // frame has no bits to lose, and burning a draw would make delivery
  // outcomes depend on how often the caller *looked*.
  LinkParams lossy;
  lossy.frame_loss = 1.0;  // every real frame dies...
  Channel ch{one_contact(), lossy, sim::Rng{1}};
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(ch.try_deliver(at_s(101), Duration::zero()));
  }
  // ...and the stream is untouched: a channel that made 20 zero-airtime
  // queries draws the same sequence as a fresh one.
  LinkParams half;
  half.frame_loss = 0.5;
  Channel queried{one_contact(), half, sim::Rng{9}};
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(queried.try_deliver(at_s(100.5), Duration::zero()));
  }
  Channel fresh{one_contact(), half, sim::Rng{9}};
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(queried.try_deliver(at_s(100.5), Duration::milliseconds(1)),
              fresh.try_deliver(at_s(100.5), Duration::milliseconds(1)))
        << "draw " << i;
  }
}

TEST(Channel, FrameEndingExactlyAtDepartureIsDelivered) {
  // A positive-airtime frame needs the receiver for the whole airtime;
  // one that ends exactly at the departure instant just makes it.
  Channel ch{one_contact(), LinkParams{}, sim::Rng{1}};
  EXPECT_TRUE(ch.try_deliver(at_s(101.999), Duration::milliseconds(1)));
  // Starting exactly at departure with positive airtime cannot.
  EXPECT_FALSE(ch.try_deliver(at_s(102), Duration::milliseconds(1)));
}

TEST(Channel, ZeroLengthContactIsVisibleOnlyToZeroAirtime) {
  // A zero-length contact (arrival == departure) occupies one instant.
  // No positive-airtime frame fits inside it, but a presence query at
  // that instant must still see it.
  ContactSchedule schedule{{{at_s(50), Duration::zero()}}};
  Channel ch{schedule, LinkParams{}, sim::Rng{1}};
  EXPECT_TRUE(ch.try_deliver(at_s(50), Duration::zero()));
  EXPECT_FALSE(ch.try_deliver(at_s(50), Duration::milliseconds(1)));
  EXPECT_FALSE(ch.try_deliver(at_s(49.999), Duration::zero()));
  EXPECT_FALSE(ch.try_deliver(at_s(50.001), Duration::zero()));
}

TEST(Channel, ZeroAirtimeBetweenAdjacentContactsMatchesEither) {
  // Back-to-back contacts sharing an instant: contact 0 departs exactly
  // when contact 1 arrives. A presence query at the shared instant is in
  // range either way, and the earlier contact's departure must be found
  // even though the cursor has moved past it.
  ContactSchedule schedule{{{at_s(10), Duration::seconds(2)},
                            {at_s(12), Duration::seconds(2)},
                            {at_s(20), Duration::seconds(1)}}};
  Channel ch{schedule, LinkParams{}, sim::Rng{1}};
  EXPECT_TRUE(ch.try_deliver(at_s(12), Duration::zero()));
  EXPECT_TRUE(ch.try_deliver(at_s(14), Duration::zero()));  // 1 departs
  EXPECT_FALSE(ch.try_deliver(at_s(15), Duration::zero()));
  EXPECT_TRUE(ch.try_deliver(at_s(21), Duration::zero()));  // 2 departs
  EXPECT_FALSE(ch.try_deliver(at_s(22), Duration::zero()));
}

TEST(Channel, ActiveContactLookup) {
  Channel ch{one_contact(), LinkParams{}, sim::Rng{1}};
  EXPECT_TRUE(ch.active_contact(at_s(100.1)).has_value());
  EXPECT_FALSE(ch.active_contact(at_s(99.0)).has_value());
  EXPECT_EQ(ch.active_contact(at_s(100.1))->arrival, at_s(100));
}

TEST(Channel, DefaultLinkParameters) {
  const Channel ch{one_contact(), LinkParams{}, sim::Rng{1}};
  EXPECT_EQ(ch.link().beacon_airtime, Duration::milliseconds(1));
  EXPECT_DOUBLE_EQ(ch.link().data_rate_bps, 12500.0);
  EXPECT_DOUBLE_EQ(ch.link().frame_loss, 0.0);
}

// --- Probe-lattice query --------------------------------------------------

/// Brute force: scan every lattice point before `end` with the schedule's
/// own binary-search lookup; past the last, the first point >= end.
TimePoint brute_first_candidate(const ContactSchedule& schedule,
                                Duration beacon, TimePoint t0, Duration step,
                                TimePoint end) {
  TimePoint t = t0;
  for (; t < end; t += step) {
    const auto active = schedule.active_at(t);
    if (active.has_value() && t + beacon <= active->departure()) return t;
  }
  return t;
}

/// The query and the brute-force scan agree for the given arguments.
void expect_matches_brute(const Channel& ch, TimePoint t0, Duration step,
                          TimePoint end) {
  EXPECT_EQ(ch.first_probe_candidate(t0, step, end),
            brute_first_candidate(ch.schedule(), ch.link().beacon_airtime, t0,
                                  step, end))
      << "t0 " << t0 << " step " << step << " end " << end;
}

TEST(Channel, ProbeCandidateHitAtTheFirstPoint) {
  Channel ch{one_contact(), LinkParams{}, sim::Rng{1}};
  EXPECT_EQ(ch.first_probe_candidate(at_s(100.5), Duration::seconds(2),
                                     at_s(500)),
            at_s(100.5));
  expect_matches_brute(ch, at_s(100.5), Duration::seconds(2), at_s(500));
}

TEST(Channel, ProbeCandidateNoneBeforeEnd) {
  Channel ch{one_contact(), LinkParams{}, sim::Rng{1}};
  // Lattice 0, 3, 6, …: 99 then 102 — one before arrival, one exactly at
  // departure (the beacon cannot start there). The first point at or
  // after end = 200 is 201.
  EXPECT_EQ(ch.first_probe_candidate(at_s(0), Duration::seconds(3),
                                     at_s(200)),
            at_s(201));
  expect_matches_brute(ch, at_s(0), Duration::seconds(3), at_s(200));
  // End before the contact: nothing to find either.
  EXPECT_EQ(ch.first_probe_candidate(at_s(0), Duration::seconds(2),
                                     at_s(99)),
            at_s(100));
  // An empty range answers its own start.
  EXPECT_EQ(ch.first_probe_candidate(at_s(50), Duration::seconds(2),
                                     at_s(50)),
            at_s(50));
  EXPECT_EQ(ch.first_probe_candidate(at_s(50), Duration::seconds(2),
                                     at_s(10)),
            at_s(50));
}

TEST(Channel, ProbeCandidateBeaconEndingExactlyAtDeparture) {
  // Contact [100, 102): a beacon of 1 ms starting at 101.999 ends exactly
  // at departure — the last instant that reaches the loss draw.
  Channel ch{one_contact(), LinkParams{}, sim::Rng{1}};
  const TimePoint last = at_s(102) - Duration::milliseconds(1);
  const Duration step = Duration::seconds(5);
  EXPECT_EQ(ch.first_probe_candidate(last - step * 3, step, at_s(300)), last);
  expect_matches_brute(ch, last - step * 3, step, at_s(300));
  // One microsecond later the beacon crosses departure: a miss, and no
  // later point lands in a contact, so the answer is the first point at
  // or after end.
  const TimePoint late = last + Duration::microseconds(1);
  EXPECT_EQ(ch.first_probe_candidate(late - step * 3, step, at_s(300)),
            late + step * 40);
  expect_matches_brute(ch, late - step * 3, step, at_s(300));
}

TEST(Channel, ProbeCandidateResumesRightAfterACrossingBeacon) {
  // The only point inside contact 0 (at 12 s) sends a beacon that would
  // cross its departure; the very next point (14 s) lies in the contact
  // touching it and must be found.
  ContactSchedule schedule{
      {{at_s(11.9995), Duration::milliseconds(1)},
       {at_s(12.0005), Duration::seconds(3) - Duration::microseconds(500)}}};
  Channel ch{schedule, LinkParams{}, sim::Rng{1}};
  EXPECT_EQ(ch.first_probe_candidate(at_s(0), Duration::seconds(2),
                                     at_s(100)),
            at_s(14));
  expect_matches_brute(ch, at_s(0), Duration::seconds(2), at_s(100));
}

TEST(Channel, ProbeCandidateAfterABackwardCursor) {
  // The post-probe active_contact re-read moves the cursor backward; the
  // query from a later point must still see every contact ahead.
  ContactSchedule schedule{{{at_s(10), Duration::seconds(2)},
                            {at_s(20), Duration::seconds(2)},
                            {at_s(30), Duration::seconds(2)}}};
  Channel ch{schedule, LinkParams{}, sim::Rng{1}};
  (void)ch.active_contact(at_s(31));
  (void)ch.active_contact(at_s(10.5));  // backward: cursor on contact 0
  EXPECT_EQ(ch.first_probe_candidate(at_s(13), Duration::seconds(4),
                                     at_s(100)),
            at_s(21));
  // And a query starting behind the cursor repositions it.
  (void)ch.active_contact(at_s(31));
  EXPECT_EQ(ch.first_probe_candidate(at_s(8.5), Duration::seconds(2),
                                     at_s(100)),
            at_s(10.5));
}

TEST(Channel, ProbeCandidateCadenceLongerThanAGap) {
  // Cadence 7 s over 1-s contacts 3 s apart: the lattice steps over whole
  // contacts and gaps; only brute force says where it first lands.
  std::vector<Contact> contacts;
  for (int i = 0; i < 40; ++i) {
    contacts.push_back({at_s(4.0 * i + 0.25), Duration::seconds(1)});
  }
  const ContactSchedule schedule{contacts};
  Channel ch{schedule, LinkParams{}, sim::Rng{1}};
  for (int offset_ms = 0; offset_ms < 7000; offset_ms += 250) {
    expect_matches_brute(ch, at_s(offset_ms / 1000.0), Duration::seconds(7),
                         at_s(170));
  }
}

TEST(Channel, ProbeCandidateMatchesBruteForceOnRandomSchedules) {
  sim::Rng rng{31};
  for (int round = 0; round < 200; ++round) {
    std::vector<Contact> contacts;
    TimePoint t = TimePoint::zero();
    for (int i = 0; i < 30; ++i) {
      if (!rng.bernoulli(0.2)) {  // else touching
        t += Duration::microseconds(
            static_cast<std::int64_t>(rng.uniform_int(4'000'000)));
      }
      const Duration length =
          rng.bernoulli(0.15)
              ? Duration::zero()
              : Duration::microseconds(
                    1 + static_cast<std::int64_t>(rng.uniform_int(2'000'000)));
      contacts.push_back({t, length});
      t += length;
    }
    const ContactSchedule schedule{contacts};
    Channel ch{schedule, LinkParams{}, sim::Rng{1}};
    TimePoint t0 = TimePoint::zero();
    for (int q = 0; q < 20; ++q) {
      const Duration step = Duration::microseconds(
          1 + static_cast<std::int64_t>(rng.uniform_int(3'000'000)));
      const TimePoint end =
          t0 + Duration::microseconds(
                   static_cast<std::int64_t>(rng.uniform_int(20'000'000)));
      expect_matches_brute(ch, t0, step, end);
      t0 = ch.first_probe_candidate(t0, step, end);
    }
  }
}

}  // namespace
}  // namespace snipr::radio
