/// Property: `sim::EventQueue` behaves exactly like a linear-scan oracle
/// over random forward-running schedule/cancel/pop interleavings — the
/// full surface a Simulator can drive (Simulator::schedule_at rejects
/// past times). The oracle is a plain vector of (at, seq, tag) searched
/// for its (at, seq) minimum, so it shares no code or structure with the
/// heap. Pop order is compared by a tag each callback records; cancel
/// verdicts (including stale and never-issued handles), next_time(),
/// size() and empty() must agree at every step. Id packing and
/// generation wraps are pinned in tests/sim/event_queue_test.cpp.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "snipr/sim/event_queue.hpp"
#include "snipr/sim/rng.hpp"

namespace snipr::sim {
namespace {

/// Pending events in schedule order; every query scans them all.
class LinearScanOracle {
 public:
  void schedule(TimePoint at, int tag) {
    pending_.push_back(Pending{at, next_seq_++, tag});
  }

  /// Removes the pending event carrying `tag`; false when none does
  /// (it already popped, was cancelled, or never existed).
  bool cancel(int tag) {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].tag == tag) {
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] std::optional<TimePoint> next_time() const {
    if (pending_.empty()) return std::nullopt;
    return pending_[min_index()].at;
  }

  /// (at, tag) of the earliest pending event if it is due by `limit`.
  std::optional<std::pair<TimePoint, int>> pop_due(TimePoint limit) {
    if (pending_.empty()) return std::nullopt;
    const std::size_t i = min_index();
    if (pending_[i].at > limit) return std::nullopt;
    const std::pair<TimePoint, int> out{pending_[i].at, pending_[i].tag};
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
    return out;
  }

  [[nodiscard]] std::size_t size() const { return pending_.size(); }
  [[nodiscard]] bool empty() const { return pending_.empty(); }

 private:
  struct Pending {
    TimePoint at;
    std::uint64_t seq;
    int tag;
  };

  [[nodiscard]] std::size_t min_index() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < pending_.size(); ++i) {
      const Pending& p = pending_[i];
      const Pending& b = pending_[best];
      if (p.at < b.at || (p.at == b.at && p.seq < b.seq)) best = i;
    }
    return best;
  }

  std::vector<Pending> pending_;
  std::uint64_t next_seq_{1};
};

/// Delays from zero (FIFO ties) through sub-millisecond, second and
/// ~70-minute scales to multi-hour hops like a node's epoch boundary.
Duration random_delay(Rng& rng) {
  switch (rng.uniform_int(6)) {
    case 0:
      return Duration::zero();
    case 1:
      return Duration::microseconds(
          static_cast<std::int64_t>(rng.uniform_int(256)));
    case 2:
      return Duration::microseconds(
          static_cast<std::int64_t>(rng.uniform_int(65'536)));
    case 3:
      return Duration::microseconds(
          static_cast<std::int64_t>(rng.uniform_int(16'777'216)));
    case 4:
      return Duration::microseconds(
          static_cast<std::int64_t>(rng.uniform_int(4'294'967'296)));
    default:
      return Duration::hours(1 + static_cast<std::int64_t>(
                                     rng.uniform_int(100)));
  }
}

TEST(EventQueueEquivalenceProperty, MatchesLinearScanOracle) {
  Rng rng{20260807};
  for (int round = 0; round < 40; ++round) {
    EventQueue queue;
    LinearScanOracle oracle;
    // Handle and tag of every event ever scheduled this round.
    std::vector<std::pair<EventId, int>> issued;
    TimePoint now = TimePoint::zero();
    int ran = -1;

    // Pops from both sides with the same limit; the queue's callback
    // must report the tag the oracle pops.
    const auto pop_both = [&](TimePoint limit) {
      auto a = queue.pop_due(limit);
      const auto b = oracle.pop_due(limit);
      EXPECT_EQ(a.has_value(), b.has_value()) << "round " << round;
      if (!a.has_value() || !b.has_value()) return false;
      ran = -1;
      a->fn();
      EXPECT_EQ(a->at, b->first) << "round " << round;
      EXPECT_EQ(ran, b->second) << "round " << round;
      now = a->at;
      return true;
    };

    const std::size_t ops = 200 + rng.uniform_int(2000);
    for (std::size_t op = 0; op < ops; ++op) {
      const double coin = rng.uniform();
      if (coin < 0.5) {
        // Forward-running schedule; a repeated delay of zero exercises
        // the FIFO tie-break.
        const TimePoint at = now + random_delay(rng);
        const int tag = static_cast<int>(issued.size());
        issued.emplace_back(queue.schedule(at, [&ran, tag] { ran = tag; }),
                            tag);
        oracle.schedule(at, tag);
      } else if (coin < 0.6) {
        pop_both(TimePoint::max());
      } else if (coin < 0.7) {
        // A limit that sometimes falls short of the head, which must
        // then stay pending on both sides.
        pop_both(now + random_delay(rng));
      } else if (coin < 0.85) {
        // Cancel a random issued handle — often one already popped or
        // cancelled — or, rarely, a never-issued id.
        if (issued.empty() || rng.uniform() < 0.05) {
          const auto id = static_cast<EventId>(rng.uniform_int(1'000'000));
          ASSERT_FALSE(queue.cancel(id)) << "round " << round;
        } else {
          const auto& [id, tag] = issued[rng.uniform_int(issued.size())];
          ASSERT_EQ(queue.cancel(id), oracle.cancel(tag))
              << "round " << round << " tag " << tag;
        }
      } else if (coin < 0.95) {
        ASSERT_EQ(queue.next_time(), oracle.next_time()) << "round " << round;
      } else {
        ASSERT_EQ(queue.size(), oracle.size()) << "round " << round;
        ASSERT_EQ(queue.empty(), oracle.empty()) << "round " << round;
      }
      ASSERT_FALSE(::testing::Test::HasFailure()) << "op " << op;
    }

    // Drain both completely: the tail must pop in lockstep too.
    while (pop_both(TimePoint::max())) {
    }
    ASSERT_FALSE(::testing::Test::HasFailure()) << "drain, round " << round;
    ASSERT_TRUE(queue.empty());
    ASSERT_EQ(queue.heap_size(), 0U);
  }
}

}  // namespace
}  // namespace snipr::sim
