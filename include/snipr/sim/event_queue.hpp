#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "snipr/sim/inline_callback.hpp"
#include "snipr/sim/time.hpp"

/// \file event_queue.hpp
/// Pending-event set for the discrete-event engine.

namespace snipr::sim {

/// Opaque handle identifying a scheduled event; usable for cancellation.
/// Packs a slot index (low 32 bits) and that slot's generation at
/// schedule time (high 32 bits), so a handle outliving its event can
/// never cancel a newer event that happens to reuse the slot.
using EventId = std::uint64_t;

/// Invalid sentinel (never returned by schedule(); generations start at
/// 1 and a wrapping slot skips 0, so every real id has a non-zero high
/// half).
inline constexpr EventId kInvalidEventId = 0;

/// Bytes of inline storage per event callback. Sized for the fattest
/// closure on the hot path (SensorNode::begin_transfer's completion,
/// ~56 bytes); anything larger fails the InlineCallback static_assert.
inline constexpr std::size_t kEventCallbackCapacity = 64;

/// Time-ordered queue of callbacks with O(log n) schedule/pop and O(1)
/// cancellation, allocation-free in steady state. Ties at equal
/// timestamps run in schedule order (FIFO), which keeps runs
/// deterministic.
///
/// A flat binary min-heap: a duty-cycled node keeps at most two events
/// pending (its next wakeup or transfer completion, and its epoch
/// boundary), so the heap stays about twice a shard's node count deep
/// and a sift touches a handful of cache lines (DESIGN.md, "Hot path &
/// memory layout").
///
/// Callbacks live in a flat slot array (`slots_`), inline via
/// InlineCallback — never on the heap. A schedule takes a slot from the
/// free list (or grows the array), stamps it with its current
/// generation, and pushes a 24-byte (timestamp, sequence, slot,
/// generation) entry onto the heap; sifts therefore move small POD
/// entries, not closures. A heap entry is a tombstone iff its generation
/// no longer matches its slot's. cancel() retires the slot and leaves
/// the entry behind, dropped lazily at the head or swept in bulk
/// whenever tombstones outnumber live entries (so a cancel-heavy
/// workload keeps the heap within a constant factor of the live count).
///
/// Generations wrap at 2^32, skipping generation 0 (reserved so a
/// recycled slot can never mint an id equal to the `kInvalidEventId`
/// sentinel); a stale handle could alias only after a single slot is
/// reused four billion times while the handle is held.
class EventQueue {
 public:
  using Callback = InlineCallback<kEventCallbackCapacity>;

  /// Schedule `fn` at absolute time `at`. Returns a handle for cancel().
  EventId schedule(TimePoint at, Callback fn);

  /// Cancel a pending event. Returns false if the event already ran,
  /// was already cancelled, or was never scheduled.
  bool cancel(EventId id);

  /// Timestamp of the earliest pending (non-cancelled) event.
  [[nodiscard]] std::optional<TimePoint> next_time() const;

  /// True when no live events remain.
  [[nodiscard]] bool empty() const { return live_ == 0; }
  /// Number of live (non-cancelled) events.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }
  /// Heap entries currently held, including cancelled tombstones awaiting
  /// compaction. Tombstones only arise from cancel(), which re-checks the
  /// compaction condition, so every cancel leaves the heap at most
  /// max(2 * size(), compaction floor); pops in between only shrink it.
  /// Exposed so tests can pin the no-leak guarantee.
  [[nodiscard]] std::size_t heap_size() const noexcept { return heap_.size(); }

  /// Pop the earliest event and return it; nullopt when empty.
  struct Popped {
    TimePoint at;
    EventId id{kInvalidEventId};
    Callback fn;
  };
  [[nodiscard]] std::optional<Popped> pop();

  /// Pop the earliest event only if its timestamp is <= `limit`;
  /// nullopt when the queue is empty or the head lies beyond the limit
  /// (which stays pending). Fuses the next_time()+pop() pair the drain
  /// loop would otherwise issue.
  [[nodiscard]] std::optional<Popped> pop_due(TimePoint limit);

 private:
  friend struct EventQueueTestPeer;

  /// Callback storage cell, reused across events via the free list. The
  /// generation counts retirements: a heap entry scheduled against an
  /// older generation is a tombstone.
  struct Slot {
    Callback fn;
    std::uint32_t generation{1};
  };

  /// 24-byte POD heap entry; `seq` is a global monotone schedule counter
  /// providing the FIFO tie-break (slot indices recycle, so they cannot).
  struct Entry {
    TimePoint at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };

  /// Min-heap order: earliest timestamp first, FIFO among equal stamps.
  static bool before(const Entry& a, const Entry& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  [[nodiscard]] static EventId pack(std::uint32_t generation,
                                    std::uint32_t slot) noexcept {
    return (static_cast<EventId>(generation) << 32) | slot;
  }

  [[nodiscard]] bool stale(const Entry& e) const noexcept {
    return slots_[e.slot].generation != e.generation;
  }

  /// Release a slot's callback, bump its generation (skipping 0) and
  /// recycle it.
  void retire(std::uint32_t slot);

  void sift_up(std::size_t i) const;
  void sift_down(std::size_t i) const;
  /// Remove the root entry (sift the last entry down into its place).
  void remove_root() const;
  /// Drop tombstones sitting at the heap head.
  void drop_stale_head() const;
  /// Sweep every tombstone and re-heapify when they outnumber live
  /// entries (and the heap is big enough for the sweep to matter).
  void maybe_compact();

  // The heap is mutable so the const observer next_time() can shed
  // tombstoned heads it encounters. Slots are never touched from const
  // paths.
  mutable std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_{1};
  std::size_t live_{0};
};

}  // namespace snipr::sim
