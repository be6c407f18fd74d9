#include "snipr/sim/event_queue.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace snipr::sim {
namespace {

/// Below this many entries a sweep saves nothing worth its cost; it also
/// keeps steady small queues from compacting on every other cancel.
constexpr std::size_t kCompactionFloor = 64;

}  // namespace

// Both sifts carry the moving entry in a hole and write it once at its
// final position, instead of swapping at every level: half the stores,
// and no per-level std::swap call where nothing is inlined (sanitizer
// and debug builds).
void EventQueue::sift_up(std::size_t i) const {
  Entry* h = heap_.data();
  const Entry moving = h[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(moving, h[parent])) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = moving;
}

void EventQueue::sift_down(std::size_t i) const {
  Entry* h = heap_.data();
  const std::size_t n = heap_.size();
  const Entry moving = h[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(h[child + 1], h[child])) ++child;
    if (!before(h[child], moving)) break;
    h[i] = h[child];
    i = child;
  }
  h[i] = moving;
}

void EventQueue::remove_root() const {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void EventQueue::drop_stale_head() const {
  while (!heap_.empty() && stale(heap_.front())) {
    remove_root();
  }
}

void EventQueue::retire(std::uint32_t slot) {
  slots_[slot].fn.reset();
  // Generation 0 is reserved: it keeps every packed id non-zero (the
  // kInvalidEventId sentinel) and cancel() rejects it outright, so a
  // wrapping slot skips straight from 2^32-1 to 1.
  if (++slots_[slot].generation == 0) slots_[slot].generation = 1;
  free_.push_back(slot);
  --live_;
}

EventId EventQueue::schedule(TimePoint at, Callback fn) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    if (slots_.size() >
        static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max())) {
      throw std::length_error("EventQueue: slot index space exhausted");
    }
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].fn = std::move(fn);
  const std::uint32_t generation = slots_[slot].generation;
  heap_.push_back(Entry{at, next_seq_++, slot, generation});
  sift_up(heap_.size() - 1);
  ++live_;
  return pack(generation, slot);
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (generation == 0) return false;  // kInvalidEventId and friends
  if (slot >= slots_.size()) return false;
  if (slots_[slot].generation != generation) return false;
  retire(slot);
  // The heap entry stays behind as a tombstone, skipped lazily at the
  // head — unless tombstones now dominate, in which case sweep them all.
  maybe_compact();
  return true;
}

void EventQueue::maybe_compact() {
  if (heap_.size() < kCompactionFloor) return;
  if (heap_.size() <= 2 * live_) return;
  const auto dead = [this](const Entry& e) { return stale(e); };
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), dead), heap_.end());
  // Floyd heapify: O(n), cheaper than re-inserting survivors one by one.
  for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
}

std::optional<TimePoint> EventQueue::next_time() const {
  drop_stale_head();
  if (heap_.empty()) return std::nullopt;
  return heap_.front().at;
}

std::optional<EventQueue::Popped> EventQueue::pop() {
  return pop_due(TimePoint::max());
}

std::optional<EventQueue::Popped> EventQueue::pop_due(TimePoint limit) {
  drop_stale_head();
  if (heap_.empty() || heap_.front().at > limit) return std::nullopt;
  const Entry top = heap_.front();
  Popped out{top.at, pack(top.generation, top.slot),
             std::move(slots_[top.slot].fn)};
  retire(top.slot);
  remove_root();
  return out;
}

}  // namespace snipr::sim
