// Time-ordered event queue. Ties at the same instant are broken by insertion
// sequence number, which makes simultaneous-event processing deterministic
// and causally ordered (an event emitted with zero delay during dispatch is
// processed after the events already pending at that instant).
//
// Implementation: an explicit flat 4-ary min-heap over a contiguous vector
// (DESIGN.md §3.4). The 4-ary layout halves the sift depth of a binary heap,
// keeps each sift level inside one or two cache lines, supports reserve() so
// steady-state pushes never reallocate, clears in O(1), and drains
// same-instant ties one at a time at a given instant (pop_next_at, the
// driver's drain). The pop order is a total order on (time, seq), so any
// heap arity yields the identical event sequence — property-tested against
// a std::priority_queue oracle.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/trace.hpp"

namespace ecsim::sim {

struct ScheduledEvent {
  Time time = 0.0;
  std::uint64_t seq = 0;      // tie-break: FIFO among simultaneous events
  std::size_t block = 0;      // destination block index
  std::size_t event_in = 0;   // destination event input port
};

/// 4-ary min-heap of ScheduledEvent on (time, seq).
class EventQueue {
 public:
  // push and the pops are defined inline: they run once per dispatched
  // event, and an out-of-line call per event is measurable at the
  // tens-of-millions-events/s the engine sustains.
  void push(Time t, std::size_t block, std::size_t event_in) {
    heap_.push_back(ScheduledEvent{t, next_seq_++, block, event_in});
    sift_up(heap_.size() - 1);
  }
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  /// Earliest pending event; queue must be non-empty.
  const ScheduledEvent& front() const {
    if (heap_.empty()) throw std::logic_error("EventQueue::front: empty");
    return heap_.front();
  }
  /// Earliest pending event time; queue must be non-empty.
  Time next_time() const {
    if (heap_.empty()) throw std::logic_error("EventQueue::next_time: empty");
    return heap_.front().time;
  }
  /// Remove and return the earliest event (FIFO among ties).
  ScheduledEvent pop() {
    if (heap_.empty()) throw std::logic_error("EventQueue::pop: empty");
    return pop_top();
  }
  /// Remove the earliest pending event if its time is exactly `t` (same
  /// contract as backend::rt::LaneQueue::pop_next_at). sim::Driver drains
  /// one instant by calling this until it returns false: the pops follow
  /// the strict (time, seq) order, and the driver routes zero-delay
  /// emissions made during the drain to its same-instant lane, so the drain
  /// sees exactly the ties pending when it started.
  bool pop_next_at(Time t, ScheduledEvent& out) {
    if (heap_.empty() || heap_.front().time != t) return false;
    out = pop_top();
    return true;
  }
  /// Drop all pending events and reset the FIFO sequence counter. O(1):
  /// keeps the backing capacity, so a cleared queue re-fills without
  /// allocating (regression-tested on a 1e6-event queue).
  void clear() {
    heap_.clear();
    next_seq_ = 0;
  }
  /// Pre-size the backing vector so steady-state pushes never reallocate.
  void reserve(std::size_t n) { heap_.reserve(n); }
  std::size_t capacity() const { return heap_.capacity(); }

 private:
  /// a should pop after b.
  static bool later(const ScheduledEvent& a, const ScheduledEvent& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  void sift_up(std::size_t i) {
    const ScheduledEvent ev = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!later(heap_[parent], ev)) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = ev;
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    const ScheduledEvent ev = heap_[i];
    for (;;) {
      const std::size_t first_child = 4 * i + 1;
      if (first_child >= n) break;
      const std::size_t last_child = std::min(first_child + 4, n);
      std::size_t best = first_child;
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (later(heap_[best], heap_[c])) best = c;
      }
      if (!later(ev, heap_[best])) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = ev;
  }

  ScheduledEvent pop_top() {
    ScheduledEvent ev = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    return ev;
  }

  std::vector<ScheduledEvent> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace ecsim::sim
