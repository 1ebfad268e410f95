// Time-ordered event queue. Ties at the same instant are broken by insertion
// sequence number, which makes simultaneous-event processing deterministic
// and causally ordered (an event emitted with zero delay during dispatch is
// processed after the events already pending at that instant).
//
// Implementation (DESIGN.md §3.4): the engines compute an event's time as
// `now + delay` where `now` never decreases across pushes and each call
// site's delay is (nearly) constant, so the push stream decomposes into a
// handful of non-decreasing runs. The queue keeps a few FIFO lanes, appends
// each push to the first lane whose tail is not later than the new event
// (patience-style run decomposition — every lane stays sorted in (time, seq)
// by construction, no matter how call-site delays round), and pops the
// minimum among the lane heads: O(lanes) push and pop with no sifting. A push
// older than every lane tail opens a new lane; past kMaxLanes it falls to a
// binary-heap side channel, so the structure is exact for arbitrary traffic,
// merely fastest for the common monotone case.
//
// The pop order is the strict total order on (time, seq): seq numbers are
// assigned in global push order, each lane head is its lane's minimum by the
// append invariant, the heap top is the side channel's minimum, and every pop
// takes the minimum across those candidates — property-tested against a
// std::priority_queue oracle.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/trace.hpp"

namespace ecsim::sim {

struct ScheduledEvent {
  Time time = 0.0;
  std::uint64_t seq = 0;      // tie-break: FIFO among simultaneous events
  std::size_t block = 0;      // destination block index
  std::size_t event_in = 0;   // destination event input port
};

/// FIFO lanes plus a binary-heap side channel, popped in (time, seq) order.
class EventQueue {
 public:
  static constexpr std::size_t kMaxLanes = 16;

  /// Hot path, forced inline into the engines' emit code (and the generated
  /// modules' kernels): scan the (few) lanes for one whose tail is not later
  /// than the new event — a drained lane accepts anything — and append. The
  /// new event carries the largest seq so far, so "tail not later" reduces
  /// to a tail-time comparison and the appended lane stays (time, seq)
  /// sorted. Lane creation, overflow and compaction drop to cold
  /// out-of-line code, keeping the inlined footprint small.
  [[gnu::always_inline]] inline void push(Time at, std::size_t block,
                                          std::size_t event_in) {
    const ScheduledEvent ev{at, next_seq_++, block, event_in};
    ++live_;
    for (Lane& l : lanes_) {
      if (l.head == l.buf.size()) {
        l.buf.clear();  // fully drained: restart the window
        l.head = 0;
      } else if (later(l.buf.back(), ev)) {
        continue;  // appending here would break the lane's sortedness
      } else if (l.buf.size() == l.buf.capacity()) [[unlikely]] {
        compact(l);
      }
      l.buf.push_back(ev);
      return;
    }
    push_slow(ev);
  }

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Earliest pending event; queue must be non-empty.
  const ScheduledEvent& front() const { return *top("front"); }
  /// Earliest pending event time; queue must be non-empty.
  Time next_time() const { return top("next_time")->time; }
  /// Remove and return the earliest event (FIFO among ties).
  ScheduledEvent pop() {
    ScheduledEvent out;
    pop_next_at(top("pop")->time, out);
    return out;
  }

  /// Remove the earliest pending event if its time is exactly `t`; one
  /// argmin scan, no element movement. sim::Driver drains one instant by
  /// calling this until it returns false: the pops follow the strict
  /// (time, seq) order, and the driver routes zero-delay emissions made
  /// during the drain to its same-instant lane, so the drain sees exactly
  /// the ties pending when it started.
  bool pop_next_at(Time t, ScheduledEvent& out) {
    Lane* best_lane = nullptr;
    const ScheduledEvent* best = nullptr;
    for (Lane& l : lanes_) {
      if (l.head < l.buf.size()) {
        const ScheduledEvent* h = &l.buf[l.head];
        if (best == nullptr || later(*best, *h)) {
          best = h;
          best_lane = &l;
        }
      }
    }
    if (!heap_.empty() &&
        (best == nullptr || later(*best, heap_.front()))) [[unlikely]] {
      if (heap_.front().time != t) return false;
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      out = heap_.back();
      heap_.pop_back();
      --live_;
      return true;
    }
    if (best == nullptr || best->time != t) return false;
    out = *best;
    ++best_lane->head;
    --live_;
    return true;
  }

  /// Drop all pending events and reset the FIFO sequence counter. O(lanes),
  /// independent of the number of pending events: lanes persist across runs
  /// (delay classes are structural) and every buffer keeps its capacity, so
  /// a cleared queue re-fills without allocating (regression-tested on a
  /// 1e6-event queue).
  void clear() {
    for (Lane& l : lanes_) {
      l.buf.clear();
      l.head = 0;
    }
    heap_.clear();
    next_seq_ = 0;
    live_ = 0;
  }

  /// Events the queue's buffers hold room for (lanes plus side channel): its
  /// footprint. Bounded by a small multiple of the peak pending count, not
  /// by the number of events ever pushed.
  std::size_t capacity() const {
    std::size_t n = heap_.capacity();
    for (const Lane& l : lanes_) n += l.buf.capacity();
    return n;
  }

 private:
  struct Lane {
    std::size_t head = 0;  // buf[head..) is the pending FIFO window
    std::vector<ScheduledEvent> buf;
  };

  /// a should pop after b.
  static bool later(const ScheduledEvent& a, const ScheduledEvent& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
  struct Later {
    bool operator()(const ScheduledEvent& a, const ScheduledEvent& b) const {
      return later(a, b);
    }
  };

  /// The earliest pending event, across the lane heads and the heap top.
  const ScheduledEvent* top(const char* who) const {
    const ScheduledEvent* best = nullptr;
    for (const Lane& l : lanes_) {
      if (l.head < l.buf.size()) {
        const ScheduledEvent* h = &l.buf[l.head];
        if (best == nullptr || later(*best, *h)) best = h;
      }
    }
    if (!heap_.empty() && (best == nullptr || later(*best, heap_.front()))) {
      best = &heap_.front();
    }
    if (best == nullptr) throw_empty(who);
    return best;
  }

  [[noreturn, gnu::noinline]] static void throw_empty(const char* who) {
    throw std::logic_error(std::string("EventQueue::") + who + ": empty");
  }

  /// Cold: a full lane about to grow. A lane that always holds a pending
  /// event is never fully drained, so without this it would keep every
  /// event ever appended to it. Once the consumed prefix is at least half
  /// the buffer it is dropped instead: the moved tail is at most half the
  /// buffer and the freed half takes as many pushes to refill (amortised
  /// O(1)), and the buffer only grows while more than half of it is pending.
  [[gnu::noinline]] static void compact(Lane& l) {
    if (2 * l.head < l.buf.size()) return;
    l.buf.erase(l.buf.begin(),
                l.buf.begin() + static_cast<std::ptrdiff_t>(l.head));
    l.head = 0;
  }

  /// Cold: the event predates every lane tail — open a new run (or overflow
  /// to the heap past kMaxLanes).
  [[gnu::noinline]] void push_slow(const ScheduledEvent& ev) {
    if (lanes_.size() < kMaxLanes) {
      lanes_.emplace_back();
      lanes_.back().buf.reserve(64);
      lanes_.back().buf.push_back(ev);
      return;
    }
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  std::vector<Lane> lanes_;
  std::vector<ScheduledEvent> heap_;  // Later{} min-heap side channel
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
};

}  // namespace ecsim::sim
