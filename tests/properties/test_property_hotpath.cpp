// Properties of the event queues (DESIGN.md §3.4, §3.6).
//
// Every queue the engines pop from — the interpreter's EventQueue (also
// drained an instant at a time through pop_next_at, as sim::Driver does)
// and the native modules' LaneQueue — must pop exactly what a
// std::priority_queue over (time, seq) pops, with seq breaking ties
// first-in-first-out. Two traffic shapes:
//  - scattered times under random interleaved push/pop, which keeps far
//    more than LaneQueue::kMaxLanes decreasing runs open and so drives
//    LaneQueue into its heap side channel;
//  - monotone constant-delay traffic (each popped event re-pushed at its
//    time plus its class's fixed delay), the shape an engine produces and
//    the one LaneQueue serves from its FIFO lanes alone.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "backend/native_runtime.hpp"
#include "mathlib/rng.hpp"
#include "sim/event_queue.hpp"

namespace ecsim::sim {
namespace {

/// Reference semantics: a std::priority_queue over (time, seq) with seq
/// breaking ties first-in-first-out.
class OracleQueue {
 public:
  void push(Time time, std::size_t block, std::size_t event_in) {
    pq_.push(ScheduledEvent{time, next_seq_++, block, event_in});
  }
  bool empty() const { return pq_.empty(); }
  ScheduledEvent pop() {
    ScheduledEvent e = pq_.top();
    pq_.pop();
    return e;
  }

 private:
  struct Later {
    bool operator()(const ScheduledEvent& a, const ScheduledEvent& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<ScheduledEvent, std::vector<ScheduledEvent>, Later> pq_;
  std::uint64_t next_seq_ = 0;
};

// Adapters giving every queue the oracle's push/pop face.
struct ScalarHeap {
  static constexpr const char* kName = "EventQueue";
  EventQueue q;
  void push(Time t, std::size_t b, std::size_t p) { q.push(t, b, p); }
  bool empty() const { return q.empty(); }
  ScheduledEvent pop() { return q.pop(); }
};

/// The driver's drain: pop only what is due at the head's instant.
template <class Queue>
struct AtInstant {
  static constexpr const char* kName = std::is_same_v<Queue, EventQueue>
                                           ? "EventQueue::pop_next_at"
                                           : "LaneQueue";
  Queue q;
  void push(Time t, std::size_t b, std::size_t p) { q.push(t, b, p); }
  bool empty() const { return q.empty(); }
  ScheduledEvent pop() {
    ScheduledEvent e;
    if (!q.pop_next_at(q.next_time(), e)) {
      ADD_FAILURE() << "pop_next_at missed its own next_time()";
    }
    return e;
  }
};
using HeapAtInstant = AtInstant<EventQueue>;
using Lanes = AtInstant<backend::rt::LaneQueue>;

bool same_event(const ScheduledEvent& a, const ScheduledEvent& b) {
  return a.time == b.time && a.seq == b.seq && a.block == b.block &&
         a.event_in == b.event_in;
}

::testing::AssertionResult agree(const char* queue, int op,
                                 const ScheduledEvent& got,
                                 const ScheduledEvent& want) {
  if (same_event(got, want)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << queue << " op " << op << ": gave (t=" << got.time
         << ", seq=" << got.seq << ", block=" << got.block
         << ") oracle wanted (t=" << want.time << ", seq=" << want.seq
         << ", block=" << want.block << ")";
}

/// Random interleaving, biased toward pushes so the queues grow deep, with a
/// coarse time grid so simultaneous events (the FIFO-sensitive case) are
/// common.
template <class Q>
void check_scattered_traffic(std::uint64_t seed) {
  math::Rng rng(seed);
  Q q;
  OracleQueue oracle;
  for (int op = 0; op < 20'000; ++op) {
    const bool do_push = q.empty() || rng.uniform() < 0.55;
    if (do_push) {
      const Time t = static_cast<Time>(rng.uniform_int(0, 63)) * 0.125;
      const auto block = static_cast<std::size_t>(rng.uniform_int(0, 9));
      const auto port = static_cast<std::size_t>(rng.uniform_int(0, 2));
      q.push(t, block, port);
      oracle.push(t, block, port);
    } else {
      ASSERT_FALSE(oracle.empty());
      ASSERT_TRUE(agree(Q::kName, op, q.pop(), oracle.pop()));
    }
  }
  // Drain: the tails must agree element for element too.
  for (int op = 0; !oracle.empty(); ++op) {
    ASSERT_FALSE(q.empty());
    ASSERT_TRUE(agree(Q::kName, op, q.pop(), oracle.pop()));
  }
  EXPECT_TRUE(q.empty());
}

/// Engine-shaped traffic: each block re-pushes its periodic event (port 0)
/// at the popped time plus its class's fixed delay, and every fourth block
/// also emits a zero-delay cascade event (port 1, a leaf) at the popped
/// time. Every push is at or after the time last popped. The seed shuffles
/// the order in which the 64 blocks enter at t = 0, which sets the FIFO
/// order of every later tie.
template <class Q>
void check_constant_delay_traffic(std::uint64_t seed) {
  constexpr std::array<Time, 3> kDelays = {1e-4, 2.5e-4, 1e-3};
  math::Rng rng(seed);
  std::array<std::size_t, 64> blocks{};
  for (std::size_t b = 0; b < blocks.size(); ++b) blocks[b] = b;
  for (std::size_t i = blocks.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i)));
    std::swap(blocks[i], blocks[j]);
  }
  Q q;
  OracleQueue oracle;
  for (const std::size_t b : blocks) {
    q.push(0.0, b, 0);
    oracle.push(0.0, b, 0);
  }
  for (int op = 0; op < 20'000; ++op) {
    ASSERT_FALSE(oracle.empty());
    const ScheduledEvent want = oracle.pop();
    ASSERT_TRUE(agree(Q::kName, op, q.pop(), want));
    if (want.event_in == 1) continue;
    const Time next = want.time + kDelays[want.block % kDelays.size()];
    q.push(next, want.block, 0);
    oracle.push(next, want.block, 0);
    if (want.block % 4 == 0) {
      q.push(want.time, want.block, 1);
      oracle.push(want.time, want.block, 1);
    }
  }
}

class HotPathProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HotPathProperty, HeapMatchesPriorityQueueOracleUnderRandomTraffic) {
  check_scattered_traffic<ScalarHeap>(GetParam());
  check_scattered_traffic<HeapAtInstant>(GetParam());
}

TEST_P(HotPathProperty, LaneQueueMatchesPriorityQueueOracleUnderRandomTraffic) {
  check_scattered_traffic<Lanes>(GetParam());
}

TEST_P(HotPathProperty, EveryQueueMatchesOracleUnderConstantDelayTraffic) {
  check_constant_delay_traffic<ScalarHeap>(GetParam());
  check_constant_delay_traffic<HeapAtInstant>(GetParam());
  check_constant_delay_traffic<Lanes>(GetParam());
}

/// Drains `Queue` one instant at a time through pop_next_at(t) — the
/// driver's drain — against an EventQueue popped one event at a time.
template <class Queue>
void check_instant_drain(std::uint64_t seed) {
  math::Rng rng(seed);
  Queue batched;
  EventQueue single;
  for (int i = 0; i < 5'000; ++i) {
    const Time t = static_cast<Time>(rng.uniform_int(0, 31)) * 0.25;
    const std::size_t block = static_cast<std::size_t>(rng.uniform_int(0, 7));
    batched.push(t, block, 0);
    single.push(t, block, 0);
  }
  while (!batched.empty()) {
    const Time t = batched.next_time();
    std::size_t drained = 0;
    ScheduledEvent e;
    while (batched.pop_next_at(t, e)) {
      ASSERT_FALSE(single.empty());
      const ScheduledEvent want = single.pop();
      ASSERT_EQ(want.time, t) << "pop_next_at(" << t << ") yielded a later event";
      ASSERT_TRUE(agree("pop_next_at", static_cast<int>(drained), e, want));
      ++drained;
    }
    // pop_next_at refused: every tie at t is out, and only later instants
    // remain in either queue.
    EXPECT_GT(drained, 0u);
    if (!single.empty()) {
      EXPECT_GT(single.next_time(), t);
    }
    if (!batched.empty()) {
      EXPECT_GT(batched.next_time(), t);
    }
  }
  EXPECT_TRUE(single.empty());
}

TEST_P(HotPathProperty, BatchedPopMatchesOneAtATimePopping) {
  // Draining an instant with pop_next_at(t) must yield exactly the events
  // tied at t, in one-at-a-time pop order, and then refuse.
  check_instant_drain<EventQueue>(GetParam() * 3 + 1);
  check_instant_drain<backend::rt::LaneQueue>(GetParam() * 3 + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HotPathProperty,
                         ::testing::Values(41u, 42u, 43u, 44u, 45u, 46u));

}  // namespace
}  // namespace ecsim::sim
