// Properties of the event queues (DESIGN.md §3.4, §3.6, §3.8).
//
// Every queue the engines pop from — the scalar EventQueue (also drained
// an instant at a time through pop_next_at, as sim::Driver does), the SIMD
// driver's HeapQueue<MaskedEvent> and the native modules' LaneQueue — must
// pop exactly what a std::priority_queue over (time, seq) pops, with seq
// breaking ties first-in-first-out. Two traffic shapes:
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
#include <vector>

#include "backend/native_runtime.hpp"
#include "mathlib/rng.hpp"
#include "sim/event_queue.hpp"
#include "simd/batched_sim.hpp"

namespace ecsim::sim {
namespace {

/// Reference semantics: a std::priority_queue over (time, seq) with seq
/// breaking ties first-in-first-out. Carries a mask so one oracle serves
/// both event records; queues without a mask report 0.
class OracleQueue {
 public:
  void push(Time time, std::size_t block, std::size_t event_in,
            std::uint64_t mask) {
    pq_.push(MaskedEvent{time, next_seq_++, block, event_in, mask});
  }
  bool empty() const { return pq_.empty(); }
  MaskedEvent pop() {
    MaskedEvent e = pq_.top();
    pq_.pop();
    return e;
  }

 private:
  struct Later {
    bool operator()(const MaskedEvent& a, const MaskedEvent& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<MaskedEvent, std::vector<MaskedEvent>, Later> pq_;
  std::uint64_t next_seq_ = 0;
};

MaskedEvent with_mask(const ScheduledEvent& e, std::uint64_t mask) {
  return MaskedEvent{e.time, e.seq, e.block, e.event_in, mask};
}

// Adapters giving every queue the oracle's push/pop face.
struct ScalarHeap {
  static constexpr const char* kName = "EventQueue";
  EventQueue q;
  void push(Time t, std::size_t b, std::size_t p, std::uint64_t) {
    q.push(t, b, p);
  }
  bool empty() const { return q.empty(); }
  MaskedEvent pop() { return with_mask(q.pop(), 0); }
  static std::uint64_t mask(std::uint64_t) { return 0; }
};

/// The scalar driver's drain: pop only what is due at the head's instant.
struct HeapAtInstant {
  static constexpr const char* kName = "EventQueue::pop_next_at";
  EventQueue q;
  void push(Time t, std::size_t b, std::size_t p, std::uint64_t) {
    q.push(t, b, p);
  }
  bool empty() const { return q.empty(); }
  MaskedEvent pop() {
    ScheduledEvent e;
    if (!q.pop_next_at(q.next_time(), e)) {
      ADD_FAILURE() << "EventQueue::pop_next_at missed its own next_time()";
    }
    return with_mask(e, 0);
  }
  static std::uint64_t mask(std::uint64_t) { return 0; }
};

struct MaskedHeap {
  static constexpr const char* kName = "HeapQueue<MaskedEvent>";
  HeapQueue<MaskedEvent> q;
  void push(Time t, std::size_t b, std::size_t p, std::uint64_t mask) {
    q.push(t, b, p, mask);
  }
  bool empty() const { return q.empty(); }
  MaskedEvent pop() { return q.pop(); }
  static std::uint64_t mask(std::uint64_t m) { return m; }
};

struct Lanes {
  static constexpr const char* kName = "LaneQueue";
  backend::rt::LaneQueue q;
  void push(Time t, std::size_t b, std::size_t p, std::uint64_t) {
    q.push(t, b, p);
  }
  bool empty() const { return q.empty(); }
  MaskedEvent pop() {
    ScheduledEvent e;
    if (!q.pop_next_at(q.next_time(), e)) {
      ADD_FAILURE() << "LaneQueue::pop_next_at missed its own next_time()";
    }
    return with_mask(e, 0);
  }
  static std::uint64_t mask(std::uint64_t) { return 0; }
};

bool same_event(const MaskedEvent& a, const MaskedEvent& b) {
  return a.time == b.time && a.seq == b.seq && a.block == b.block &&
         a.event_in == b.event_in && a.mask == b.mask;
}

::testing::AssertionResult agree(const char* queue, int op,
                                 const MaskedEvent& got,
                                 const MaskedEvent& want) {
  if (same_event(got, want)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << queue << " op " << op << ": gave (t=" << got.time
         << ", seq=" << got.seq << ", block=" << got.block
         << ", mask=" << got.mask << ") oracle wanted (t=" << want.time
         << ", seq=" << want.seq << ", block=" << want.block
         << ", mask=" << want.mask << ")";
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
      const std::uint64_t mask = Q::mask(rng.next_u64());
      q.push(t, block, port, mask);
      oracle.push(t, block, port, mask);
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
/// time. Every push is at or after the time last popped.
template <class Q>
void check_constant_delay_traffic(std::uint64_t seed) {
  constexpr std::array<Time, 3> kDelays = {1e-4, 2.5e-4, 1e-3};
  math::Rng rng(seed);
  Q q;
  OracleQueue oracle;
  for (std::size_t b = 0; b < 64; ++b) {
    const std::uint64_t mask = Q::mask(rng.next_u64());
    q.push(0.0, b, 0, mask);
    oracle.push(0.0, b, 0, mask);
  }
  for (int op = 0; op < 20'000; ++op) {
    ASSERT_FALSE(oracle.empty());
    const MaskedEvent want = oracle.pop();
    ASSERT_TRUE(agree(Q::kName, op, q.pop(), want));
    if (want.event_in == 1) continue;
    const Time next = want.time + kDelays[want.block % kDelays.size()];
    q.push(next, want.block, 0, want.mask);
    oracle.push(next, want.block, 0, want.mask);
    if (want.block % 4 == 0) {
      q.push(want.time, want.block, 1, want.mask);
      oracle.push(want.time, want.block, 1, want.mask);
    }
  }
}

class HotPathProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HotPathProperty, HeapMatchesPriorityQueueOracleUnderRandomTraffic) {
  check_scattered_traffic<ScalarHeap>(GetParam());
  check_scattered_traffic<HeapAtInstant>(GetParam());
  check_scattered_traffic<MaskedHeap>(GetParam());
}

TEST_P(HotPathProperty, LaneQueueMatchesPriorityQueueOracleUnderRandomTraffic) {
  check_scattered_traffic<Lanes>(GetParam());
}

TEST_P(HotPathProperty, EveryQueueMatchesOracleUnderConstantDelayTraffic) {
  check_constant_delay_traffic<ScalarHeap>(GetParam());
  check_constant_delay_traffic<HeapAtInstant>(GetParam());
  check_constant_delay_traffic<MaskedHeap>(GetParam());
  check_constant_delay_traffic<Lanes>(GetParam());
}

TEST_P(HotPathProperty, BatchedPopMatchesOneAtATimePopping) {
  // pop_simultaneous must be observationally identical to popping until the
  // head time changes, and pop_next_at(t) — the scalar driver's drain — must
  // yield exactly that batch and then refuse the next instant.
  math::Rng rng(GetParam() * 3 + 1);
  EventQueue batched;
  EventQueue single;
  EventQueue at_instant;
  for (int i = 0; i < 5'000; ++i) {
    const Time t = static_cast<Time>(rng.uniform_int(0, 31)) * 0.25;
    const std::size_t block = static_cast<std::size_t>(rng.uniform_int(0, 7));
    batched.push(t, block, 0);
    single.push(t, block, 0);
    at_instant.push(t, block, 0);
  }
  std::vector<ScheduledEvent> batch;
  while (!batched.empty()) {
    batch.clear();
    batched.pop_simultaneous(batch);
    ASSERT_FALSE(batch.empty());
    for (const ScheduledEvent& e : batch) {
      ASSERT_FALSE(single.empty());
      ASSERT_TRUE(same_event(with_mask(e, 0), with_mask(single.pop(), 0)));
      ScheduledEvent drained;
      ASSERT_TRUE(at_instant.pop_next_at(batch.front().time, drained));
      ASSERT_TRUE(same_event(with_mask(e, 0), with_mask(drained, 0)));
    }
    ScheduledEvent beyond;
    EXPECT_FALSE(at_instant.pop_next_at(batch.front().time, beyond));
    if (!single.empty() && !batch.empty()) {
      EXPECT_NE(single.next_time(), batch.front().time);
    }
  }
  EXPECT_TRUE(single.empty());
  EXPECT_TRUE(at_instant.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HotPathProperty,
                         ::testing::Values(41u, 42u, 43u, 44u, 45u, 46u));

}  // namespace
}  // namespace ecsim::sim
