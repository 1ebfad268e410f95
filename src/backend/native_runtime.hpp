// Shared runtime for generated model modules (DESIGN.md §3.6). A generated
// .cpp defines a `Program` — per-block parameters/state as members, the
// layout tables from ir::LayoutIr as static constexpr arrays (served to the
// driver by Tables<Program>), a load() that fills the parameter members from
// the host's parameter table (ABI v3), and four specialized kernels (init /
// compute / on_event / derivatives with literal arena offsets) — and runs
// it through run_program<Program>.
//
// There is no engine loop here: Engine<Program> is sim::Driver, the one
// event loop the interpreter runs too (sim/driver.hpp), instantiated over
// the module's tables and the LaneQueue below. Telemetry flows through the
// NativeRunOptions::obs callback table into the driver's hooks, the same
// hooks an instrumented interpreter run latches. Everything order-sensitive
// is therefore either shared code (the loop, the same-instant lane,
// sim::integrate() stepping the same workspace, math::Rng and sim::Trace —
// unity-compiled into the module from the interpreter's own sources) or
// order-equivalent by construction: LaneQueue pops the identical strict
// (time, seq) total order sim::EventQueue pops, just without the heap. A
// native run is bit-identical to an interpreter run of the same IR (asserted
// by the interp-vs-native property suite).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/native_abi.hpp"
#include "blocks/duration_spec.hpp"
#include "mathlib/matrix.hpp"
#include "mathlib/rng.hpp"
#include "sim/driver.hpp"
#include "sim/event_queue.hpp"
#include "sim/port.hpp"
#include "sim/trace.hpp"

namespace ecsim::backend::rt {

/// Cursor over the host's parameter table (ABI v3). A generated module's
/// source depends only on the model's shape; every value private to a block
/// (gains, periods, delays, matrices and their dimensions, initial discrete
/// state, ...) arrives here, and Program::load() reads them back in the
/// order the generator appended them (NativeSource::params). Every read is
/// bounds-checked and run() requires the table to be consumed exactly, so a
/// table built for another shape fails the run with a message instead of
/// being misread.
class ParamReader {
 public:
  ParamReader(const double* p, std::size_t n) : p_(p), n_(p != nullptr ? n : 0) {}

  double real() {
    if (pos_ >= n_) fail("read past its end");
    return p_[pos_++];
  }

  /// A count, index or tag: integral, >= 0 and < `bound`.
  std::size_t index(std::size_t bound = std::size_t{1} << 53) {
    const double v = real();
    if (!(v >= 0.0) || v >= static_cast<double>(bound) || v != std::floor(v)) {
      fail("holds a bad index at slot " + std::to_string(pos_ - 1));
    }
    return static_cast<std::size_t>(v);
  }

  /// A 64-bit value stored as two exact 32-bit halves, high half first.
  std::uint64_t u64() {
    const std::uint64_t hi = index(std::size_t{1} << 32);
    const std::uint64_t lo = index(std::size_t{1} << 32);
    return (hi << 32) | lo;
  }

  /// Exactly N values (N is part of the shape).
  template <std::size_t N>
  void fill(std::array<double, N>& out) {
    for (double& v : out) v = real();
  }

  /// A length-prefixed vector (the length is block-private).
  void vec(std::vector<double>& out, std::size_t min_size = 0) {
    const std::size_t n = index();
    if (n < min_size || n > remaining()) fail("holds a bad vector length");
    out.assign(p_ + pos_, p_ + pos_ + n);
    pos_ += n;
  }

  /// A row-major matrix prefixed by its rows and columns.
  void matrix(math::Matrix& out) {
    const std::size_t rows = index();
    const std::size_t cols = index();
    if (cols != 0 && rows > remaining() / cols) {
      fail("holds an oversized matrix");
    }
    out = math::Matrix(rows, cols);
    std::copy(p_ + pos_, p_ + pos_ + rows * cols, out.data());
    pos_ += rows * cols;
  }

  /// An EventDelay sampler: the DurationSpec::Kind tag, then the values of
  /// the same validated factory blocks::duration_from_attrs calls.
  blocks::DurationSpec duration() {
    using K = blocks::DurationSpec::Kind;
    switch (static_cast<K>(index())) {
      case K::kConstant:
        return blocks::constant_duration(real());
      case K::kUniform: {
        const double bcet = real();
        return blocks::uniform_duration(bcet, real());
      }
      case K::kTruncatedNormal: {
        const double mean = real();
        const double stddev = real();
        const double bcet = real();
        return blocks::truncated_normal_duration(mean, stddev, bcet, real());
      }
      case K::kShiftedUniform: {
        const double base = real();
        return blocks::shifted_uniform_duration(base, real());
      }
      case K::kBranches: {
        std::vector<double> wcets;
        vec(wcets);
        const double fraction = real();
        return blocks::branch_duration(std::move(wcets), fraction,
                                       index(2) != 0);
      }
      case K::kCustom:
        break;
    }
    fail("holds an unknown duration distribution");
  }

  /// Called after Program::load(): the table must be consumed exactly.
  void finish() const {
    if (pos_ != n_) {
      fail("has " + std::to_string(n_) + " values but the module reads " +
           std::to_string(pos_));
    }
  }

 private:
  std::size_t remaining() const { return n_ - pos_; }

  [[noreturn]] static void fail(const std::string& why) {
    throw std::runtime_error(
        "native model: parameter table does not fit the module: it " + why);
  }

  const double* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
};

/// Event queue specialized for generated modules. The driver's emit and
/// schedule_self compute an event's time as `eval_time_ + delay` where
/// eval_time_ never decreases across pushes and each call site's delay is
/// (nearly) constant, so the push stream decomposes into a handful of
/// non-decreasing runs. The queue exploits that: it keeps a few FIFO lanes,
/// appends each push to the first lane whose tail is not later than the new
/// event (patience-style run decomposition — every lane stays sorted in
/// (time, seq) by construction, no matter how call-site delays round), and
/// pops the minimum among the lane heads: O(lanes) push and pop with no
/// sifting and no element movement. A push older than every lane tail opens
/// a new lane; past kMaxLanes it falls to a conventional binary-heap side
/// channel, so the structure is exact for arbitrary models, merely fastest
/// for the common monotone case.
///
/// Pop order is bitwise identical to sim::EventQueue's: seq numbers are
/// assigned in the same global push order, each lane head is its lane's
/// (time, seq) minimum by the monotone-append invariant, the heap top is the
/// side channel's minimum, and every pop takes the global minimum across
/// those candidates — the same strict total order on (time, seq) the 4-ary
/// heap pops in. The interp-vs-native property suite asserts this trace
/// identity on every scenario it generates.
class LaneQueue {
 public:
  static constexpr std::size_t kMaxLanes = 16;

  void clear() {
    // Lanes persist across runs (delay classes are structural, buffers keep
    // their capacity); only the contents and the FIFO counter reset.
    for (Lane& l : lanes_) {
      l.buf.clear();
      l.head = 0;
    }
    heap_.clear();
    next_seq_ = 0;
    live_ = 0;
  }
  void reserve(std::size_t n) { heap_.reserve(n); }
  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Hot path, forced inline into the generated emit/on_event code: scan the
  /// (few) lanes for one whose tail is not later than the new event — a
  /// drained lane accepts anything — and append. Lane creation and overflow
  /// drop to the cold out-of-line push_slow, keeping the inlined footprint
  /// small enough that the generated switch bodies stay in the I-cache. The
  /// new event carries the largest seq so far, so "tail not later" reduces
  /// to a tail-time comparison and the appended lane stays (time, seq)
  /// sorted.
  [[gnu::always_inline]] inline void push(sim::Time at, std::size_t block,
                                          std::size_t event_in) {
    const sim::ScheduledEvent ev{at, next_seq_++, block, event_in};
    ++live_;
    for (Lane& l : lanes_) {
      if (l.head == l.buf.size()) {
        l.buf.clear();  // window fully drained: restart the ring
        l.head = 0;
      } else if (later(l.buf.back(), ev)) {
        continue;  // appending here would break the lane's sortedness
      }
      l.buf.push_back(ev);
      return;
    }
    push_slow(ev);
  }

  /// Earliest pending event time; queue must be non-empty.
  sim::Time next_time() const {
    const sim::ScheduledEvent* best = nullptr;
    for (const Lane& l : lanes_) {
      if (l.head < l.buf.size()) {
        const sim::ScheduledEvent* h = &l.buf[l.head];
        if (best == nullptr || later(*best, *h)) best = h;
      }
    }
    if (!heap_.empty()) {
      const sim::ScheduledEvent* h = &heap_.front();
      if (best == nullptr || later(*best, *h)) best = h;
    }
    if (best == nullptr) throw std::logic_error("LaneQueue::next_time: empty");
    return best->time;
  }

  /// Remove the earliest pending event if its time is exactly `t`; one
  /// argmin scan, no element movement. Same contract as
  /// sim::EventQueue::pop_next_at: the driver drains one instant by calling
  /// this in a loop and dispatching each event as it pops; an event pushed
  /// mid-drain with a different time fails the exact == t check and waits
  /// for the next outer iteration.
  bool pop_next_at(sim::Time t, sim::ScheduledEvent& out) {
    Lane* best_lane = nullptr;
    const sim::ScheduledEvent* best = nullptr;
    for (Lane& l : lanes_) {
      if (l.head < l.buf.size()) {
        const sim::ScheduledEvent* h = &l.buf[l.head];
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

 private:
  struct Lane {
    std::size_t head = 0;  // buf[head..) is the live FIFO window
    std::vector<sim::ScheduledEvent> buf;
  };

  /// a should pop after b.
  static bool later(const sim::ScheduledEvent& a, const sim::ScheduledEvent& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
  struct Later {
    bool operator()(const sim::ScheduledEvent& a,
                    const sim::ScheduledEvent& b) const {
      return later(a, b);
    }
  };

  [[gnu::noinline]] void heap_push(const sim::ScheduledEvent& ev) {
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Cold: the event predates every lane tail — open a new run (or overflow
  /// to the heap past kMaxLanes).
  [[gnu::noinline]] void push_slow(const sim::ScheduledEvent& ev) {
    if (lanes_.size() < kMaxLanes) {
      lanes_.emplace_back();
      lanes_.back().buf.reserve(64);
      lanes_.back().buf.push_back(ev);
      return;
    }
    heap_push(ev);
  }

  std::vector<Lane> lanes_;
  std::vector<sim::ScheduledEvent> heap_;  // Later{} min-heap side channel
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
};

/// The layout half of a generated Program (sim::Driver's `layout()`),
/// served from the constexpr tables the generator emits as static members
/// of `P`: every accessor is a constant-foldable array view.
template <class P>
struct Tables {
  const Tables& layout() const { return *this; }

  static constexpr std::size_t arena_size() { return P::kArenaSize; }
  static constexpr std::size_t total_state() { return P::kTotalState; }
  static std::span<const std::size_t> eval_order() { return P::kEvalOrder; }
  static std::span<const std::size_t> dynamic_cone() {
    return P::kDynamicCone;
  }
  static std::span<const std::size_t> cone(std::size_t block) {
    return {P::kConeBlocks.data() + P::kConeBase[block],
            P::kConeBase[block + 1] - P::kConeBase[block]};
  }
  static std::span<const std::size_t> stateful_blocks() {
    return P::kStatefulBlocks;
  }
  static std::size_t state_offset(std::size_t block) {
    return P::kStateOffset[block];
  }
  static std::span<const sim::PortRef> event_sinks(std::size_t block,
                                                   std::size_t event_out) {
    const std::size_t slot = P::kSinkBase[block] + event_out;
    return {P::kSinks.data() + P::kSinkPtr[slot],
            P::kSinkPtr[slot + 1] - P::kSinkPtr[slot]};
  }
  static std::span<const char* const> block_names() { return P::kBlockNames; }
};

/// The engine of a generated module: the one sim::Driver loop over the
/// module's tables and kernels, on the LaneQueue.
template <class Program>
using Engine = sim::Driver<Program, LaneQueue>;

/// A module's whole run (what ecsim_native_run calls): read the block-
/// private values — a table that does not fit this module's shape fails the
/// run before anything is simulated — then drive the program once. Returns
/// the number of dispatched events.
template <class Program>
std::size_t run_program(const NativeRunOptions& o, sim::Trace& trace) {
  Program prog;
  ParamReader params(o.params, o.n_params);
  prog.load(params);
  params.finish();

  sim::SimOptions so;
  so.end_time = o.end_time;
  so.integrator.kind = static_cast<sim::IntegratorKind>(o.integrator_kind);
  so.integrator.max_step = o.max_step;
  so.integrator.rel_tol = o.rel_tol;
  so.integrator.abs_tol = o.abs_tol;
  so.integrator.min_step = o.min_step;
  so.seed = o.seed;
  so.max_events = o.max_events;
  so.full_refresh = o.full_refresh != 0;
  so.reserve_events = o.reserve_events;
  so.reserve_signals = o.reserve_signals;
  so.reserve_queue = o.reserve_queue;

  Engine<Program> engine(prog);
  engine.bind_trace(&trace);
  engine.init_obs(o.obs);
  engine.run(so);
  return engine.events_dispatched();
}

}  // namespace ecsim::backend::rt
