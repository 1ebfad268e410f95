// Shared runtime for generated model modules (DESIGN.md §3.6). A generated
// .cpp defines a `Program` — per-block parameters/state as members, the
// layout tables from ir::LayoutIr as static constexpr arrays, a load() that
// fills the parameter members from the host's parameter table (ABI v3), and
// four specialized entry points (init / compute / on_event / derivatives
// with literal arena offsets) — and instantiates Engine<Program>.
//
// Engine::run() is a line-by-line port of sim::Simulator::run() with the
// legacy_* bench baselines removed (the dispatcher falls back to the
// interpreter whenever those are requested). The observability hooks are
// ported too (ABI v2): telemetry flows through the NativeRunOptions::obs
// callback table at the exact points the interpreter instruments — per-run
// span, integration segments, cone-refresh spans, per-event instants,
// events/evals/queue-high-water/cone-size/evals-per-block metrics — so an
// instrumented native run produces the same sim-domain trace records and
// the same metrics values as an instrumented interpreter run. A null table
// (or a disabled tracer) keeps the hot path at one pointer test per hook,
// the same cost model as the interpreter's null/disabled instruments.
// Everything order-sensitive is either shared (the same same-instant lane,
// the same sim::integrate() stepping the same workspace, the same math::Rng
// and the same sim::Trace recording — unity-compiled into the module from
// the interpreter's own sources) or order-equivalent by construction: the
// event queue is the LaneQueue below, which pops the identical strict
// (time, seq) total order sim::EventQueue pops, just without the heap. A
// native run is therefore bit-identical to an interpreter run of the same
// IR: identical event sequences, identical RNG draw order, identical
// doubles in the trace (asserted by the interp-vs-native property suite).
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
#include "sim/event_queue.hpp"
#include "sim/integrator.hpp"
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

/// Event queue specialized for generated modules. Engine::emit/schedule_self
/// compute an event's time as `eval_time_ + delay` where eval_time_ never
/// decreases across pushes and each call site's delay is (nearly) constant,
/// so the push stream decomposes into a handful of non-decreasing runs. The
/// queue exploits that: it keeps a few FIFO lanes, appends each push to the
/// first lane whose tail is not later than the new event (patience-style run
/// decomposition — every lane stays sorted in (time, seq) by construction,
/// no matter how call-site delays round), and pops the minimum among the
/// lane heads: O(lanes) push and pop with no sifting and no element
/// movement. A push older than every lane tail opens a new lane; past
/// kMaxLanes it falls to a conventional binary-heap side channel, so the
/// structure is exact for arbitrary models, merely fastest for the common
/// monotone case.
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
  /// argmin scan, no element movement. The engine drains one instant by
  /// calling this in a loop and dispatching each event as it pops — the
  /// same (time, seq) sequence sim::EventQueue::pop_simultaneous batches
  /// up, minus the copy into a batch vector. An event pushed mid-drain
  /// with a different time fails the exact == t check and waits for the
  /// next outer engine iteration, exactly as it would miss the batch.
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

template <class Program>
class Engine {
 public:
  Engine() : arena_(Program::kArenaSize, 0.0) {}

  /// The trace to record into (borrowed; typically the host's). run()
  /// clears it (names survive) and fills it exactly as the interpreter
  /// would.
  void bind_trace(sim::Trace* t) { trace_ = t; }

  void run(const NativeRunOptions& o) {
    // Block-private values first (ABI v3): a table that does not fit this
    // module's shape fails the run before anything is simulated.
    ParamReader params(o.params, o.n_params);
    prog_.load(params);
    params.finish();

    // Latch observability for this run: ids and instrument handles resolved
    // once (mirror of Simulator::init_obs + the per-run tracing latch), so
    // the hot paths below touch only cached ids and one-branch null tests.
    init_obs(o.obs);
    const double run_t0 =
        obs_.tracing ? obs_.tab->now_us(obs_.tab->tracer) : 0.0;
    // Wall-clock span around the whole run (recorded on scope exit, after
    // the per-block eval flush — same order as the interpreter's RAII span).
    struct RunSpan {
      Engine* e;
      double t0;
      ~RunSpan() {
        if (e->obs_.tracing) {
          const NativeObsTable* tab = e->obs_.tab;
          tab->span(tab->tracer, e->obs_.n_run, e->obs_.trk_runtime, t0,
                    tab->now_us(tab->tracer), kNativeObsNoArg, 0.0);
        }
      }
    } run_span{this, run_t0};

    // Reset run state (including the RNG: same seed => same realization).
    rng_ = math::Rng(o.seed);
    time_ = 0.0;
    x_.assign(Program::kTotalState, 0.0);
    active_x_ = x_.data();
    queue_.clear();
    lane_.clear();
    lane_active_ = false;
    if (o.reserve_queue > 0) queue_.reserve(o.reserve_queue);
    iws_.resize(Program::kTotalState);
    trace_->clear();
    trace_->reserve(o.reserve_events, o.reserve_signals);
    events_dispatched_ = 0;
    std::fill(arena_.begin(), arena_.end(), 0.0);
    full_refresh_ = o.full_refresh != 0;

    sim::IntegratorOptions integ;
    integ.kind = static_cast<sim::IntegratorKind>(o.integrator_kind);
    integ.max_step = o.max_step;
    integ.rel_tol = o.rel_tol;
    integ.abs_tol = o.abs_tol;
    integ.min_step = o.min_step;

    // Initialize every block (may write state/outputs and schedule events),
    // then establish output consistency with one full sweep.
    eval_time_ = 0.0;
    prog_.init(*this);
    refresh_blocks(order_span(Program::kEvalOrder), 0.0);

    const double t_end = o.end_time;
    const std::size_t max_events = o.max_events;
    while (true) {
      double t_next = t_end;
      bool have_event = false;
      if (!queue_.empty() && queue_.next_time() <= t_end) {
        t_next = queue_.next_time();
        have_event = true;
      }
      if (t_next > time_) {
        if constexpr (Program::kTotalState > 0) {
          const double span_t0 =
              obs_.tracing ? obs_.tab->now_us(obs_.tab->tracer) : 0.0;
          sim::integrate(
              integ,
              [this](double t, const std::vector<double>& x,
                     std::vector<double>& dx) {
                evaluate_derivatives(t, x, dx);
              },
              time_, t_next, x_, iws_);
          active_x_ = x_.data();
          if (obs_.tracing) {
            const NativeObsTable* tab = obs_.tab;
            tab->span(tab->tracer, obs_.n_integrate, obs_.trk_runtime,
                      span_t0, tab->now_us(tab->tracer), kNativeObsNoArg,
                      0.0);
          }
        }
        time_ = t_next;
        refresh_dynamic(time_);
      }
      if (!have_event) break;
      // High-water mark of *pending* events, read once per instant before
      // the drain (the same-instant lane is empty here) — the same point the
      // interpreter samples queue_.size().
      if (obs_.queue_hwm != nullptr) {
        obs_.tab->gauge_max(obs_.queue_hwm, queue_.size());
      }
      lane_active_ = true;
      // Drain the instant pop-by-pop: same (time, seq) order the
      // interpreter's batched pop_simultaneous dispatches in, without
      // copying the tie set into a batch vector first. Same-instant
      // cascades emitted during dispatch land in lane_, never the queue,
      // so the == time_ drain sees exactly the original tie set.
      sim::ScheduledEvent ev;
      while (queue_.pop_next_at(time_, ev)) {
        dispatch_one(ev, max_events);
      }
      // Zero-delay cascades landed in the lane instead of the heap; index
      // loop because a dispatch may append (and reallocate) while we drain.
      for (std::size_t i = 0; i < lane_.size(); ++i) {
        const sim::ScheduledEvent e = lane_[i];
        dispatch_one(e, max_events);
      }
      lane_.clear();
      lane_active_ = false;
    }
    if (obs_.evals_per_block != nullptr) {
      // Distribution of eval calls across blocks for this run (hot blocks
      // sit in the top buckets); per-run counts then reset.
      for (std::uint64_t& n : obs_.per_block_evals) {
        if (n > 0) {
          obs_.tab->histogram_observe(obs_.evals_per_block,
                                      static_cast<double>(n));
        }
        n = 0;
      }
    }
  }

  std::size_t events_dispatched() const { return events_dispatched_; }

  // ---- services for generated kernels (the Context replacements) ----------

  double* arena() { return arena_.data(); }
  double time() const { return eval_time_; }
  math::Rng& rng() { return rng_; }
  sim::Trace& trace() { return *trace_; }
  const double* state(std::size_t offset) const { return active_x_ + offset; }
  double* state_mut(std::size_t offset) { return x_.data() + offset; }

  void emit(std::size_t block, std::size_t event_out, double delay) {
    const double at = eval_time_ + delay;
    const std::size_t slot = Program::kSinkBase[block] + event_out;
    const std::size_t lo = Program::kSinkPtr[slot];
    const std::size_t hi = Program::kSinkPtr[slot + 1];
    if (lane_active_ && at == time_) {
      for (std::size_t s = lo; s < hi; ++s) {
        lane_.push_back(sim::ScheduledEvent{at, 0, Program::kSinkBlock[s],
                                            Program::kSinkPort[s]});
      }
      return;
    }
    for (std::size_t s = lo; s < hi; ++s) {
      queue_.push(at, Program::kSinkBlock[s], Program::kSinkPort[s]);
    }
  }

  void schedule_self(std::size_t block, std::size_t event_in, double delay) {
    const double at = eval_time_ + delay;
    if (lane_active_ && at == time_) {
      lane_.push_back(sim::ScheduledEvent{at, 0, block, event_in});
      return;
    }
    queue_.push(at, block, event_in);
  }

 private:
  template <class Arr>
  static std::span<const std::size_t> order_span(const Arr& a) {
    return std::span<const std::size_t>(a.data(), a.size());
  }

  std::span<const std::size_t> cone(std::size_t block) const {
    return {Program::kConeBlocks.data() + Program::kConeBase[block],
            Program::kConeBase[block + 1] - Program::kConeBase[block]};
  }

  void refresh_blocks(std::span<const std::size_t> order, double t) {
    eval_time_ = t;
    for (std::size_t b : order) prog_.compute(*this, b);
    if (obs_.evals != nullptr) {
      obs_.tab->counter_add(obs_.evals, order.size());
      for (std::size_t b : order) ++obs_.per_block_evals[b];
    }
  }

  void refresh_dynamic(double t) {
    refresh_blocks(full_refresh_ ? order_span(Program::kEvalOrder)
                                 : order_span(Program::kDynamicCone),
                   t);
  }

  void evaluate_derivatives(double t, const std::vector<double>& x,
                            std::vector<double>& dx) {
    active_x_ = x.data();
    refresh_dynamic(t);
    std::fill(dx.begin(), dx.end(), 0.0);
    for (std::size_t b : Program::kStatefulBlocks) {
      prog_.derivatives(*this, b, dx.data() + Program::kStateOffset[b]);
    }
  }

  void dispatch_one(const sim::ScheduledEvent& e, std::size_t max_events) {
    trace_->record_event(e.time, e.block, e.event_in);
    if (obs_.tracing) {
      const NativeObsTable* tab = obs_.tab;
      // Sim-domain instant (seconds -> microseconds, obs::sim_us).
      tab->instant(tab->tracer, obs_.block_names[e.block], obs_.trk_events,
                   e.time * 1e6, obs_.a_port,
                   static_cast<double>(e.event_in));
    }
    if (obs_.events != nullptr) obs_.tab->counter_add(obs_.events, 1);
    eval_time_ = e.time;
    prog_.on_event(*this, e.block, e.event_in);
    const std::span<const std::size_t> c =
        full_refresh_ ? order_span(Program::kEvalOrder) : cone(e.block);
    if (obs_.tracing) {
      // Traced runs refresh even empty cones inside the span, exactly as
      // the interpreter's traced path does (a semantic no-op either way).
      const NativeObsTable* tab = obs_.tab;
      const double span_t0 = tab->now_us(tab->tracer);
      refresh_blocks(c, time_);
      tab->span(tab->tracer, obs_.n_cone, obs_.trk_runtime, span_t0,
                tab->now_us(tab->tracer), obs_.a_cone_size,
                static_cast<double>(c.size()));
    } else if (!c.empty()) {
      // Empty cones (pure event-plumbing blocks) skip the refresh outright —
      // same condition as the interpreter's non-traced hot path.
      refresh_blocks(c, time_);
    }
    if (obs_.cone_sizes != nullptr) {
      obs_.tab->histogram_observe(obs_.cone_sizes,
                                  static_cast<double>(c.size()));
    }
    if (++events_dispatched_ > max_events) {
      throw std::runtime_error(
          "Simulator: max_events exceeded (runaway loop?)");
    }
  }

  /// Mirror of Simulator::init_obs, resolved through the ABI v2 callback
  /// table: tracks, names and instrument handles are looked up once per run
  /// (interning is idempotent on the host side) in the same order the
  /// interpreter interns them, so resolved name/track strings line up
  /// between an instrumented interpreter run and an instrumented native run.
  void init_obs(const NativeObsTable* tab) {
    obs_.tab = tab;
    obs_.tracing = false;
    obs_.events = nullptr;
    obs_.evals = nullptr;
    obs_.queue_hwm = nullptr;
    obs_.cone_sizes = nullptr;
    obs_.evals_per_block = nullptr;
#ifndef ECSIM_OBS_DISABLED
    if (tab == nullptr) return;
    if (void* t = tab->tracer; t != nullptr) {
      obs_.tracing = tab->tracer_enabled(t) != 0;
      obs_.trk_runtime = tab->track(t, "runtime/sim", 0);  // Domain::kWall
      obs_.trk_events = tab->track(t, "sim/events", 1);    // Domain::kSim
      obs_.n_run = tab->intern(t, "sim.run");
      obs_.n_integrate = tab->intern(t, "sim.integrate");
      obs_.n_cone = tab->intern(t, "sim.cone_refresh");
      obs_.a_cone_size = tab->intern(t, "cone_size");
      obs_.a_port = tab->intern(t, "event_in");
      obs_.block_names.clear();
      obs_.block_names.reserve(Program::kBlockNames.size());
      for (const char* name : Program::kBlockNames) {
        obs_.block_names.push_back(tab->intern(t, name));
      }
    }
    if (void* m = tab->metrics; m != nullptr) {
      obs_.events = tab->counter(m, "sim.events_dispatched");
      obs_.evals = tab->counter(m, "sim.eval_calls");
      obs_.queue_hwm = tab->gauge(m, "sim.queue_high_water");
      obs_.cone_sizes = tab->histogram(m, "sim.cone_refresh_size");
      obs_.evals_per_block = tab->histogram(m, "sim.eval_calls_per_block");
      obs_.per_block_evals.assign(Program::kBlockNames.size(), 0);
    }
#endif
  }

  Program prog_;
  math::Rng rng_{1};
  sim::Trace* trace_ = nullptr;
  LaneQueue queue_;
  sim::IntegratorWorkspace iws_;
  std::vector<sim::ScheduledEvent> lane_;
  bool lane_active_ = false;
  bool full_refresh_ = false;

  std::vector<double> arena_;
  double time_ = 0.0;
  double eval_time_ = 0.0;
  std::vector<double> x_;
  const double* active_x_ = nullptr;
  std::size_t events_dispatched_ = 0;

  // Observability wiring (mirror of Simulator's ObsHooks): cached ids and
  // opaque host-side instrument handles; `tracing` is latched per run.
  struct ObsHooks {
    const NativeObsTable* tab = nullptr;
    bool tracing = false;
    std::uint32_t trk_runtime = 0;  // wall-clock spans
    std::uint32_t trk_events = 0;   // sim-time event instants
    std::uint32_t n_run = 0, n_integrate = 0, n_cone = 0;
    std::uint32_t a_cone_size = 0, a_port = 0;
    std::vector<std::uint32_t> block_names;
    void* events = nullptr;           // Counter: sim.events_dispatched
    void* evals = nullptr;            // Counter: sim.eval_calls
    void* queue_hwm = nullptr;        // Gauge: sim.queue_high_water
    void* cone_sizes = nullptr;       // Histogram: sim.cone_refresh_size
    void* evals_per_block = nullptr;  // Histogram: sim.eval_calls_per_block
    std::vector<std::uint64_t> per_block_evals;
  } obs_;
};

}  // namespace ecsim::backend::rt
