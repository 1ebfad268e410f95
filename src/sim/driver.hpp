// sim::Driver — the one event loop of the scalar engines (DESIGN.md §3.1).
//
// Both the interpreter (sim::Simulator over a CompiledModel and the Block
// virtuals) and every generated model module (backend::rt::Engine over the
// constexpr tables the code generator emits) run this loop, so "the native
// backend runs the interpreter's hybrid semantics" holds by construction:
//  - init: every block initializes, then one full sweep makes the outputs
//    consistent;
//  - between event instants the packed continuous state is integrated, the
//    dynamic cone refreshed at every integration stage;
//  - at an instant the queue is drained pop-by-pop in strict (time, seq)
//    order, each dispatch followed by a refresh of the target's feedthrough
//    cone; zero-delay emissions go to the same-instant lane, drained after
//    the queue's ties — exactly where one-at-a-time popping would put them.
//
// The `Program` policy supplies what differs between the engines:
//  - `layout()`: an object with arena_size(), total_state(), eval_order(),
//    dynamic_cone(), cone(b), stateful_blocks(), state_offset(b),
//    event_sinks(b, out) and block_names();
//  - four kernels taking the driver: init(d), compute(d, b),
//    on_event(d, b, port) and derivatives(d, b, dx).
// The event queue is the same for both: sim::EventQueue (FIFO lanes plus a
// heap side channel, sim/event_queue.hpp).
//
// Telemetry flows through one obs::NativeObsTable (obs/obs_table.hpp) for
// both engines, latched once by init_obs(): per-run span, integration
// segments, cone-refresh spans, per-event instants, and the events / evals /
// queue-high-water / cone-size / evals-per-block instruments. A null table
// costs one pointer test per hook.
//
// Generated modules include this header, so it must stay light: no
// obs/tracer.hpp, sim/block.hpp or sim/compiled_model.hpp.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/obs_table.hpp"
#include "sim/event_queue.hpp"
#include "sim/integrator.hpp"
#include "sim/port.hpp"
#include "sim/trace.hpp"

namespace ecsim::sim {

struct SimOptions {
  /// Simulated horizon: run() executes events and integration from t = 0
  /// until this instant (inclusive of events scheduled exactly at it).
  Time end_time = 1.0;
  /// Continuous-state integration (method, tolerances, step bounds) applied
  /// between event instants; see sim/integrator.hpp.
  IntegratorOptions integrator;
  /// Root of every random block's keyed draws (math::keyed_rng(seed, key,
  /// k)): noise sources and sampled durations. Identical seeds give
  /// bit-identical runs.
  std::uint64_t seed = 1;
  /// Hard cap on dispatched events; exceeding it aborts the run with an
  /// exception (guards against runaway zero-delay loops).
  std::size_t max_events = 20'000'000;
  /// Debug flag: re-evaluate the whole feedthrough network at every refresh
  /// point (the pre-compiled-core behaviour) instead of only the affected
  /// cone. The two paths must produce bit-identical traces; keeping the old
  /// sweep behind a flag makes that an assertable property.
  bool full_refresh = false;
  /// Observability (both borrowed, may be null; see DESIGN.md §3.2). The
  /// tracer receives wall-clock spans (compile, integration segments, cone
  /// refreshes) and sim-time instants (event dispatches, incl. S/H
  /// activations); the registry receives counters/gauges/histograms
  /// (sim.events_dispatched, sim.eval_calls, sim.cone_refresh_size,
  /// sim.queue_high_water, sim.eval_calls_per_block). A null pointer costs
  /// one branch on the hot path.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

template <class Program>
class Driver {
 public:
  explicit Driver(Program& prog)
      : prog_(&prog), arena_(prog.layout().arena_size(), 0.0) {}

  /// The trace to record into (borrowed). run() clears it (names survive).
  void bind_trace(Trace* t) { trace_ = t; }

  /// Resolves tracks, names and instruments through `tab` (borrowed, may be
  /// null) in a fixed order, so an instrumented interpreter run and an
  /// instrumented module run intern the same strings in the same order.
  void init_obs(const obs::NativeObsTable* tab) {
    obs_ = ObsHooks{};
    obs_.tab = tab;
#ifndef ECSIM_OBS_DISABLED
    if (tab == nullptr) return;
    if (void* t = tab->tracer; t != nullptr) {
      obs_.trk_runtime = tab->track(t, "runtime/sim", 0);  // Domain::kWall
      obs_.trk_events = tab->track(t, "sim/events", 1);    // Domain::kSim
      obs_.n_run = tab->intern(t, "sim.run");
      obs_.n_integrate = tab->intern(t, "sim.integrate");
      obs_.n_cone = tab->intern(t, "sim.cone_refresh");
      obs_.a_cone_size = tab->intern(t, "cone_size");
      obs_.a_port = tab->intern(t, "event_in");
      for (const auto& name : prog_->layout().block_names()) {
        obs_.block_names.push_back(tab->intern(t, c_str(name)));
      }
    }
    if (void* m = tab->metrics; m != nullptr) {
      obs_.events = tab->counter(m, "sim.events_dispatched");
      obs_.evals = tab->counter(m, "sim.eval_calls");
      obs_.queue_hwm = tab->gauge(m, "sim.queue_high_water");
      obs_.cone_sizes = tab->histogram(m, "sim.cone_refresh_size");
      obs_.evals_per_block = tab->histogram(m, "sim.eval_calls_per_block");
      obs_.per_block_evals.assign(prog_->layout().block_names().size(), 0);
    }
#endif
  }

  /// Run from t = 0 to o.end_time from a clean initial state. The tracer
  /// and metrics members of `o` are ignored: telemetry goes through the
  /// table given to init_obs().
  void run(const SimOptions& o) {
    const auto& lay = prog_->layout();
    const obs::NativeObsTable* const tab = obs_.tab;
    // Latch tracing for this run (enable toggles take effect per run).
    obs_.tracing = tab != nullptr && tab->tracer != nullptr &&
                   tab->tracer_enabled(tab->tracer) != 0;
    // Wall-clock span around the whole run, recorded on scope exit (also
    // when a dispatch throws), after the per-block eval flush.
    struct RunSpan {
      const ObsHooks& h;
      double t0;
      ~RunSpan() {
        if (h.tracing) {
          h.tab->span(h.tab->tracer, h.n_run, h.trk_runtime, t0,
                      h.tab->now_us(h.tab->tracer), obs::kNativeObsNoArg, 0.0);
        }
      }
    } run_span{obs_, obs_.tracing ? tab->now_us(tab->tracer) : 0.0};

    // Reset run state (same seed => same realization).
    seed_ = o.seed;
    time_ = 0.0;
    x_.assign(lay.total_state(), 0.0);
    active_x_ = x_.data();
    integrating_ = false;
    queue_.clear();
    lane_.clear();
    lane_active_ = false;
    iws_.resize(lay.total_state());
    trace_->clear();
    events_dispatched_ = 0;
    std::fill(arena_.begin(), arena_.end(), 0.0);
    full_refresh_ = o.full_refresh;
    max_events_ = o.max_events;

    // Initialize every block (may write state/outputs and schedule events),
    // then establish output consistency with one full sweep. From here on
    // only the blocks whose value sources changed are refreshed.
    eval_time_ = 0.0;
    prog_->init(*this);
    refresh_blocks(lay.eval_order(), 0.0);

    const Time t_end = o.end_time;
    while (true) {
      Time t_next = t_end;
      bool have_event = false;
      if (!queue_.empty() && queue_.next_time() <= t_end) {
        t_next = queue_.next_time();
        have_event = true;
      }
      if (t_next > time_) {
        if (lay.total_state() > 0) {
          const double span_t0 =
              obs_.tracing ? tab->now_us(tab->tracer) : 0.0;
          integrating_ = true;
          integrate(
              o.integrator,
              [this](Time t, const std::vector<double>& x,
                     std::vector<double>& dx) { derivatives(t, x, dx); },
              time_, t_next, x_, iws_);
          integrating_ = false;
          active_x_ = x_.data();
          if (obs_.tracing) {
            tab->span(tab->tracer, obs_.n_integrate, obs_.trk_runtime,
                      span_t0, tab->now_us(tab->tracer), obs::kNativeObsNoArg,
                      0.0);
          }
        }
        time_ = t_next;
        refresh_dynamic(time_);
      }
      if (!have_event) break;
      // High-water mark of *pending* events, read once per instant before
      // the drain (the same-instant lane is empty here).
      if (obs_.queue_hwm != nullptr) {
        tab->gauge_max(obs_.queue_hwm, queue_.size());
      }
      // Drain the instant pop-by-pop. Same-instant cascades emitted during
      // dispatch land in lane_, never the queue, so the == time_ drain sees
      // exactly the original tie set; the lane follows, in append order
      // (the seq order the queue would have given them). Index loop: a
      // dispatch may append to — and reallocate — the lane.
      lane_active_ = true;
      ScheduledEvent ev;
      while (queue_.pop_next_at(time_, ev)) dispatch(ev);
      for (std::size_t i = 0; i < lane_.size(); ++i) {
        const ScheduledEvent e = lane_[i];
        dispatch(e);
      }
      lane_.clear();
      lane_active_ = false;
    }
    if (obs_.evals_per_block != nullptr) {
      // Distribution of eval calls across blocks for this run (hot blocks
      // sit in the top buckets); per-run counts then reset.
      for (std::uint64_t& n : obs_.per_block_evals) {
        if (n > 0) {
          tab->histogram_observe(obs_.evals_per_block, static_cast<double>(n));
        }
        n = 0;
      }
    }
  }

  /// Events dispatched by the latest run.
  std::size_t events_dispatched() const { return events_dispatched_; }
  /// Simulation time: end_time after a completed run().
  Time current_time() const { return time_; }

  // ---- services for the Program's kernels ---------------------------------

  double* arena() { return arena_.data(); }
  const double* arena() const { return arena_.data(); }
  /// Time of the evaluation in progress (the kernels' "now").
  Time time() const { return eval_time_; }
  /// The run's seed (SimOptions::seed).
  std::uint64_t seed() const { return seed_; }
  Trace& trace() { return *trace_; }
  /// Continuous state as blocks see it right now (an integration stage's
  /// trial state while integrating, the committed state otherwise).
  const double* state(std::size_t offset) const { return active_x_ + offset; }
  /// Committed continuous state, for discrete jumps in init/on_event.
  double* state_mut(std::size_t offset) { return x_.data() + offset; }
  bool integrating() const { return integrating_; }

  /// Deliver event output `event_out` of `block` to its sinks at `at`.
  void emit_at(std::size_t block, std::size_t event_out, Time at) {
    const std::span<const PortRef> sinks =
        prog_->layout().event_sinks(block, event_out);
    if (lane_active_ && at == time_) {
      for (const PortRef& s : sinks) {
        lane_.push_back(ScheduledEvent{at, 0, s.block, s.port});
      }
      return;
    }
    for (const PortRef& s : sinks) queue_.push(at, s.block, s.port);
  }

  /// Activate `block`'s own event input `event_in` at `at`.
  void schedule_at(std::size_t block, std::size_t event_in, Time at) {
    if (lane_active_ && at == time_) {
      lane_.push_back(ScheduledEvent{at, 0, block, event_in});
      return;
    }
    queue_.push(at, block, event_in);
  }

  /// The same, `delay` after the evaluation in progress (generated kernels).
  void emit(std::size_t block, std::size_t event_out, Time delay) {
    emit_at(block, event_out, eval_time_ + delay);
  }
  void schedule_self(std::size_t block, std::size_t event_in, Time delay) {
    schedule_at(block, event_in, eval_time_ + delay);
  }

 private:
  static const char* c_str(const char* s) { return s; }
  static const char* c_str(const std::string& s) { return s.c_str(); }

  void refresh_blocks(std::span<const std::size_t> order, Time t) {
    eval_time_ = t;
    for (std::size_t b : order) prog_->compute(*this, b);
    if (obs_.evals != nullptr) {
      obs_.tab->counter_add(obs_.evals, order.size());
      for (std::size_t b : order) ++obs_.per_block_evals[b];
    }
  }

  /// Refresh everything whose value can have drifted since the last
  /// refresh: the full network under full_refresh, the dynamic cone
  /// otherwise.
  void refresh_dynamic(Time t) {
    const auto& lay = prog_->layout();
    using Order = std::span<const std::size_t>;
    refresh_blocks(full_refresh_ ? Order(lay.eval_order())
                                 : Order(lay.dynamic_cone()),
                   t);
  }

  void derivatives(Time t, const std::vector<double>& x,
                   std::vector<double>& dx) {
    const auto& lay = prog_->layout();
    active_x_ = x.data();
    refresh_dynamic(t);
    std::fill(dx.begin(), dx.end(), 0.0);
    for (std::size_t b : lay.stateful_blocks()) {
      prog_->derivatives(*this, b, dx.data() + lay.state_offset(b));
    }
  }

  void dispatch(const ScheduledEvent& e) {
    const obs::NativeObsTable* const tab = obs_.tab;
    trace_->record_event(e.time, e.block, e.event_in);
    if (obs_.tracing) {
      // Sim-domain instant (seconds -> microseconds, obs::sim_us).
      tab->instant(tab->tracer, obs_.block_names[e.block], obs_.trk_events,
                   e.time * 1e6, obs_.a_port, static_cast<double>(e.event_in));
    }
    if (obs_.events != nullptr) tab->counter_add(obs_.events, 1);
    eval_time_ = e.time;
    prog_->on_event(*this, e.block, e.event_in);
    const std::span<const std::size_t> cone =
        full_refresh_
            ? std::span<const std::size_t>(prog_->layout().eval_order())
            : prog_->layout().cone(e.block);
    if (obs_.tracing) {
      // Traced runs refresh even empty cones inside the span.
      const double span_t0 = tab->now_us(tab->tracer);
      refresh_blocks(cone, time_);
      tab->span(tab->tracer, obs_.n_cone, obs_.trk_runtime, span_t0,
                tab->now_us(tab->tracer), obs_.a_cone_size,
                static_cast<double>(cone.size()));
    } else if (!cone.empty()) {
      // Empty cones (pure event-plumbing blocks) skip the call outright —
      // observably identical, and most events in delay-chain workloads
      // have nothing to refresh.
      refresh_blocks(cone, time_);
    }
    if (obs_.cone_sizes != nullptr) {
      tab->histogram_observe(obs_.cone_sizes, static_cast<double>(cone.size()));
    }
    if (++events_dispatched_ > max_events_) {
      throw std::runtime_error(
          "Simulator: max_events exceeded (runaway loop?)");
    }
  }

  // Telemetry wiring: ids and opaque instrument handles resolved once
  // (init_obs), so the hot path touches only cached ids and null tests.
  struct ObsHooks {
    const obs::NativeObsTable* tab = nullptr;
    bool tracing = false;             // latched per run
    void* events = nullptr;           // Counter: sim.events_dispatched
    void* evals = nullptr;            // Counter: sim.eval_calls
    void* queue_hwm = nullptr;        // Gauge: sim.queue_high_water
    void* cone_sizes = nullptr;       // Histogram: sim.cone_refresh_size
    void* evals_per_block = nullptr;  // Histogram: sim.eval_calls_per_block
    std::uint32_t trk_runtime = 0;    // wall-clock spans
    std::uint32_t trk_events = 0;     // sim-time event instants
    std::uint32_t n_run = 0, n_integrate = 0, n_cone = 0;
    std::uint32_t a_cone_size = 0, a_port = 0;
    std::vector<std::uint32_t> block_names;
    std::vector<std::uint64_t> per_block_evals;
  };

  // Members the per-stage and per-event paths touch come first, so they
  // share the object's first cache lines (with them placed after the queue
  // and the integrator workspace, a generated servo module ran ~9% slower).
  Program* prog_;
  std::vector<double> arena_;
  Time time_ = 0.0;       // simulation time
  Time eval_time_ = 0.0;  // time of the evaluation in progress
  const double* active_x_ = nullptr;    // state viewed by blocks right now
  std::vector<double> x_;               // committed continuous state
  bool lane_active_ = false;
  bool full_refresh_ = false;
  bool integrating_ = false;
  std::size_t max_events_ = 0;
  std::size_t events_dispatched_ = 0;
  ObsHooks obs_;
  std::vector<ScheduledEvent> lane_;
  Trace* trace_ = nullptr;
  EventQueue queue_;
  std::uint64_t seed_ = 1;
  IntegratorWorkspace iws_;
};

}  // namespace ecsim::sim
