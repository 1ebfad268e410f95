// Simulator: executes a Model. Hybrid semantics following Scicos:
//  - event queue orders discrete activations (deterministic FIFO among ties);
//  - between event instants the packed continuous state is integrated, with
//    the combinational (direct-feedthrough) network re-evaluated at every
//    integration stage in topological order;
//  - at an event instant, pending events are dispatched one at a time and the
//    combinational network is refreshed after each, so zero-delay event
//    chains (the paper's graph of delays) see causally consistent values.
//
// The structural work (wiring resolution, arena layout, topological orders,
// re-evaluation cones) lives in CompiledModel; the Simulator owns only the
// run state (arena values, continuous state, event queue, trace). By default
// re-evaluation is *incremental*: after dispatching an event on block b only
// b's feedthrough cone is refreshed, and between events only the dynamic
// (time/state-dependent) cone is refreshed. SimOptions::full_refresh
// restores the whole-network sweep for A/B equivalence checking.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mathlib/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/block.hpp"
#include "sim/compiled_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/integrator.hpp"
#include "sim/model.hpp"
#include "sim/trace.hpp"

namespace ecsim::sim {

struct SimOptions {
  /// Simulated horizon: run() executes events and integration from t = 0
  /// until this instant (inclusive of events scheduled exactly at it).
  Time end_time = 1.0;
  /// Continuous-state integration (method, tolerances, step bounds) applied
  /// between event instants; see sim/integrator.hpp.
  IntegratorOptions integrator;
  /// Seed of the run's math::Rng (noise sources and other stochastic
  /// blocks). Identical seeds give bit-identical runs.
  std::uint64_t seed = 1;
  /// Hard cap on dispatched events; exceeding it aborts the run with an
  /// exception (guards against runaway zero-delay loops).
  std::size_t max_events = 20'000'000;
  /// Debug flag: re-evaluate the whole feedthrough network at every refresh
  /// point (the pre-compiled-core behaviour) instead of only the affected
  /// cone. The two paths must produce bit-identical traces; keeping the old
  /// sweep behind a flag makes that an assertable property.
  bool full_refresh = false;
  /// Trace capacity hints so long runs don't reallocate mid-trace. Size
  /// them from the horizon and activation periods (e.g. end_time / tick
  /// period x event fan-out). 0 keeps whatever capacity the trace has.
  std::size_t reserve_events = 0;
  std::size_t reserve_signals = 0;
  /// Event-queue capacity hint: upper bound on simultaneously *pending*
  /// events (typically the number of periodic sources x fan-out, not the
  /// total event count). 0 keeps whatever capacity the queue has.
  std::size_t reserve_queue = 0;
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

class Simulator : private ExecHost {
 public:
  /// Compiles the model (see CompiledModel for what that entails; throws on
  /// algebraic loops and width mismatches) and prepares a runner. The model
  /// must outlive the simulator and must not be structurally modified
  /// afterwards.
  explicit Simulator(Model& model, SimOptions opts = {});

  /// Run against an existing compile artifact (moved in). Lets callers
  /// compile once and build any number of runners from copies of the
  /// artifact without re-deriving orders and cones.
  Simulator(CompiledModel compiled, SimOptions opts = {});

  /// Run from t=0 to opts.end_time. May be called repeatedly; each call
  /// restarts from a clean initial state (blocks re-initialize).
  Trace& run();

  /// The recorded signals/events of the latest run (empty before the first).
  Trace& trace() { return trace_; }
  const Trace& trace() const { return trace_; }
  /// Current simulation time: end_time after a completed run().
  Time current_time() const { return time_; }
  /// Events dispatched by the latest run (also exported as the
  /// sim.events_dispatched counter when a MetricsRegistry is attached).
  std::size_t events_dispatched() const { return events_dispatched_; }

  /// Reseed the run Rng for the next run() without rebuilding the simulator
  /// (Monte Carlo drivers reuse one compiled engine across trials).
  void set_seed(std::uint64_t seed) { opts_.seed = seed; }

  /// Final (or current) value of a data output lane — test convenience.
  double output_value(const Block& b, std::size_t port,
                      std::size_t lane = 0) const;

  const Model& model() const { return compiled_.model(); }
  const CompiledModel& compiled() const { return compiled_; }

 private:
  void init_obs();
  void refresh_blocks(std::span<const std::size_t> order, Time t);
  /// Refresh everything whose value can have drifted since the last refresh:
  /// the full network under full_refresh, the dynamic cone otherwise.
  void refresh_dynamic(Time t);
  void evaluate_derivatives(Time t, const std::vector<double>& x,
                            std::vector<double>& dx);

  // Context backends (ExecHost).
  std::span<const double> ctx_input(std::size_t block,
                                    std::size_t port) const override;
  std::span<double> ctx_output(std::size_t block, std::size_t port) override;
  std::span<const double> ctx_state(std::size_t block) const override;
  std::span<double> ctx_state_mut(std::size_t block) override;
  void ctx_emit(std::size_t block, std::size_t event_out, Time at) override;
  void ctx_schedule_self(std::size_t block, std::size_t event_in,
                         Time at) override;
  math::Rng& ctx_rng() override { return rng_; }
  Trace& ctx_trace() override { return trace_; }

  CompiledModel compiled_;
  Model& model_;
  SimOptions opts_;
  math::Rng rng_;
  Trace trace_;
  EventQueue queue_;
  IntegratorWorkspace iws_;              // reused across inter-event intervals
  std::vector<ScheduledEvent> batch_;    // pop_simultaneous output, reused
  /// Same-instant lane: while the dispatcher is draining an instant
  /// (lane_active_), zero-delay emissions are appended here instead of
  /// round-tripping through the heap — the heap's ties at this instant were
  /// already fully drained, so append order equals the seq order the heap
  /// would have assigned. Drained to empty before sim time advances.
  std::vector<ScheduledEvent> lane_;
  bool lane_active_ = false;

  // Run state.
  std::vector<double> arena_;           // all output values (flat)
  Time time_ = 0.0;
  std::vector<double> x_;               // committed continuous state
  const double* active_x_ = nullptr;    // state viewed by blocks right now
  bool in_integration_ = false;
  std::size_t events_dispatched_ = 0;

  // Observability wiring: names interned and metric instruments resolved
  // once (init_obs), so the hot path touches only cached ids/pointers.
  // `tracing` is re-latched at every run() so enable toggles take effect.
  struct ObsHooks {
    bool tracing = false;
    std::uint32_t trk_runtime = 0;      // wall-clock spans
    std::uint32_t trk_events = 0;       // sim-time event instants
    std::uint32_t n_run = 0, n_integrate = 0, n_cone = 0, n_compile = 0;
    std::uint32_t a_cone_size = 0, a_port = 0;
    std::vector<std::uint32_t> block_names;
    obs::Counter* events = nullptr;
    obs::Counter* evals = nullptr;
    obs::Gauge* queue_hwm = nullptr;
    obs::Histogram* cone_sizes = nullptr;
    obs::Histogram* evals_per_block = nullptr;
    std::vector<std::uint64_t> per_block_evals;
  } obs_;
};

}  // namespace ecsim::sim
