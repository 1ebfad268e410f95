// Simulator: executes a Model. Hybrid semantics following Scicos:
//  - event queue orders discrete activations (deterministic FIFO among ties);
//  - between event instants the packed continuous state is integrated, with
//    the combinational (direct-feedthrough) network re-evaluated at every
//    integration stage in topological order;
//  - at an event instant, pending events are dispatched one at a time and the
//    combinational network is refreshed after each, so zero-delay event
//    chains (the paper's graph of delays) see causally consistent values.
//
// The loop itself is sim::Driver (sim/driver.hpp), the one event loop every
// scalar engine runs — generated native modules included. The Simulator is
// the driver's Program over a CompiledModel: the layout (wiring resolution,
// arena layout, topological orders, re-evaluation cones) comes from the
// compile artifact, and the four kernels call the Block virtuals through
// Context. By default re-evaluation is *incremental*: after
// dispatching an event on block b only b's feedthrough cone is refreshed,
// and between events only the dynamic (time/state-dependent) cone is
// refreshed. SimOptions::full_refresh restores the whole-network sweep for
// A/B equivalence checking.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/block.hpp"
#include "sim/compiled_model.hpp"
#include "sim/driver.hpp"
#include "sim/event_queue.hpp"
#include "sim/integrator.hpp"
#include "sim/model.hpp"
#include "sim/trace.hpp"

namespace ecsim::sim {

class Simulator {
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

  // The driver and every Context point back at this object.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Run from t=0 to opts.end_time. May be called repeatedly; each call
  /// restarts from a clean initial state (blocks re-initialize).
  Trace& run();

  /// The recorded signals/events of the latest run (empty before the first).
  Trace& trace() { return trace_; }
  const Trace& trace() const { return trace_; }
  /// Current simulation time: end_time after a completed run().
  Time current_time() const { return driver_.current_time(); }
  /// Events dispatched by the latest run (also exported as the
  /// sim.events_dispatched counter when a MetricsRegistry is attached).
  std::size_t events_dispatched() const { return driver_.events_dispatched(); }

  /// Reseed the run Rng for the next run() without rebuilding the simulator
  /// (Monte Carlo drivers reuse one compiled engine across trials).
  void set_seed(std::uint64_t seed) { opts_.seed = seed; }

  /// Final (or current) value of a data output lane — test convenience.
  double output_value(const Block& b, std::size_t port,
                      std::size_t lane = 0) const;

  const Model& model() const { return compiled_.model(); }
  const CompiledModel& compiled() const { return compiled_; }

 private:
  using Engine = Driver<Simulator, EventQueue>;
  friend Engine;
  friend class Context;  // resolves ports, state and emissions against us

  // The driver's Program: layout from the compile artifact, kernels through
  // the Block virtuals.
  const CompiledModel& layout() const { return compiled_; }
  void init(Engine& d);
  void compute(Engine& d, std::size_t b);
  void on_event(Engine& d, std::size_t b, std::size_t port);
  void derivatives(Engine& d, std::size_t b, double* dx);

  CompiledModel compiled_;
  Model& model_;
  SimOptions opts_;
  obs::NativeObsTable obs_table_;  // what the driver's hooks call through
  Trace trace_;
  Engine driver_;
};

}  // namespace ecsim::sim
