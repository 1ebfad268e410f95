#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ecsim::sim {

// ---- Context methods (declared in block.hpp) --------------------------------

std::span<const double> Context::input(std::size_t port) const {
  return host_->ctx_input(block_, port);
}

std::span<double> Context::output(std::size_t port) {
  return host_->ctx_output(block_, port);
}

std::span<const double> Context::state() const {
  return host_->ctx_state(block_);
}

std::span<double> Context::state_mut() { return host_->ctx_state_mut(block_); }

void Context::emit(std::size_t event_out, Time delay) {
  if (!in_event_) {
    throw std::logic_error(
        "Context::emit: events may only be emitted from initialize()/on_event()");
  }
  if (delay < 0.0) throw std::invalid_argument("Context::emit: negative delay");
  host_->ctx_emit(block_, event_out, time_ + delay);
}

void Context::schedule_self(std::size_t event_in, Time delay) {
  if (!in_event_) {
    throw std::logic_error(
        "Context::schedule_self: only from initialize()/on_event()");
  }
  if (delay < 0.0) {
    throw std::invalid_argument("Context::schedule_self: negative delay");
  }
  host_->ctx_schedule_self(block_, event_in, time_ + delay);
}

math::Rng& Context::rng() { return host_->ctx_rng(); }

Trace& Context::trace() { return host_->ctx_trace(); }

// ---- Simulator ---------------------------------------------------------------

namespace {

// Wrap the compile in a wall-clock span (the span closes after the compile
// artifact is constructed, before the delegated constructor runs).
CompiledModel compile_traced(Model& model, const SimOptions& opts) {
  obs::ScopedSpan span(opts.tracer, "sim.compile", obs::Domain::kWall,
                       "runtime/sim");
  return CompiledModel(model);
}

}  // namespace

Simulator::Simulator(Model& model, SimOptions opts)
    : Simulator(compile_traced(model, opts), opts) {}

Simulator::Simulator(CompiledModel compiled, SimOptions opts)
    : compiled_(std::move(compiled)),
      model_(compiled_.model()),
      opts_(opts),
      rng_(opts.seed),
      arena_(compiled_.arena_size(), 0.0) {
  trace_.register_block_names(compiled_.block_names());
  init_obs();
}

void Simulator::init_obs() {
#ifdef ECSIM_OBS_DISABLED
  return;
#else
  if (obs::Tracer* t = opts_.tracer; t != nullptr) {
    obs_.trk_runtime = t->track("runtime/sim", obs::Domain::kWall);
    obs_.trk_events = t->track("sim/events", obs::Domain::kSim);
    obs_.n_run = t->intern("sim.run");
    obs_.n_integrate = t->intern("sim.integrate");
    obs_.n_cone = t->intern("sim.cone_refresh");
    obs_.a_cone_size = t->intern("cone_size");
    obs_.a_port = t->intern("event_in");
    obs_.block_names.reserve(compiled_.num_blocks());
    for (const std::string& name : compiled_.block_names()) {
      obs_.block_names.push_back(t->intern(name));
    }
  }
  if (obs::MetricsRegistry* m = opts_.metrics; m != nullptr) {
    obs_.events = &m->counter("sim.events_dispatched");
    obs_.evals = &m->counter("sim.eval_calls");
    obs_.queue_hwm = &m->gauge("sim.queue_high_water");
    obs_.cone_sizes = &m->histogram("sim.cone_refresh_size");
    obs_.evals_per_block = &m->histogram("sim.eval_calls_per_block");
    obs_.per_block_evals.assign(compiled_.num_blocks(), 0);
  }
#endif
}

std::span<const double> Simulator::ctx_input(std::size_t block,
                                             std::size_t port) const {
  const ArenaSlice s = compiled_.input_slice(block, port);
  return std::span<const double>(arena_.data() + s.offset, s.width);
}

std::span<double> Simulator::ctx_output(std::size_t block, std::size_t port) {
  const ArenaSlice s = compiled_.output_slice(block, port);
  return std::span<double>(arena_.data() + s.offset, s.width);
}

std::span<const double> Simulator::ctx_state(std::size_t block) const {
  return std::span<const double>(active_x_ + compiled_.state_offset(block),
                                 model_.block(block).continuous_state_size());
}

std::span<double> Simulator::ctx_state_mut(std::size_t block) {
  if (in_integration_) {
    throw std::logic_error(
        "Context::state_mut: continuous state is read-only during integration");
  }
  return std::span<double>(x_.data() + compiled_.state_offset(block),
                           model_.block(block).continuous_state_size());
}

void Simulator::ctx_emit(std::size_t block, std::size_t event_out, Time at) {
  if (lane_active_ && at == time_) {
    for (const PortRef& sink : compiled_.event_sinks(block, event_out)) {
      lane_.push_back(ScheduledEvent{at, 0, sink.block, sink.port});
    }
    return;
  }
  for (const PortRef& sink : compiled_.event_sinks(block, event_out)) {
    queue_.push(at, sink.block, sink.port);
  }
}

void Simulator::ctx_schedule_self(std::size_t block, std::size_t event_in,
                                  Time at) {
  if (event_in >= model_.block(block).num_event_inputs()) {
    throw std::out_of_range("schedule_self: event input out of range");
  }
  if (lane_active_ && at == time_) {
    lane_.push_back(ScheduledEvent{at, 0, block, event_in});
    return;
  }
  queue_.push(at, block, event_in);
}

void Simulator::refresh_blocks(std::span<const std::size_t> order, Time t) {
  for (std::size_t b : order) {
    Context ctx(this, b, t, /*in_event=*/false);
    model_.block(b).compute_outputs(ctx);
  }
  if (obs_.evals != nullptr) {
    obs_.evals->add(order.size());
    for (std::size_t b : order) ++obs_.per_block_evals[b];
  }
}

void Simulator::refresh_dynamic(Time t) {
  refresh_blocks(
      opts_.full_refresh ? compiled_.eval_order() : compiled_.dynamic_cone(),
      t);
}

void Simulator::evaluate_derivatives(Time t, const std::vector<double>& x,
                                     std::vector<double>& dx) {
  active_x_ = x.data();
  refresh_dynamic(t);
  std::fill(dx.begin(), dx.end(), 0.0);
  for (std::size_t b : compiled_.stateful_blocks()) {
    Block& blk = model_.block(b);
    Context ctx(this, b, t, /*in_event=*/false);
    blk.derivatives(ctx,
                    std::span<double>(dx.data() + compiled_.state_offset(b),
                                      blk.continuous_state_size()));
  }
}

Trace& Simulator::run() {
  // Latch tracing for this run: one branch on the hot paths from here on.
  obs_.tracing = obs::active(opts_.tracer);
  obs::ScopedSpan run_span(obs_.tracing ? opts_.tracer : nullptr, obs_.n_run,
                           obs_.trk_runtime);

  // Reset run state (including the RNG: same seed => same realization).
  rng_ = math::Rng(opts_.seed);
  time_ = 0.0;
  x_.assign(compiled_.total_state(), 0.0);
  active_x_ = x_.data();
  queue_.clear();
  lane_.clear();
  lane_active_ = false;
  if (opts_.reserve_queue > 0) queue_.reserve(opts_.reserve_queue);
  iws_.resize(compiled_.total_state());
  trace_.clear();
  trace_.reserve(opts_.reserve_events, opts_.reserve_signals);
  events_dispatched_ = 0;
  std::fill(arena_.begin(), arena_.end(), 0.0);

  // Initialize every block (may write state/outputs and schedule events),
  // then establish output consistency with one full sweep. From here on the
  // incremental path refreshes exactly the blocks whose value sources
  // (time, continuous state, discrete activations) changed.
  for (std::size_t b = 0; b < model_.num_blocks(); ++b) {
    Context ctx(this, b, 0.0, /*in_event=*/true);
    model_.block(b).initialize(ctx);
  }
  refresh_blocks(compiled_.eval_order(), 0.0);

  const Time t_end = opts_.end_time;
  // Loop-invariant dispatch state, hoisted into locals: the per-event path
  // must not re-read anything through `this` that the compiler cannot prove
  // unchanged across the indirect on_event/compute_outputs calls.
  const bool tracing = obs_.tracing;
  const bool full_refresh = opts_.full_refresh;
  const std::size_t max_events = opts_.max_events;
  obs::Gauge* const queue_hwm = obs_.queue_hwm;
  obs::Counter* const ev_counter = obs_.events;
  obs::Histogram* const cone_sizes = obs_.cone_sizes;
  while (true) {
    Time t_next = t_end;
    bool have_event = false;
    if (!queue_.empty() && queue_.next_time() <= t_end) {
      t_next = queue_.next_time();
      have_event = true;
    }
    if (t_next > time_) {
      if (compiled_.total_state() > 0) {
        const double span_t0 =
            obs_.tracing ? opts_.tracer->now_us() : 0.0;
        in_integration_ = true;
        integrate(
            opts_.integrator,
            [this](Time t, const std::vector<double>& x,
                   std::vector<double>& dx) { evaluate_derivatives(t, x, dx); },
            time_, t_next, x_, iws_);
        in_integration_ = false;
        active_x_ = x_.data();
        if (obs_.tracing) {
          opts_.tracer->span(obs_.n_integrate, obs_.trk_runtime, span_t0,
                             opts_.tracer->now_us());
        }
      }
      time_ = t_next;
      refresh_dynamic(time_);
    }
    if (!have_event) break;
    if (queue_hwm != nullptr) {
      queue_hwm->max_of(static_cast<double>(queue_.size()));
    }
    // Drain every event tied at this instant in one batched pop instead of
    // re-comparing the heap top per event. Dispatch order is unchanged: ties
    // pop in FIFO seq order, and zero-delay emissions made *during* this
    // batch go to the same-instant lane below, after the whole batch —
    // exactly where one-at-a-time popping would have placed them.
    batch_.clear();
    queue_.pop_simultaneous(batch_);
    const auto dispatch_one = [&](const ScheduledEvent& e) {
      trace_.record_event(e.time, e.block, e.event_in);
      if (tracing) {
        opts_.tracer->instant(obs_.block_names[e.block], obs_.trk_events,
                              obs::sim_us(e.time), obs_.a_port,
                              static_cast<double>(e.event_in));
      }
      if (ev_counter != nullptr) ev_counter->add();
      {
        Context ctx(this, e.block, e.time, /*in_event=*/true);
        model_.block(e.block).on_event(ctx, e.event_in);
      }
      const std::span<const std::size_t> cone =
          full_refresh ? std::span<const std::size_t>(compiled_.eval_order())
                       : compiled_.cone(e.block);
      if (tracing) {
        const double span_t0 = opts_.tracer->now_us();
        refresh_blocks(cone, time_);
        opts_.tracer->span(obs_.n_cone, obs_.trk_runtime, span_t0,
                           opts_.tracer->now_us(), obs_.a_cone_size,
                           static_cast<double>(cone.size()));
      } else if (!cone.empty()) {
        // Empty cones (pure event-plumbing blocks) skip the call outright —
        // observably identical, and most events in delay-chain workloads
        // have nothing to refresh.
        refresh_blocks(cone, time_);
      }
      if (cone_sizes != nullptr) {
        cone_sizes->observe(static_cast<double>(cone.size()));
      }
      if (++events_dispatched_ > max_events) {
        throw std::runtime_error(
            "Simulator: max_events exceeded (runaway loop?)");
      }
    };
    lane_active_ = true;
    for (const ScheduledEvent& e : batch_) dispatch_one(e);
    // Zero-delay cascades landed in the lane instead of the heap (the
    // heap's ties at this instant are already drained, so append order is
    // exactly the seq order they would have popped in). Index loop: a
    // dispatch may append — and reallocate — while we drain.
    for (std::size_t i = 0; i < lane_.size(); ++i) {
      const ScheduledEvent e = lane_[i];
      dispatch_one(e);
    }
    lane_.clear();
    lane_active_ = false;
  }
  if (obs_.evals_per_block != nullptr) {
    // Distribution of eval calls across blocks for this run (hot blocks sit
    // in the top buckets); per-run counts then reset.
    for (std::uint64_t& n : obs_.per_block_evals) {
      if (n > 0) obs_.evals_per_block->observe(static_cast<double>(n));
      n = 0;
    }
  }
  return trace_;
}

double Simulator::output_value(const Block& b, std::size_t port,
                               std::size_t lane) const {
  const std::size_t idx = model_.index_of(b);
  const ArenaSlice s = compiled_.output_slice(idx, port);
  if (lane >= s.width) {
    throw std::out_of_range("Simulator::output_value: lane out of range");
  }
  return arena_[s.offset + lane];
}

}  // namespace ecsim::sim
