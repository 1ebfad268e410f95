#include "sim/simulator.hpp"

#include <stdexcept>
#include <utility>

namespace ecsim::sim {

// ---- Context methods (declared in block.hpp) --------------------------------

std::span<const double> Context::input(std::size_t port) const {
  const ArenaSlice s = sim_->compiled_.input_slice(block_, port);
  return std::span<const double>(sim_->driver_.arena() + s.offset, s.width);
}

std::span<double> Context::output(std::size_t port) {
  const ArenaSlice s = sim_->compiled_.output_slice(block_, port);
  return std::span<double>(sim_->driver_.arena() + s.offset, s.width);
}

std::span<const double> Context::state() const {
  return std::span<const double>(
      sim_->driver_.state(sim_->compiled_.state_offset(block_)),
      sim_->model_.block(block_).continuous_state_size());
}

std::span<double> Context::state_mut() {
  if (sim_->driver_.integrating()) {
    throw std::logic_error(
        "Context::state_mut: continuous state is read-only during integration");
  }
  return std::span<double>(
      sim_->driver_.state_mut(sim_->compiled_.state_offset(block_)),
      sim_->model_.block(block_).continuous_state_size());
}

void Context::emit(std::size_t event_out, Time delay) {
  if (!in_event_) {
    throw std::logic_error(
        "Context::emit: events may only be emitted from initialize()/on_event()");
  }
  if (delay < 0.0) throw std::invalid_argument("Context::emit: negative delay");
  sim_->driver_.emit_at(block_, event_out, time_ + delay);
}

void Context::schedule_self(std::size_t event_in, Time delay) {
  if (!in_event_) {
    throw std::logic_error(
        "Context::schedule_self: only from initialize()/on_event()");
  }
  if (delay < 0.0) {
    throw std::invalid_argument("Context::schedule_self: negative delay");
  }
  if (event_in >= sim_->model_.block(block_).num_event_inputs()) {
    throw std::out_of_range("schedule_self: event input out of range");
  }
  sim_->driver_.schedule_at(block_, event_in, time_ + delay);
}

math::Rng& Context::rng() { return sim_->driver_.rng(); }

Trace& Context::trace() { return sim_->trace_; }

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
      obs_table_(obs::make_obs_table(opts.tracer, opts.metrics)),
      driver_(*this) {
  trace_.register_block_names(compiled_.block_names());
  driver_.bind_trace(&trace_);
  driver_.init_obs(&obs_table_);
}

Trace& Simulator::run() {
  driver_.run(opts_);
  return trace_;
}

// ---- the driver's kernels ----------------------------------------------------

void Simulator::init(Engine& d) {
  for (std::size_t b = 0; b < model_.num_blocks(); ++b) {
    Context ctx(this, b, d.time(), /*in_event=*/true);
    model_.block(b).initialize(ctx);
  }
}

void Simulator::compute(Engine& d, std::size_t b) {
  Context ctx(this, b, d.time(), /*in_event=*/false);
  model_.block(b).compute_outputs(ctx);
}

void Simulator::on_event(Engine& d, std::size_t b, std::size_t port) {
  Context ctx(this, b, d.time(), /*in_event=*/true);
  model_.block(b).on_event(ctx, port);
}

void Simulator::derivatives(Engine& d, std::size_t b, double* dx) {
  Block& blk = model_.block(b);
  Context ctx(this, b, d.time(), /*in_event=*/false);
  blk.derivatives(ctx, std::span<double>(dx, blk.continuous_state_size()));
}

double Simulator::output_value(const Block& b, std::size_t port,
                               std::size_t lane) const {
  const std::size_t idx = model_.index_of(b);
  const ArenaSlice s = compiled_.output_slice(idx, port);
  if (lane >= s.width) {
    throw std::out_of_range("Simulator::output_value: lane out of range");
  }
  return driver_.arena()[s.offset + lane];
}

}  // namespace ecsim::sim
