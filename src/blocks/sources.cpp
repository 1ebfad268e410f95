#include "blocks/sources.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "mathlib/rng.hpp"

namespace ecsim::blocks {

Clock::Clock(std::string name, Time period, Time offset)
    : Block(std::move(name)), period_(period), offset_(offset) {
  if (period <= 0.0) throw std::invalid_argument("Clock: period must be > 0");
  if (offset < 0.0) throw std::invalid_argument("Clock: offset must be >= 0");
  add_event_input();   // self-tick
  add_event_output();  // activation output
}

void Clock::initialize(Context& ctx) { ctx.schedule_self(0, offset_); }

void Clock::on_event(Context& ctx, std::size_t) {
  ctx.emit(0, 0.0);
  ctx.schedule_self(0, period_);
}

Constant::Constant(std::string name, std::vector<double> value)
    : Block(std::move(name)), value_(std::move(value)) {
  add_output(value_.size());
}

void Constant::compute_outputs(Context& ctx) {
  auto out = ctx.output(0);
  std::copy(value_.begin(), value_.end(), out.begin());
}

Step::Step(std::string name, double initial, double final_value, Time step_time)
    : Block(std::move(name)),
      initial_(initial),
      final_(final_value),
      step_time_(step_time) {
  add_output(1);
}

void Step::compute_outputs(Context& ctx) {
  ctx.set_out1(0, ctx.time() < step_time_ ? initial_ : final_);
}

Sine::Sine(std::string name, double amplitude, double frequency, double phase,
           double bias)
    : Block(std::move(name)),
      amplitude_(amplitude),
      frequency_(frequency),
      phase_(phase),
      bias_(bias) {
  add_output(1);
}

void Sine::compute_outputs(Context& ctx) {
  const double w = 2.0 * std::numbers::pi * frequency_;
  ctx.set_out1(0, amplitude_ * std::sin(w * ctx.time() + phase_) + bias_);
}

Pulse::Pulse(std::string name, double low, double high, Time period, double duty)
    : Block(std::move(name)), low_(low), high_(high), period_(period), duty_(duty) {
  if (period <= 0.0) throw std::invalid_argument("Pulse: period must be > 0");
  if (duty <= 0.0 || duty >= 1.0) {
    throw std::invalid_argument("Pulse: duty must be in (0,1)");
  }
  add_output(1);
}

void Pulse::compute_outputs(Context& ctx) {
  const double phase = std::fmod(ctx.time(), period_);
  ctx.set_out1(0, phase < duty_ * period_ ? high_ : low_);
}

NoiseHold::NoiseHold(std::string name, double mean, double stddev,
                     std::uint64_t key)
    : Block(std::move(name)), mean_(mean), stddev_(stddev), key_(key) {
  add_event_input();
  add_event_output();  // done
  add_output(1);
}

void NoiseHold::initialize(Context& ctx) {
  count_ = 0;
  ctx.set_out1(0, mean_);
}

void NoiseHold::on_event(Context& ctx, std::size_t) {
  ctx.set_out1(0, math::keyed_rng(ctx.seed(), key_, count_++)
                      .normal(mean_, stddev_));
  ctx.emit(0, 0.0);
}


void Clock::describe(ir::BlockIr& out) const {
  out.kind = "Clock";
  out.attrs.push_back(ir::Attr::of_real("period", period_));
  out.attrs.push_back(ir::Attr::of_real("offset", offset_));
}

void Constant::describe(ir::BlockIr& out) const {
  out.kind = "Constant";
  out.attrs.push_back(ir::Attr::of_vec("value", value_));
}

void Step::describe(ir::BlockIr& out) const {
  out.kind = "Step";
  out.attrs.push_back(ir::Attr::of_real("initial", initial_));
  out.attrs.push_back(ir::Attr::of_real("final", final_));
  out.attrs.push_back(ir::Attr::of_real("step_time", step_time_));
}

void Sine::describe(ir::BlockIr& out) const {
  out.kind = "Sine";
  out.attrs.push_back(ir::Attr::of_real("amplitude", amplitude_));
  out.attrs.push_back(ir::Attr::of_real("frequency", frequency_));
  out.attrs.push_back(ir::Attr::of_real("phase", phase_));
  out.attrs.push_back(ir::Attr::of_real("bias", bias_));
}

void Pulse::describe(ir::BlockIr& out) const {
  out.kind = "Pulse";
  out.attrs.push_back(ir::Attr::of_real("low", low_));
  out.attrs.push_back(ir::Attr::of_real("high", high_));
  out.attrs.push_back(ir::Attr::of_real("period", period_));
  out.attrs.push_back(ir::Attr::of_real("duty", duty_));
}

void NoiseHold::describe(ir::BlockIr& out) const {
  out.kind = "NoiseHold";
  out.attrs.push_back(ir::Attr::of_real("mean", mean_));
  out.attrs.push_back(ir::Attr::of_real("stddev", stddev_));
  out.attrs.push_back(ir::Attr::of_int("key", static_cast<long long>(key_)));
}

}  // namespace ecsim::blocks
