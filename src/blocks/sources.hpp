// Signal and event sources: activation clocks (the paper's "clock generator"
// of Fig. 2), timetable clocks (precomputed activation instants extracted
// from a SynDEx schedule), and standard test signals.
#pragma once

#include <vector>

#include "sim/block.hpp"

namespace ecsim::blocks {

using sim::Block;
using sim::Context;
using sim::Time;

/// Periodic activation clock: emits an event on its single event output
/// every `period`, starting at `offset`. This is the stroboscopic-model
/// activation source that the graph of delays replaces.
class Clock : public Block {
 public:
  Clock(std::string name, Time period, Time offset = 0.0);

  void initialize(Context& ctx) override;
  void on_event(Context& ctx, std::size_t event_in) override;
  void describe(ir::BlockIr& out) const override;

  std::size_t event_out() const { return 0; }

 private:
  Time period_;
  Time offset_;
};

/// Emits events at fixed offsets within a repeating hyperperiod:
/// t = k*period + offsets[i] for all k >= 0 and all i. Used in "timetable
/// mode" to replay the completion instants of a static SynDEx schedule.
class TimetableClock : public Block {
 public:
  /// `offsets` must be non-decreasing and each < period.
  TimetableClock(std::string name, Time period, std::vector<Time> offsets);

  void initialize(Context& ctx) override;
  void on_event(Context& ctx, std::size_t event_in) override;
  void describe(ir::BlockIr& out) const override;

  std::size_t event_out() const { return 0; }

 private:
  Time period_;
  std::vector<Time> offsets_;
  std::size_t next_ = 0;  // index of next offset
  std::size_t cycle_ = 0;
};

/// Constant signal source.
class Constant : public Block {
 public:
  Constant(std::string name, std::vector<double> value);
  Constant(std::string name, double value)
      : Constant(std::move(name), std::vector<double>{value}) {}

  void compute_outputs(Context& ctx) override;
  void describe(ir::BlockIr& out) const override;

 private:
  std::vector<double> value_;
};

/// Step: y = initial before step_time, final after.
class Step : public Block {
 public:
  Step(std::string name, double initial, double final_value, Time step_time);

  void compute_outputs(Context& ctx) override;
  bool output_depends_on_time() const override { return true; }
  void describe(ir::BlockIr& out) const override;

 private:
  double initial_;
  double final_;
  Time step_time_;
};

/// Sine: y = amplitude * sin(2*pi*frequency*t + phase) + bias.
class Sine : public Block {
 public:
  Sine(std::string name, double amplitude, double frequency, double phase = 0.0,
       double bias = 0.0);

  void compute_outputs(Context& ctx) override;
  bool output_depends_on_time() const override { return true; }
  void describe(ir::BlockIr& out) const override;

 private:
  double amplitude_, frequency_, phase_, bias_;
};

/// Square/pulse wave with duty cycle in (0,1): `high` for the first
/// duty*period of each cycle, `low` for the rest.
class Pulse : public Block {
 public:
  Pulse(std::string name, double low, double high, Time period, double duty);

  void compute_outputs(Context& ctx) override;
  bool output_depends_on_time() const override { return true; }
  void describe(ir::BlockIr& out) const override;

 private:
  double low_, high_;
  Time period_;
  double duty_;
};

/// Sampled Gaussian noise: on each activation event the held output is
/// redrawn from N(mean, stddev). Models measurement noise / disturbances at
/// the sampling instants. Emits a done event after redrawing, so a sampler
/// chained behind it sees the fresh draw within the same instant.
class NoiseHold : public Block {
 public:
  NoiseHold(std::string name, double mean, double stddev);

  void initialize(Context& ctx) override;
  void on_event(Context& ctx, std::size_t event_in) override;
  void describe(ir::BlockIr& out) const override;

  std::size_t event_in() const { return 0; }
  std::size_t done_event_out() const { return 0; }

 private:
  double mean_, stddev_;
};

}  // namespace ecsim::blocks
