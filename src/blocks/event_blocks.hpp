// Event-processing blocks used by the graph of delays (paper §3.2):
//  - EventDelay models the execution duration of one SynDEx operation
//    (sequencing, §3.2.1): the output event fires L time units after the
//    activation, where L may be constant (WCET mode) or drawn from an
//    execution-time distribution (jitter studies);
//  - EventSelect + a ConditionMapping function model conditioning (§3.2.2);
//  - EventMerge fans several event streams into one.
//
// Durations and fault gates are data (blocks::DurationSpec, fault::CommGate),
// so these blocks describe() themselves into the IR and the native backend
// regenerates them. Only EventSelect's condition mapping stays a closure —
// the paper's Condition Mapping is an arbitrary user function — and it keeps
// its block opaque, on the interpreter.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "blocks/duration_spec.hpp"
#include "fault/comm_gate.hpp"
#include "sim/block.hpp"

namespace ecsim::blocks {

using sim::Block;
using sim::Context;
using sim::Time;

/// Delays each incoming event by a (possibly random) execution duration.
/// Non-reentrant like a processor operation: if an event arrives while a
/// previous one is still "executing", the new execution starts when the
/// previous finishes (busy queueing), preserving operation order. Counts
/// its activations since initialize: activation k of a random spec draws
/// from the stream keyed by (run seed, spec key, k) (DESIGN.md §3.11).
class EventDelay : public Block {
 public:
  EventDelay(std::string name, Time duration);
  EventDelay(std::string name, DurationSpec spec);

  void initialize(Context& ctx) override;
  void on_event(Context& ctx, std::size_t event_in) override;
  void describe(ir::BlockIr& out) const override;

  const DurationSpec& spec() const { return spec_; }
  std::size_t event_in() const { return 0; }
  std::size_t event_out() const { return 0; }
  /// Number of activations that found the block busy (diagnostic).
  std::size_t busy_hits() const { return busy_hits_; }

 private:
  DurationSpec spec_;
  Time busy_until_ = 0.0;
  std::size_t busy_hits_ = 0;
  std::size_t count_ = 0;
};

/// Maps the current value of the condition input to the index of the event
/// output channel to forward to (paper's "Condition Mapping" function).
using ConditionMapping = std::function<std::size_t(std::span<const double>)>;

/// Routes each incoming event to one of `n_channels` event outputs according
/// to the condition mapping applied to data input 0. Always opaque in the
/// IR: the mapping is an arbitrary user function.
class EventSelect : public Block {
 public:
  EventSelect(std::string name, std::size_t n_channels, std::size_t cond_width,
              ConditionMapping mapping);

  /// Two-way convenience: channel 1 if input > threshold else channel 0.
  static std::unique_ptr<EventSelect> make_threshold(std::string name,
                                                     double threshold);

  void on_event(Context& ctx, std::size_t event_in) override;
  void describe(ir::BlockIr& out) const override;

  std::size_t event_in() const { return 0; }

 private:
  std::size_t n_channels_;
  ConditionMapping mapping_;
};

/// Delays each incoming event to the next boundary of a fixed time grid
/// (t = k * slot for integer k): models TDMA bus arbitration in the graph
/// of delays. An event exactly on a boundary passes through unchanged.
/// With `slots` > 1 the grid is this message's *owner slot* of a FlexRay
/// style round: t = k * slots * slot + owner * slot.
class TdmaGate : public Block {
 public:
  TdmaGate(std::string name, Time slot, std::size_t slots = 1,
           std::size_t owner = 0);

  void on_event(Context& ctx, std::size_t event_in) override;
  void describe(ir::BlockIr& out) const override;

  std::size_t event_in() const { return 0; }
  std::size_t event_out() const { return 0; }

 private:
  Time slot_;
  std::size_t slots_ = 1;  // owner slots per round (1 = any boundary)
  std::size_t owner_ = 0;  // this message's slot within the round
};

/// N event inputs, one event output: forwards every incoming event.
class EventMerge : public Block {
 public:
  EventMerge(std::string name, std::size_t n_inputs);

  void on_event(Context& ctx, std::size_t event_in) override;
  void describe(ir::BlockIr& out) const override;

  std::size_t event_out() const { return 0; }
};

/// Fault-injection gate for the graph of delays (DESIGN.md §3.5): activation
/// number k (0-based since initialize) gets fault::comm_gate_decide(gate, k),
/// which matches ArmedFaultPlan::comm_effect bit-exactly. Dropped events
/// model message loss — the downstream Sample/Hold simply never activates
/// that iteration and holds its last sample (realistic stale-data
/// degradation). Deferred events model delivery delays and duplicates.
class EventFault : public Block {
 public:
  EventFault(std::string name, fault::CommGate gate);

  void initialize(Context& ctx) override;
  void on_event(Context& ctx, std::size_t event_in) override;
  void describe(ir::BlockIr& out) const override;

  std::size_t event_in() const { return 0; }
  std::size_t event_out() const { return 0; }
  const fault::CommGate& gate() const { return gate_; }

 private:
  fault::CommGate gate_;
  std::size_t count_ = 0;
};

/// Forwards every n-th incoming event (those with index % n == phase) —
/// the rate decimator of multirate diagrams.
class EventDivider : public Block {
 public:
  EventDivider(std::string name, std::size_t divisor, std::size_t phase = 0);

  void initialize(Context& ctx) override;
  void on_event(Context& ctx, std::size_t event_in) override;
  void describe(ir::BlockIr& out) const override;

  std::size_t event_in() const { return 0; }
  std::size_t event_out() const { return 0; }

 private:
  std::size_t divisor_;
  std::size_t phase_;
  std::size_t count_ = 0;
};

}  // namespace ecsim::blocks
