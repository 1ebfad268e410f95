// BatchedSim: the SIMD lockstep Monte Carlo engine (DESIGN.md §3.8). Runs
// W structurally identical trials — same diagram, different seeds — through
// ONE driver: one masked event queue, one time axis, one dispatch loop, one
// integration stepper. What the scalar Simulator pays per trial (heap push/
// pop and tie-draining, cone lookups, time advance, max_events bookkeeping)
// is paid once per *batch* here; only the irreducible per-trial work (the
// block's on_event/compute_outputs and its trace records) runs per lane.
// Blocks that declare uniform event handling (Block::event_uniformity) go
// further: their on_event itself runs ONCE per batch, leaving only the
// per-lane trace records — on event-dominated diagrams that is most of the
// dispatch work.
//
// Layout: each lane owns a full scalar arena (the CompiledModel offsets are
// shared — one compile for the whole batch) plus its own continuous state,
// Rng and Trace. Lanes therefore see bit-for-bit the scalar memory layout,
// and every Block runs unchanged through the ExecHost indirection
// (sim/block.hpp). RK4 stage arithmetic additionally runs lockstep across
// each lane's state vector through the pack<W> kernels.
//
// Divergence: when lanes' event schedules split (per-lane RNG in jittered
// delays, noise sources, fault gates), queue entries carry lane masks.
// Stateless models tolerate arbitrary divergence under masks. For stateful
// models a lane whose schedule stops sharing integration boundaries with the
// batch is *evicted* to the scalar spill path — rerun from t=0 on the plain
// Simulator — because splitting an RK interval at a foreign boundary changes
// rounding. Either way every lane's trace is bit-identical to a scalar run
// with the same seed; the property suite asserts it on random hybrid
// diagrams, every lane.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "sim/model.hpp"
#include "sim/simulator.hpp"

namespace ecsim::sim {

/// A scheduled activation shared by every lane whose bit is set in `mask`.
struct MaskedEvent {
  Time time;
  std::uint64_t seq;
  std::size_t block;
  std::size_t event_in;
  std::uint64_t mask;
};

struct BatchedOptions {
  /// Per-trial options (horizon, integrator, refresh mode, reserves). The
  /// seed field is ignored — seeds are per-lane arguments to run(). The
  /// obs hooks (tracer/metrics) are not routed into the batched driver;
  /// spill-lane reruns drop them too so a spilled trial stays bit-identical
  /// to its lockstep siblings.
  SimOptions base;
  /// Number of lanes; 0 picks simd::preferred_batch_width(). Capped at 64
  /// (masks are one uint64_t).
  std::size_t width = 0;
};

class BatchedSim {
 public:
  /// Builds one fresh Model per call — lanes need W structurally identical
  /// model instances because discrete state lives in Block members.
  using ModelFactory = std::function<std::unique_ptr<Model>()>;

  /// Instantiates W models via `factory`, compiles lane 0's and shares the
  /// layout (offsets, orders, cones, event sinks) across all lanes. Throws
  /// if the factory's models disagree structurally.
  explicit BatchedSim(const ModelFactory& factory, BatchedOptions opts = {});
  ~BatchedSim();

  BatchedSim(const BatchedSim&) = delete;
  BatchedSim& operator=(const BatchedSim&) = delete;

  /// Run seeds.size() trials (<= width()) from t=0 to base.end_time, one
  /// per lane. May be called repeatedly; every call restarts cleanly.
  void run(std::span<const std::uint64_t> seeds);

  std::size_t width() const { return lanes_.size(); }
  /// Lanes occupied by the latest run().
  std::size_t lanes_run() const { return active_; }
  /// Trace of lane `lane` from the latest run — bit-identical to a scalar
  /// Simulator run of the same model with the same seed and base options.
  const Trace& trace(std::size_t lane) const;
  std::size_t events_dispatched(std::size_t lane) const;
  /// Lanes the latest run() evicted to the scalar spill path.
  std::size_t evictions() const { return evictions_; }

  const CompiledModel& compiled() const { return *compiled_; }

 private:
  struct Lane;  // per-lane ExecHost: arena, state, rng, trace (in the .cpp)

  /// One pending emission collected from a lane during dispatch, already
  /// sink-expanded and in absolute time (future emissions and same-instant
  /// cascades both). Compared across lanes — streamed against the first
  /// lane's list as it is collected — for the consensus merge in
  /// flush_collected().
  struct Pending {
    Time time;
    std::size_t block;
    std::size_t event_in;
    bool operator==(const Pending&) const = default;
  };

  /// One activation at the current instant, on the shared work list walked
  /// by dispatch_instant(): heap ties first (in (time, seq) order), then
  /// same-instant cascades in emission order.
  struct InstEntry {
    std::size_t block;
    std::size_t event_in;
    std::uint64_t mask;
  };

  void lane_collect(std::size_t lane, Time at, std::size_t block,
                    std::size_t event_in);
  void begin_collect(std::size_t lane, bool first);
  void end_collect(std::size_t lane);
  void flush_collected();
  void route_pending(const Pending& p, std::uint64_t mask);
  void dispatch_instant();
  bool entry_uniform(const InstEntry& e) const;
  void execute_uniform(std::size_t block, std::size_t event_in,
                       std::uint64_t mask);
  void record_uniform_run(std::size_t begin, std::size_t end);
  void dispatch_lane_turn(std::size_t lane, bool first, std::size_t begin,
                          std::size_t end);
  void refresh_lane(Lane& lane, std::span<const std::size_t> order, Time t);
  void refresh_dynamic_lane(Lane& lane, Time t);
  void eval_derivatives_lane(Lane& lane, Time t, const std::vector<double>& x,
                             std::vector<double>& dx);
  void integrate_lanes(Time t0, Time t1);
  void rk4_lockstep(Time t0, Time t1);
  void evict_lanes(std::uint64_t mask);
  void run_spill(Lane& lane);

  BatchedOptions opts_;
  std::unique_ptr<CompiledModel> compiled_;  // lane 0's layout, shared
  std::vector<std::unique_ptr<Lane>> lanes_;
  // Streaming consensus state for the current activation (one masked
  // dispatch, or one block's initialize across lanes). The first lane
  // records into ref_emis_; later lanes compare against it in place and
  // only fall back to a private emis_[lane] list on divergence, so the
  // all-lanes-agree common case touches one hot vector instead of W.
  std::vector<Pending> ref_emis_;
  std::vector<std::vector<Pending>> emis_;  // diverged lanes' collections
  enum class Collect { kRef, kCompare, kLaneLocal };
  Collect collect_mode_ = Collect::kRef;
  std::size_t cmp_pos_ = 0;
  std::uint64_t matched_mask_ = 0;
  std::uint64_t diverged_mask_ = 0;
  /// The scalar EventQueue's heap with a mask per entry. Each lane's entries
  /// pop in exactly the relative order its scalar run would pop them: a
  /// lane's pushes happen in the same per-lane order under the batched
  /// driver, and the shared seq counter is monotone over pushes.
  HeapQueue<MaskedEvent> queue_;
  std::vector<MaskedEvent> batch_;    // pop_simultaneous output, reused
  std::vector<InstEntry> instant_q_;  // current instant's work list, reused
  std::vector<EventRecord> run_records_;  // uniform run's records, reused
  // Uniform-dispatch classification (DESIGN.md §3.8): 0 varying, 1 lockstep,
  // 2 pure. Fixed at construction from the blocks' event_uniformity()
  // declarations plus structural gates; the lockstep_* flags track, per run,
  // which lockstep-class blocks may still execute once per batch.
  std::vector<std::uint8_t> uniform_class_;
  std::vector<std::uint8_t> lockstep_ok_;     // not yet demoted to per-lane
  std::vector<std::uint8_t> lockstep_armed_;  // shared object has advanced
  std::uint64_t uniform_mask_ = 0;  // nonzero while routing a uniform dispatch
  bool lane_active_ = false;
  bool in_integration_ = false;
  Time time_ = 0.0;
  std::uint64_t live_mask_ = 0;
  std::size_t active_ = 0;
  std::size_t evictions_ = 0;
};

}  // namespace ecsim::sim
