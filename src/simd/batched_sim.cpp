#include "simd/batched_sim.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "simd/pack.hpp"

namespace ecsim::sim {

// ---- Lane --------------------------------------------------------------------
// One trial's run state plus its ExecHost face: Context calls made by Block
// code during this lane's turn resolve against this lane's arena/state/rng/
// trace through exactly the accessors the scalar Simulator implements.

struct BatchedSim::Lane final : ExecHost {
  BatchedSim* owner = nullptr;
  std::size_t index = 0;
  std::unique_ptr<Model> model;
  std::vector<double> arena;
  std::vector<double> x;              // committed continuous state
  const double* active_x = nullptr;   // state viewed by blocks right now
  math::Rng rng{1};
  Trace trace;
  IntegratorWorkspace iws;
  std::uint64_t seed = 0;
  std::size_t events = 0;
  bool evicted = false;

  std::span<const double> ctx_input(std::size_t block,
                                    std::size_t port) const override {
    const ArenaSlice s = owner->compiled_->input_slice(block, port);
    return std::span<const double>(arena.data() + s.offset, s.width);
  }
  std::span<double> ctx_output(std::size_t block, std::size_t port) override {
    const ArenaSlice s = owner->compiled_->output_slice(block, port);
    return std::span<double>(arena.data() + s.offset, s.width);
  }
  std::span<const double> ctx_state(std::size_t block) const override {
    return std::span<const double>(
        active_x + owner->compiled_->state_offset(block),
        model->block(block).continuous_state_size());
  }
  std::span<double> ctx_state_mut(std::size_t block) override {
    if (owner->in_integration_) {
      throw std::logic_error(
          "Context::state_mut: continuous state is read-only during "
          "integration");
    }
    return std::span<double>(x.data() + owner->compiled_->state_offset(block),
                             model->block(block).continuous_state_size());
  }
  void ctx_emit(std::size_t block, std::size_t event_out, Time at) override {
    for (const PortRef& sink : owner->compiled_->event_sinks(block, event_out))
      owner->lane_collect(index, at, sink.block, sink.port);
  }
  void ctx_schedule_self(std::size_t block, std::size_t event_in,
                         Time at) override {
    if (event_in >= model->block(block).num_event_inputs()) {
      throw std::out_of_range("schedule_self: event input out of range");
    }
    owner->lane_collect(index, at, block, event_in);
  }
  math::Rng& ctx_rng() override { return rng; }
  Trace& ctx_trace() override { return trace; }
};

// ---- BatchedSim --------------------------------------------------------------

BatchedSim::BatchedSim(const ModelFactory& factory, BatchedOptions opts)
    : opts_(std::move(opts)) {
  const std::size_t w =
      opts_.width != 0 ? opts_.width : simd::preferred_batch_width();
  if (w == 0 || w > 64) {
    throw std::invalid_argument("BatchedSim: width must be in [1, 64]");
  }
  // Obs hooks are scalar-driver concerns; the batched driver (and its spill
  // reruns) run bare so lane traces depend on nothing but (model, base
  // options, seed).
  opts_.base.tracer = nullptr;
  opts_.base.metrics = nullptr;

  lanes_.reserve(w);
  for (std::size_t l = 0; l < w; ++l) {
    auto lane = std::make_unique<Lane>();
    lane->owner = this;
    lane->index = l;
    lane->model = factory();
    if (lane->model == nullptr) {
      throw std::invalid_argument("BatchedSim: factory returned null model");
    }
    lanes_.push_back(std::move(lane));
  }

  compiled_ = std::make_unique<CompiledModel>(*lanes_[0]->model);

  // Lockstep is only sound over structurally identical diagrams: the shared
  // layout (offsets, orders, cones, sinks) is compiled once from lane 0.
  const Model& m0 = *lanes_[0]->model;
  for (std::size_t l = 1; l < w; ++l) {
    const Model& m = *lanes_[l]->model;
    bool ok = m.num_blocks() == m0.num_blocks();
    for (std::size_t b = 0; ok && b < m0.num_blocks(); ++b) {
      const Block& a = m0.block(b);
      const Block& c = m.block(b);
      ok = a.name() == c.name() && a.num_inputs() == c.num_inputs() &&
           a.num_outputs() == c.num_outputs() &&
           a.num_event_inputs() == c.num_event_inputs() &&
           a.num_event_outputs() == c.num_event_outputs() &&
           a.continuous_state_size() == c.continuous_state_size();
    }
    if (!ok) {
      throw std::invalid_argument(
          "BatchedSim: factory models differ structurally across lanes");
    }
  }

  for (std::unique_ptr<Lane>& lane : lanes_) {
    lane->arena.assign(compiled_->arena_size(), 0.0);
    lane->trace.register_block_names(compiled_->block_names());
  }
  emis_.resize(w);

  // Uniform-dispatch classification (see dispatch_instant): a block may
  // execute once per batch only if it declares lockstep/pure event handling
  // AND the structure proves the contract's preconditions — no data ports
  // to read or write, no continuous state, no refresh cone — AND its
  // describe() parameters are identical on every lane (a stateful factory
  // may legally vary parameters per call; per-lane dispatch tolerates that,
  // a shared execution would not, and opaque blocks cannot be compared).
  // full_refresh re-sweeps the network after every dispatch, which the
  // single-execution path cannot replay, so it forces per-lane dispatch.
  const std::size_t nb = compiled_->num_blocks();
  uniform_class_.assign(nb, 0);
  lockstep_ok_.assign(nb, 0);
  lockstep_armed_.assign(nb, 0);
  if (!opts_.base.full_refresh) {
    for (std::size_t b = 0; b < nb; ++b) {
      const Block& blk = m0.block(b);
      const Block::EventUniformity u = blk.event_uniformity();
      if (u == Block::EventUniformity::kVarying) continue;
      if (blk.num_inputs() != 0 || blk.num_outputs() != 0 ||
          blk.continuous_state_size() != 0) {
        continue;
      }
      // The refresh cone may contain the block itself; with zero data
      // outputs its compute_outputs cannot write anything, so skipping that
      // self-refresh on the uniform path is unobservable. Any wider cone
      // means downstream blocks re-evaluate per event — not replayable by a
      // single execution.
      const std::span<const std::size_t> cone = compiled_->cone(b);
      if (!(cone.empty() || (cone.size() == 1 && cone[0] == b))) continue;
      ir::BlockIr ref;
      blk.describe(ref);
      bool same = !ref.opaque;
      for (std::size_t l = 1; same && l < w; ++l) {
        ir::BlockIr other;
        lanes_[l]->model->block(b).describe(other);
        same =
            !other.opaque && other.kind == ref.kind && other.attrs == ref.attrs;
      }
      if (!same) continue;
      uniform_class_[b] = u == Block::EventUniformity::kPure ? 2 : 1;
    }
  }
}

BatchedSim::~BatchedSim() = default;

const Trace& BatchedSim::trace(std::size_t lane) const {
  if (lane >= active_) {
    throw std::out_of_range("BatchedSim::trace: lane was not run");
  }
  return lanes_[lane]->trace;
}

std::size_t BatchedSim::events_dispatched(std::size_t lane) const {
  if (lane >= active_) {
    throw std::out_of_range("BatchedSim::events_dispatched: lane was not run");
  }
  return lanes_[lane]->events;
}

// Streaming consensus merge. The first lane of an activation records its
// emission list into ref_emis_; every later lane is compared against that
// list element-by-element AS it emits (one hot vector, no per-lane buffers
// touched) and only falls back to a private emis_[lane] list at the first
// mismatch. flush_collected() then pushes the shared list ONCE with the
// mask of all fully matching lanes — the common case in non-divergent
// regions — plus per-lane singleton pushes for the diverged lanes (always
// correct, the merge is purely an amortisation). Either way each lane's
// per-lane push order matches its scalar run, which is what keeps
// (time, seq) pop order lane-identical.

void BatchedSim::begin_collect(std::size_t lane, bool first) {
  if (first) {
    ref_emis_.clear();
    matched_mask_ = 0;
    diverged_mask_ = 0;
    collect_mode_ = Collect::kRef;
  } else {
    collect_mode_ = Collect::kCompare;
    cmp_pos_ = 0;
  }
  (void)lane;
}

void BatchedSim::lane_collect(std::size_t lane, Time at, std::size_t block,
                              std::size_t event_in) {
  if (uniform_mask_ != 0) {
    // Emission from a uniform dispatch: every lane in the event's mask
    // emits this identically, so broadcast it directly — no consensus
    // stream, no per-lane work at all.
    if (lane_active_ && at == time_) {
      instant_q_.push_back(InstEntry{block, event_in, uniform_mask_});
    } else {
      queue_.push(at, block, event_in, uniform_mask_);
    }
    return;
  }
  const Pending p{at, block, event_in};
  switch (collect_mode_) {
    case Collect::kRef:
      ref_emis_.push_back(p);
      break;
    case Collect::kCompare:
      if (cmp_pos_ < ref_emis_.size() && ref_emis_[cmp_pos_] == p) {
        ++cmp_pos_;
      } else {
        // Diverged mid-activation: the prefix matched, so reconstruct it.
        emis_[lane].assign(ref_emis_.begin(),
                           ref_emis_.begin() +
                               static_cast<std::ptrdiff_t>(cmp_pos_));
        emis_[lane].push_back(p);
        collect_mode_ = Collect::kLaneLocal;
      }
      break;
    case Collect::kLaneLocal:
      emis_[lane].push_back(p);
      break;
  }
}

void BatchedSim::end_collect(std::size_t lane) {
  const std::uint64_t bit = std::uint64_t{1} << lane;
  if (collect_mode_ == Collect::kRef) {
    matched_mask_ |= bit;
  } else if (collect_mode_ == Collect::kCompare) {
    if (cmp_pos_ == ref_emis_.size()) {
      matched_mask_ |= bit;
    } else {
      // Shorter list than the reference: a strict prefix is a divergence.
      emis_[lane].assign(ref_emis_.begin(),
                         ref_emis_.begin() +
                             static_cast<std::ptrdiff_t>(cmp_pos_));
      diverged_mask_ |= bit;
    }
  } else {
    diverged_mask_ |= bit;
  }
}

void BatchedSim::route_pending(const Pending& p, std::uint64_t mask) {
  if (lane_active_ && p.time == time_) {
    // Same-instant cascade: appended to the shared work list, reached by
    // the instant walk after everything queued ahead of it — the scalar
    // Simulator's ties-then-cascades order, per lane.
    instant_q_.push_back(InstEntry{p.block, p.event_in, mask});
  } else {
    queue_.push(p.time, p.block, p.event_in, mask);
  }
}

void BatchedSim::flush_collected() {
  if (matched_mask_ != 0) {
    for (const Pending& p : ref_emis_) route_pending(p, matched_mask_);
  }
  for (std::uint64_t bits = diverged_mask_; bits != 0; bits &= bits - 1) {
    const std::size_t l = std::countr_zero(bits);
    for (const Pending& p : emis_[l]) route_pending(p, 1ull << l);
    emis_[l].clear();
  }
  matched_mask_ = 0;
  diverged_mask_ = 0;
}

void BatchedSim::refresh_lane(Lane& lane, std::span<const std::size_t> order,
                              Time t) {
  for (std::size_t b : order) {
    Context ctx(&lane, b, t, /*in_event=*/false);
    lane.model->block(b).compute_outputs(ctx);
  }
}

void BatchedSim::refresh_dynamic_lane(Lane& lane, Time t) {
  refresh_lane(lane,
               opts_.base.full_refresh
                   ? std::span<const std::size_t>(compiled_->eval_order())
                   : compiled_->dynamic_cone(),
               t);
}

void BatchedSim::eval_derivatives_lane(Lane& lane, Time t,
                                       const std::vector<double>& x,
                                       std::vector<double>& dx) {
  lane.active_x = x.data();
  refresh_dynamic_lane(lane, t);
  std::fill(dx.begin(), dx.end(), 0.0);
  for (std::size_t b : compiled_->stateful_blocks()) {
    Block& blk = lane.model->block(b);
    Context ctx(&lane, b, t, /*in_event=*/false);
    blk.derivatives(ctx,
                    std::span<double>(dx.data() + compiled_->state_offset(b),
                                      blk.continuous_state_size()));
  }
}

// Lockstep RK4: the shared stepper walks ONE (t, h) sequence; stage
// arithmetic runs through the pack<W> kernels whose operand grouping matches
// integrator.cpp's rk4_step exactly, so each lane's state advances by the
// same bits as a scalar integrate() over the same interval.
void BatchedSim::rk4_lockstep(Time t0, Time t1) {
  const std::size_t n = compiled_->total_state();
  const double max_step = opts_.base.integrator.max_step;
  Time t = t0;
  while (t < t1) {
    const double h = std::min(max_step, t1 - t);
    const double half_h = 0.5 * h;
    const double h6 = h / 6.0;
    for (std::uint64_t bits = live_mask_; bits != 0; bits &= bits - 1) {
      Lane& L = *lanes_[std::countr_zero(bits)];
      eval_derivatives_lane(L, t, L.x, L.iws.k1);
      simd::axpy_stage(L.iws.tmp.data(), L.x.data(), half_h, L.iws.k1.data(),
                       n);
    }
    for (std::uint64_t bits = live_mask_; bits != 0; bits &= bits - 1) {
      Lane& L = *lanes_[std::countr_zero(bits)];
      eval_derivatives_lane(L, t + 0.5 * h, L.iws.tmp, L.iws.k2);
      simd::axpy_stage(L.iws.tmp.data(), L.x.data(), half_h, L.iws.k2.data(),
                       n);
    }
    for (std::uint64_t bits = live_mask_; bits != 0; bits &= bits - 1) {
      Lane& L = *lanes_[std::countr_zero(bits)];
      eval_derivatives_lane(L, t + 0.5 * h, L.iws.tmp, L.iws.k3);
      simd::axpy_stage(L.iws.tmp.data(), L.x.data(), h, L.iws.k3.data(), n);
    }
    for (std::uint64_t bits = live_mask_; bits != 0; bits &= bits - 1) {
      Lane& L = *lanes_[std::countr_zero(bits)];
      eval_derivatives_lane(L, t + h, L.iws.tmp, L.iws.k4);
      simd::rk4_combine(L.x.data(), h6, L.iws.k1.data(), L.iws.k2.data(),
                        L.iws.k3.data(), L.iws.k4.data(), n);
    }
    t += h;
  }
}

void BatchedSim::integrate_lanes(Time t0, Time t1) {
  in_integration_ = true;
  if (opts_.base.integrator.kind == IntegratorKind::kRk4) {
    rk4_lockstep(t0, t1);
  } else {
    // Adaptive RKF45 chooses per-lane step sequences from per-lane error
    // estimates — inherently divergent, so each live lane steps through the
    // scalar integrator (still bit-exact: same code, same boundaries).
    for (std::uint64_t bits = live_mask_; bits != 0; bits &= bits - 1) {
      Lane& L = *lanes_[std::countr_zero(bits)];
      integrate(
          opts_.base.integrator,
          [this, &L](Time t, const std::vector<double>& x,
                     std::vector<double>& dx) {
            eval_derivatives_lane(L, t, x, dx);
          },
          t0, t1, L.x, L.iws);
    }
  }
  in_integration_ = false;
  for (std::uint64_t bits = live_mask_; bits != 0; bits &= bits - 1) {
    Lane& L = *lanes_[std::countr_zero(bits)];
    L.active_x = L.x.data();
  }
}

// One lane's turn over a varying segment of the instant's work list: its
// subsequence in list order. Lane-major iteration is the locality keystone:
// the lane's working set (trace tail, rng, its model's block objects) stays
// hot across every event in the segment instead of being evicted W-1 times
// per event by the other lanes (event-major was measurably SLOWER than
// scalar past ~8 lanes).
void BatchedSim::dispatch_lane_turn(std::size_t lane, bool first,
                                    std::size_t begin, std::size_t end) {
  Lane& L = *lanes_[lane];
  const std::uint64_t bit = std::uint64_t{1} << lane;
  const std::size_t max_events = opts_.base.max_events;
  begin_collect(lane, first);
  for (std::size_t i = begin; i < end; ++i) {
    const InstEntry& e = instant_q_[i];
    if ((e.mask & bit) == 0) continue;
    L.trace.record_event(time_, e.block, e.event_in);
    {
      Context ctx(&L, e.block, time_, /*in_event=*/true);
      L.model->block(e.block).on_event(ctx, e.event_in);
    }
    const std::span<const std::size_t> cone =
        opts_.base.full_refresh
            ? std::span<const std::size_t>(compiled_->eval_order())
            : compiled_->cone(e.block);
    if (!cone.empty()) refresh_lane(L, cone, time_);
    if (++L.events > max_events) {
      throw std::runtime_error(
          "BatchedSim: max_events exceeded (runaway loop?)");
    }
  }
  end_collect(lane);
}

// ---- Uniform dispatch --------------------------------------------------------
// A uniform-class block's on_event is the same computation on every lane in
// the event's mask (Block::event_uniformity contract, checked structurally
// and parameter-wise at construction), so it executes ONCE — on lanes_[0]'s
// block object, the shared state carrier — and its emissions broadcast under
// the event's mask. kPure blocks qualify under any mask. kLockstep blocks
// carry state, so they qualify only while every activation reaches every
// live lane; the first partial-mask activation is a cliff handled in
// dispatch_instant().

bool BatchedSim::entry_uniform(const InstEntry& e) const {
  const std::uint8_t c = uniform_class_[e.block];
  if (c == 0) return false;
  if (c == 2) return true;
  if (lockstep_ok_[e.block] == 0) return false;
  const std::uint64_t m = e.mask & live_mask_;
  // Before the shared object has advanced (not armed) a partial mask just
  // demotes the block to per-lane dispatch; afterwards it must evict.
  return m == live_mask_ || lockstep_armed_[e.block] != 0;
}

void BatchedSim::execute_uniform(std::size_t block, std::size_t event_in,
                                 std::uint64_t mask) {
  // lanes_[0] may itself be evicted: harmless — its block objects are only
  // re-initialized by the spill rerun, which happens after lockstep ends.
  // The Lane host is used purely for emission routing (uniform_mask_ makes
  // lane_collect broadcast); the contract forbids every other Context use.
  uniform_mask_ = mask;
  Lane& rep = *lanes_[0];
  Context ctx(&rep, block, time_, /*in_event=*/true);
  rep.model->block(block).on_event(ctx, event_in);
  uniform_mask_ = 0;
  if (uniform_class_[block] == 1) lockstep_armed_[block] = 1;
}

void BatchedSim::record_uniform_run(std::size_t begin, std::size_t end) {
  // The per-lane residue of a uniform run: trace event records and dispatch
  // counts. The record block is built once; every lane covered by all of
  // the run's entries (the lockstep common case) bulk-appends it, and only
  // lanes with a partial subsequence walk the entries one by one. Lanes
  // evicted mid-run get nothing — the scalar spill rewrites their traces.
  const std::size_t max_events = opts_.base.max_events;
  run_records_.clear();
  std::uint64_t covered = ~std::uint64_t{0};
  for (std::size_t i = begin; i < end; ++i) {
    const InstEntry& e = instant_q_[i];
    if (e.mask == 0) continue;
    covered &= e.mask;
    run_records_.push_back(EventRecord{time_, e.block, e.event_in});
  }
  if (run_records_.empty()) return;
  for (std::uint64_t bits = live_mask_; bits != 0; bits &= bits - 1) {
    const std::size_t l = std::countr_zero(bits);
    const std::uint64_t bit = std::uint64_t{1} << l;
    Lane& L = *lanes_[l];
    if ((covered & bit) != 0) {
      L.trace.append_events(run_records_);
      L.events += run_records_.size();
    } else {
      for (std::size_t i = begin; i < end; ++i) {
        const InstEntry& e = instant_q_[i];
        if ((e.mask & bit) == 0) continue;
        L.trace.record_event(time_, e.block, e.event_in);
        ++L.events;
      }
    }
    if (L.events > max_events) {
      throw std::runtime_error(
          "BatchedSim: max_events exceeded (runaway loop?)");
    }
  }
}

// One simulation instant. batch_ (the heap ties, already in (time, seq)
// order) seeds the shared work list; same-instant cascades append to it as
// dispatches emit them. The walk carves the list into runs of uniform
// entries — each executed once for all lanes in its mask — and varying
// segments dispatched lane-major with the consensus merge. Per-lane
// dispatch order is the list order restricted to the lane's mask, which is
// exactly the scalar Simulator's order: heap ties in seq order, then
// cascades in emission order.
void BatchedSim::dispatch_instant() {
  instant_q_.clear();
  for (const MaskedEvent& e : batch_) {
    const std::uint64_t m = e.mask & live_mask_;
    if (m != 0) instant_q_.push_back(InstEntry{e.block, e.event_in, m});
  }
  lane_active_ = true;
  std::size_t pos = 0;
  while (pos < instant_q_.size()) {
    if (entry_uniform(instant_q_[pos])) {
      const std::size_t run_begin = pos;
      while (pos < instant_q_.size()) {
        const InstEntry e = instant_q_[pos];  // copy: execute may grow the list
        const std::uint64_t m = e.mask & live_mask_;
        if (m == 0) {  // orphaned by an eviction; keep the run going
          instant_q_[pos++].mask = 0;
          continue;
        }
        if (!entry_uniform(e)) break;
        if (uniform_class_[e.block] == 1 && m != live_mask_) {
          // kLockstep cliff: the shared object's activation history can no
          // longer be every live lane's history. Keep the larger side of
          // the split; the evicted side reruns on the scalar spill path.
          const std::uint64_t rest = live_mask_ & ~m;
          if (std::popcount(m) >= std::popcount(rest)) {
            evict_lanes(rest);
          } else {
            evict_lanes(m);
            instant_q_[pos++].mask = 0;  // nobody left to take it
            continue;
          }
        }
        instant_q_[pos].mask = m;
        execute_uniform(e.block, e.event_in, m);
        ++pos;
      }
      record_uniform_run(run_begin, pos);
    } else {
      // Varying segment: the consecutive entries that will not dispatch
      // uniformly, bounded by the list size before any turn runs (cascades
      // appended by these turns are walked on later iterations). A
      // lockstep-class block dispatched per-lane is demoted for the rest of
      // the run: its per-lane objects now carry per-lane histories.
      std::size_t seg_end = pos;
      std::uint64_t owners = 0;
      while (seg_end < instant_q_.size() &&
             !entry_uniform(instant_q_[seg_end])) {
        const InstEntry& e = instant_q_[seg_end];
        const std::uint64_t m = e.mask & live_mask_;
        if (m != 0 && uniform_class_[e.block] == 1) lockstep_ok_[e.block] = 0;
        owners |= m;
        ++seg_end;
      }
      bool first = true;
      for (std::uint64_t bits = owners; bits != 0; bits &= bits - 1) {
        dispatch_lane_turn(std::countr_zero(bits), first, pos, seg_end);
        first = false;
      }
      flush_collected();
      pos = seg_end;
    }
  }
  lane_active_ = false;
}

void BatchedSim::evict_lanes(std::uint64_t mask) {
  for (std::uint64_t bits = mask; bits != 0; bits &= bits - 1) {
    lanes_[std::countr_zero(bits)]->evicted = true;
    ++evictions_;
  }
  live_mask_ &= ~mask;
}

// Scalar spill: the evicted trial's lockstep progress is discarded and the
// trial reruns from t=0 on the plain Simulator with its own seed — the
// definition of correctness, not an approximation of it.
void BatchedSim::run_spill(Lane& lane) {
  SimOptions so = opts_.base;
  so.seed = lane.seed;
  Simulator sim(*lane.model, so);
  sim.run();
  lane.trace = sim.trace();
  lane.events = sim.events_dispatched();
}

void BatchedSim::run(std::span<const std::uint64_t> seeds) {
  if (seeds.empty() || seeds.size() > lanes_.size()) {
    throw std::invalid_argument("BatchedSim::run: need 1..width() seeds");
  }
  active_ = seeds.size();
  evictions_ = 0;
  time_ = 0.0;
  queue_.clear();
  if (opts_.base.reserve_queue > 0) queue_.reserve(opts_.base.reserve_queue);
  batch_.clear();
  instant_q_.clear();
  for (std::size_t b = 0; b < uniform_class_.size(); ++b) {
    lockstep_ok_[b] = uniform_class_[b] == 1 ? 1 : 0;
    lockstep_armed_[b] = 0;
  }
  uniform_mask_ = 0;
  lane_active_ = false;
  in_integration_ = false;
  live_mask_ = active_ == 64 ? ~std::uint64_t{0}
                             : ((std::uint64_t{1} << active_) - 1);

  const std::size_t total_state = compiled_->total_state();
  for (std::size_t l = 0; l < active_; ++l) {
    Lane& L = *lanes_[l];
    L.seed = seeds[l];
    L.rng = math::Rng(seeds[l]);
    L.x.assign(total_state, 0.0);
    L.active_x = L.x.data();
    L.iws.resize(total_state);
    L.trace.clear();
    L.trace.reserve(opts_.base.reserve_events, opts_.base.reserve_signals);
    L.events = 0;
    L.evicted = false;
    std::fill(L.arena.begin(), L.arena.end(), 0.0);
  }

  // Initialize block-by-block across lanes, flushing emissions per block so
  // each lane's initial heap pushes land in scalar order (block order, then
  // within-block call order) — merged across lanes where they agree.
  const std::size_t num_blocks = compiled_->num_blocks();
  for (std::size_t b = 0; b < num_blocks; ++b) {
    for (std::size_t l = 0; l < active_; ++l) {
      Lane& L = *lanes_[l];
      begin_collect(l, l == 0);
      Context ctx(&L, b, 0.0, /*in_event=*/true);
      L.model->block(b).initialize(ctx);
      end_collect(l);
    }
    flush_collected();
  }
  for (std::size_t l = 0; l < active_; ++l) {
    refresh_lane(*lanes_[l], compiled_->eval_order(), 0.0);
  }

  const Time t_end = opts_.base.end_time;
  while (live_mask_ != 0) {
    // Entries owned solely by evicted lanes are dead — drop them before
    // reading the next event time.
    while (!queue_.empty() && (queue_.front().mask & live_mask_) == 0) {
      queue_.pop();
    }
    Time t_next = t_end;
    bool have_event = false;
    if (!queue_.empty() && queue_.next_time() <= t_end) {
      t_next = queue_.next_time();
      have_event = true;
    }
    bool popped = false;
    if (t_next > time_) {
      if (total_state > 0) {
        if (have_event) {
          // Integration boundaries must be lockstep: a lane with no entry
          // at t_next would integrate THROUGH it scalar-side, and splitting
          // its RK interval here would change rounding. Evict stragglers to
          // the scalar spill before stepping the rest.
          batch_.clear();
          queue_.pop_simultaneous(batch_);
          popped = true;
          std::uint64_t boundary = 0;
          for (const MaskedEvent& e : batch_) boundary |= e.mask;
          const std::uint64_t stragglers = live_mask_ & ~boundary;
          if (stragglers != 0) evict_lanes(stragglers);
          if (live_mask_ == 0) break;
        }
        integrate_lanes(time_, t_next);
      }
      time_ = t_next;
      for (std::uint64_t bits = live_mask_; bits != 0; bits &= bits - 1) {
        refresh_dynamic_lane(*lanes_[std::countr_zero(bits)], time_);
      }
    }
    if (!have_event) break;
    if (!popped) {
      batch_.clear();
      queue_.pop_simultaneous(batch_);
    }
    dispatch_instant();
  }

  for (std::size_t l = 0; l < active_; ++l) {
    if (lanes_[l]->evicted) run_spill(*lanes_[l]);
  }
}

}  // namespace ecsim::sim
