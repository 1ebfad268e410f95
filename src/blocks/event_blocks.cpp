#include "blocks/event_blocks.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace ecsim::blocks {

namespace {

/// Attribute encoding of a DurationSpec ("dist" tag + per-kind parameters);
/// blocks::duration_from_attrs is the inverse.
void describe_duration(ir::BlockIr& out, const DurationSpec& s) {
  out.attrs.push_back(
      ir::Attr::of_int("dist", static_cast<long long>(s.kind)));
  switch (s.kind) {
    case DurationSpec::Kind::kConstant:
      out.attrs.push_back(ir::Attr::of_real("value", s.value));
      break;
    case DurationSpec::Kind::kShiftedUniform:
      out.attrs.push_back(ir::Attr::of_real("base", s.base));
      out.attrs.push_back(ir::Attr::of_real("jitter", s.jitter));
      out.attrs.push_back(
          ir::Attr::of_int("key", static_cast<long long>(s.key)));
      break;
    case DurationSpec::Kind::kKeyed:
      out.attrs.push_back(ir::Attr::of_vec("branch_wcets", s.branch_wcets));
      out.attrs.push_back(
          ir::Attr::of_real("bcet_fraction", s.bcet_fraction));
      out.attrs.push_back(
          ir::Attr::of_int("branch", static_cast<long long>(s.branch)));
      out.attrs.push_back(
          ir::Attr::of_int("key", static_cast<long long>(s.key)));
      break;
  }
}

}  // namespace

EventDelay::EventDelay(std::string name, Time duration)
    : EventDelay(std::move(name), constant_duration(duration)) {}

EventDelay::EventDelay(std::string name, DurationSpec spec)
    : Block(std::move(name)), spec_(std::move(spec)) {
  add_event_input();
  add_event_output();
}

void EventDelay::initialize(Context&) {
  busy_until_ = 0.0;
  busy_hits_ = 0;
  count_ = 0;
}

void EventDelay::on_event(Context& ctx, std::size_t) {
  const Time now = ctx.time();
  Time start = now;
  if (busy_until_ > now) {
    start = busy_until_;
    ++busy_hits_;
  }
  const Time d = sample_duration(spec_, ctx.seed(), count_++);
  if (d < 0.0) throw std::runtime_error("EventDelay: sampler returned < 0");
  busy_until_ = start + d;
  ctx.emit(0, busy_until_ - now);
}

void EventDelay::describe(ir::BlockIr& out) const {
  out.kind = "EventDelay";
  describe_duration(out, spec_);
}

EventSelect::EventSelect(std::string name, std::size_t n_channels,
                         std::size_t cond_width, ConditionMapping mapping)
    : Block(std::move(name)), n_channels_(n_channels), mapping_(std::move(mapping)) {
  if (n_channels == 0) throw std::invalid_argument("EventSelect: no channels");
  if (!mapping_) throw std::invalid_argument("EventSelect: null mapping");
  add_input(cond_width);
  add_event_input();
  for (std::size_t i = 0; i < n_channels; ++i) add_event_output();
}

std::unique_ptr<EventSelect> EventSelect::make_threshold(std::string name,
                                                         double threshold) {
  return std::make_unique<EventSelect>(
      std::move(name), 2, 1, [threshold](std::span<const double> v) {
        return static_cast<std::size_t>(v[0] > threshold ? 1 : 0);
      });
}

void EventSelect::on_event(Context& ctx, std::size_t) {
  const std::size_t ch = mapping_(ctx.input(0));
  if (ch >= n_channels_) {
    throw std::runtime_error("EventSelect '" + name() +
                             "': mapping returned out-of-range channel");
  }
  ctx.emit(ch, 0.0);
}

void EventSelect::describe(ir::BlockIr& out) const {
  out.kind = "EventSelect";
  out.opaque = true;  // the condition mapping is an arbitrary closure
}

TdmaGate::TdmaGate(std::string name, Time slot, std::size_t slots,
                   std::size_t owner)
    : Block(std::move(name)),
      slot_(slot),
      slots_(slots),
      owner_(slots > 0 ? owner % slots : 0) {
  if (slot <= 0.0) throw std::invalid_argument("TdmaGate: slot must be > 0");
  if (slots == 0) throw std::invalid_argument("TdmaGate: slots must be >= 1");
  add_event_input();
  add_event_output();
}

void TdmaGate::on_event(Context& ctx, std::size_t) {
  const Time now = ctx.time();
  // Same boundary formula as aaa::Medium::earliest_start so the schedule,
  // the executive VM and the co-simulation agree to rounding error. With
  // slots_ == 1 round == slot_ and offset == 0: the classic any-boundary
  // grid.
  const Time round = static_cast<Time>(slots_) * slot_;
  const Time offset = static_cast<Time>(owner_) * slot_;
  const double k = std::ceil((now - offset) / round - 1e-9);
  const Time boundary = std::max(0.0, k) * round + offset;
  ctx.emit(0, std::max(0.0, boundary - now));
}

void TdmaGate::describe(ir::BlockIr& out) const {
  out.kind = "TdmaGate";
  out.attrs.push_back(ir::Attr::of_real("slot", slot_));
  // Omitted at the single-slot default so pre-owner-slot IRs (and their
  // structural hashes) stay byte-identical.
  if (slots_ > 1) {
    out.attrs.push_back(
        ir::Attr::of_int("slots", static_cast<long long>(slots_)));
    out.attrs.push_back(
        ir::Attr::of_int("owner", static_cast<long long>(owner_)));
  }
}

EventMerge::EventMerge(std::string name, std::size_t n_inputs)
    : Block(std::move(name)) {
  if (n_inputs == 0) throw std::invalid_argument("EventMerge: no inputs");
  for (std::size_t i = 0; i < n_inputs; ++i) add_event_input();
  add_event_output();
}

void EventMerge::on_event(Context& ctx, std::size_t) { ctx.emit(0, 0.0); }

void EventMerge::describe(ir::BlockIr& out) const {
  out.kind = "EventMerge";
}

EventFault::EventFault(std::string name, fault::CommGate gate)
    : Block(std::move(name)), gate_(std::move(gate)) {
  add_event_input();
  add_event_output();
}

void EventFault::initialize(Context&) { count_ = 0; }

void EventFault::on_event(Context& ctx, std::size_t) {
  const fault::CommGateAction a = fault::comm_gate_decide(gate_, count_++);
  if (!a.drop) ctx.emit(0, a.defer);
}

void EventFault::describe(ir::BlockIr& out) const {
  out.kind = "EventFault";
  const fault::CommGate& g = gate_;
  out.attrs.push_back(
      ir::Attr::of_int("seed", static_cast<long long>(g.seed)));
  out.attrs.push_back(ir::Attr::of_real("period", g.period));
  out.attrs.push_back(
      ir::Attr::of_int("comm_index", static_cast<long long>(g.comm_index)));
  out.attrs.push_back(
      ir::Attr::of_real("transfer_duration", g.transfer_duration));
  // One row per entry: [fault, kind, probability, delay, extra_copies,
  // t_start, t_stop]. Indices fit doubles exactly for any realistic plan.
  std::vector<double> rows;
  rows.reserve(g.entries.size() * 7);
  for (const fault::CommGateEntry& e : g.entries) {
    rows.push_back(static_cast<double>(e.fault));
    rows.push_back(static_cast<double>(e.kind));
    rows.push_back(e.probability);
    rows.push_back(e.delay);
    rows.push_back(static_cast<double>(e.extra_copies));
    rows.push_back(e.t_start);
    rows.push_back(e.t_stop);
  }
  out.attrs.push_back(
      ir::Attr::of_matrix("entries", g.entries.size(), 7, std::move(rows)));
}

EventDivider::EventDivider(std::string name, std::size_t divisor,
                           std::size_t phase)
    : Block(std::move(name)), divisor_(divisor), phase_(phase) {
  if (divisor == 0) throw std::invalid_argument("EventDivider: divisor >= 1");
  if (phase >= divisor) {
    throw std::invalid_argument("EventDivider: phase must be < divisor");
  }
  add_event_input();
  add_event_output();
}

void EventDivider::initialize(Context&) { count_ = 0; }

void EventDivider::on_event(Context& ctx, std::size_t) {
  if (count_ % divisor_ == phase_) ctx.emit(0, 0.0);
  ++count_;
}

void EventDivider::describe(ir::BlockIr& out) const {
  out.kind = "EventDivider";
  out.attrs.push_back(
      ir::Attr::of_int("divisor", static_cast<long long>(divisor_)));
  out.attrs.push_back(
      ir::Attr::of_int("phase", static_cast<long long>(phase_)));
}

}  // namespace ecsim::blocks
