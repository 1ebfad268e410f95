#include "blocks/to_model.hpp"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "blocks/continuous.hpp"
#include "blocks/discrete.hpp"
#include "blocks/event_blocks.hpp"
#include "blocks/math_blocks.hpp"
#include "blocks/probe.hpp"
#include "blocks/sample_hold.hpp"
#include "blocks/sources.hpp"
#include "blocks/synchronization.hpp"
#include "mathlib/matrix.hpp"

namespace ecsim::blocks {

namespace {

[[noreturn]] void bad(const ir::BlockIr& b, const std::string& why) {
  throw std::invalid_argument("to_model: block '" + b.name + "' (" +
                              (b.kind.empty() ? "?" : b.kind) + "): " + why);
}

const ir::Attr& need(const ir::BlockIr& b, const char* key,
                     ir::Attr::Kind kind) {
  const ir::Attr* a = b.find(key);
  if (a == nullptr) bad(b, "missing attr '" + std::string(key) + "'");
  if (a->kind != kind) bad(b, "attr '" + std::string(key) + "' has wrong type");
  return *a;
}

double real_of(const ir::BlockIr& b, const char* key) {
  return need(b, key, ir::Attr::Kind::kReal).r;
}

long long int_of(const ir::BlockIr& b, const char* key) {
  return need(b, key, ir::Attr::Kind::kInt).i;
}

std::vector<double> vec_of(const ir::BlockIr& b, const char* key) {
  return need(b, key, ir::Attr::Kind::kRealVec).vec;
}

math::Matrix matrix_of(const ir::BlockIr& b, const char* key) {
  const ir::Attr& a = need(b, key, ir::Attr::Kind::kMatrix);
  if (a.vec.size() != a.rows * a.cols) bad(b, "matrix attr size mismatch");
  math::Matrix m(a.rows, a.cols);
  for (std::size_t i = 0; i < a.vec.size(); ++i) m.data()[i] = a.vec[i];
  return m;
}

std::size_t in_width0(const ir::BlockIr& b) {
  if (b.in_widths.empty()) bad(b, "expected a data input");
  return b.in_widths[0];
}

}  // namespace

DurationSpec duration_from_attrs(const ir::BlockIr& b) {
  const long long tag = int_of(b, "dist");
  switch (static_cast<DurationSpec::Kind>(tag)) {
    case DurationSpec::Kind::kConstant:
      return constant_duration(real_of(b, "value"));
    case DurationSpec::Kind::kShiftedUniform:
      return shifted_uniform_duration(
          real_of(b, "base"), real_of(b, "jitter"),
          static_cast<std::uint64_t>(int_of(b, "key")));
    case DurationSpec::Kind::kKeyed: {
      const long long branch = int_of(b, "branch");
      if (branch < 0 || branch > 2) bad(b, "unknown branch choice");
      return keyed_duration(vec_of(b, "branch_wcets"),
                            real_of(b, "bcet_fraction"),
                            static_cast<aaa::BranchChoice>(branch),
                            static_cast<std::uint64_t>(int_of(b, "key")));
    }
  }
  bad(b, "unregenerable duration distribution (tag " + std::to_string(tag) +
             ")");
}

fault::CommGate comm_gate_from_attrs(const ir::BlockIr& b) {
  fault::CommGate g;
  g.seed = static_cast<std::uint64_t>(int_of(b, "seed"));
  g.period = real_of(b, "period");
  g.comm_index = static_cast<std::size_t>(int_of(b, "comm_index"));
  g.transfer_duration = real_of(b, "transfer_duration");
  const ir::Attr& e = need(b, "entries", ir::Attr::Kind::kMatrix);
  if (e.cols != 7 || e.vec.size() != e.rows * 7) {
    bad(b, "gate entries must be an n x 7 matrix");
  }
  g.entries.reserve(e.rows);
  for (std::size_t i = 0; i < e.rows; ++i) {
    const double* row = e.vec.data() + i * 7;
    fault::CommGateEntry entry;
    entry.fault = static_cast<std::size_t>(row[0]);
    const int kind = static_cast<int>(row[1]);
    if (kind < 0 || kind > 2) bad(b, "gate entry has unknown kind");
    entry.kind = static_cast<fault::CommGateEntry::Kind>(kind);
    entry.probability = row[2];
    entry.delay = row[3];
    entry.extra_copies = static_cast<std::size_t>(row[4]);
    entry.t_start = row[5];
    entry.t_stop = row[6];
    g.entries.push_back(entry);
  }
  return g;
}

std::unique_ptr<sim::Block> make_block(const ir::BlockIr& b) {
  if (b.opaque) bad(b, "opaque (behaviour lives in a user closure)");
  const std::string& k = b.kind;
  if (k == "Clock") {
    return std::make_unique<Clock>(b.name, real_of(b, "period"),
                                   real_of(b, "offset"));
  }
  if (k == "Constant") {
    return std::make_unique<Constant>(b.name, vec_of(b, "value"));
  }
  if (k == "Step") {
    return std::make_unique<Step>(b.name, real_of(b, "initial"),
                                  real_of(b, "final"),
                                  real_of(b, "step_time"));
  }
  if (k == "Sine") {
    return std::make_unique<Sine>(b.name, real_of(b, "amplitude"),
                                  real_of(b, "frequency"), real_of(b, "phase"),
                                  real_of(b, "bias"));
  }
  if (k == "Pulse") {
    return std::make_unique<Pulse>(b.name, real_of(b, "low"),
                                   real_of(b, "high"), real_of(b, "period"),
                                   real_of(b, "duty"));
  }
  if (k == "NoiseHold") {
    return std::make_unique<NoiseHold>(
        b.name, real_of(b, "mean"), real_of(b, "stddev"),
        static_cast<std::uint64_t>(int_of(b, "key")));
  }
  if (k == "Integrator") {
    return std::make_unique<Integrator>(b.name, vec_of(b, "x0"));
  }
  if (k == "StateSpaceCont") {
    return std::make_unique<StateSpaceCont>(
        b.name, matrix_of(b, "a"), matrix_of(b, "b"), matrix_of(b, "c"),
        matrix_of(b, "d"), vec_of(b, "x0"));
  }
  if (k == "Gain") {
    return std::make_unique<Gain>(b.name, matrix_of(b, "k"));
  }
  if (k == "Sum") {
    return std::make_unique<Sum>(b.name, vec_of(b, "signs"), in_width0(b));
  }
  if (k == "Saturation") {
    return std::make_unique<Saturation>(b.name, real_of(b, "lo"),
                                        real_of(b, "hi"), in_width0(b));
  }
  if (k == "Quantizer") {
    return std::make_unique<Quantizer>(b.name, real_of(b, "step"),
                                       in_width0(b));
  }
  if (k == "Mux") {
    return std::make_unique<Mux>(b.name, b.in_widths);
  }
  if (k == "Demux") {
    return std::make_unique<Demux>(b.name, b.out_widths);
  }
  if (k == "StateSpaceDisc") {
    return std::make_unique<StateSpaceDisc>(
        b.name, matrix_of(b, "a"), matrix_of(b, "b"), matrix_of(b, "c"),
        matrix_of(b, "d"), vec_of(b, "x0"));
  }
  if (k == "PidDiscrete") {
    PidDiscrete::Params p;
    p.kp = real_of(b, "kp");
    p.ki = real_of(b, "ki");
    p.kd = real_of(b, "kd");
    p.ts = real_of(b, "ts");
    p.n = real_of(b, "n");
    p.u_min = real_of(b, "u_min");
    p.u_max = real_of(b, "u_max");
    return std::make_unique<PidDiscrete>(b.name, p);
  }
  if (k == "UnitDelay") {
    return std::make_unique<UnitDelay>(b.name, vec_of(b, "init"));
  }
  if (k == "EventCounter") {
    return std::make_unique<EventCounter>(b.name);
  }
  if (k == "SampleHold") {
    return std::make_unique<SampleHold>(b.name, in_width0(b),
                                        vec_of(b, "initial"));
  }
  if (k == "Probe") {
    return std::make_unique<Probe>(b.name, in_width0(b),
                                   real_of(b, "record_period"));
  }
  if (k == "Synchronization") {
    return std::make_unique<Synchronization>(b.name, b.n_event_in);
  }
  if (k == "EventDelay") {
    return std::make_unique<EventDelay>(b.name, duration_from_attrs(b));
  }
  if (k == "TdmaGate") {
    // slots/owner are omitted from the IR at the single-slot default.
    const std::size_t slots =
        b.find("slots") != nullptr
            ? static_cast<std::size_t>(int_of(b, "slots"))
            : 1;
    const std::size_t owner =
        b.find("owner") != nullptr
            ? static_cast<std::size_t>(int_of(b, "owner"))
            : 0;
    return std::make_unique<TdmaGate>(b.name, real_of(b, "slot"), slots,
                                      owner);
  }
  if (k == "EventMerge") {
    return std::make_unique<EventMerge>(b.name, b.n_event_in);
  }
  if (k == "EventFault") {
    return std::make_unique<EventFault>(b.name, comm_gate_from_attrs(b));
  }
  if (k == "EventDivider") {
    return std::make_unique<EventDivider>(
        b.name, static_cast<std::size_t>(int_of(b, "divisor")),
        static_cast<std::size_t>(int_of(b, "phase")));
  }
  bad(b, "unknown kind");
}

sim::Model to_model(const ir::Model& irm) {
  sim::Model m;
  for (const ir::BlockIr& b : irm.blocks) m.add_block(make_block(b));
  for (const ir::WireIr& w : irm.data_wires) {
    m.connect(m.block(w.from.block), w.from.port, m.block(w.to.block),
              w.to.port);
  }
  for (const ir::WireIr& w : irm.event_wires) {
    m.connect_event(m.block(w.from.block), w.from.port, m.block(w.to.block),
                    w.to.port);
  }
  return m;
}

}  // namespace ecsim::blocks
