#include "io/dot.hpp"

#include <sstream>

namespace ecsim::io {

namespace {

/// DOT identifiers cannot contain arbitrary characters; quote + escape.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

std::string to_dot(const sim::Model& model, const std::string& name) {
  std::ostringstream os;
  os << "digraph " << quoted(name) << " {\n";
  os << "  rankdir=LR;\n  node [shape=box, fontsize=10];\n";
  for (std::size_t b = 0; b < model.num_blocks(); ++b) {
    os << "  n" << b << " [label=" << quoted(model.block(b).name()) << "];\n";
  }
  for (const sim::DataWire& w : model.data_wires()) {
    os << "  n" << w.from.block << " -> n" << w.to.block << " [label=\""
       << w.from.port << ">" << w.to.port << "\"];\n";
  }
  for (const sim::EventWire& w : model.event_wires()) {
    os << "  n" << w.from.block << " -> n" << w.to.block
       << " [style=dashed, color=red, label=\"e" << w.from.port << ">e"
       << w.to.port << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

std::string to_dot(const aaa::AlgorithmGraph& alg) {
  std::ostringstream os;
  os << "digraph " << quoted(alg.name()) << " {\n";
  os << "  rankdir=LR;\n  node [fontsize=10];\n";
  for (aaa::OpId i = 0; i < alg.num_operations(); ++i) {
    const aaa::Operation& op = alg.op(i);
    const char* shape = op.kind == aaa::OpKind::kSensor     ? "invhouse"
                        : op.kind == aaa::OpKind::kActuator ? "house"
                                                            : "box";
    std::string label = op.name;
    if (op.is_conditional()) {
      label += " [" + std::to_string(op.branches.size()) + " branches]";
    }
    if (op.bound_processor) label += "\\n@" + *op.bound_processor;
    os << "  op" << i << " [shape=" << shape << ", label=" << quoted(label)
       << "];\n";
  }
  for (const aaa::DataDep& d : alg.dependencies()) {
    os << "  op" << d.from << " -> op" << d.to << " [label=\"" << d.size
       << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

std::string to_dot(const aaa::ArchitectureGraph& arch) {
  std::ostringstream os;
  os << "graph " << quoted(arch.name()) << " {\n";
  os << "  node [fontsize=10];\n";
  for (aaa::ProcId p = 0; p < arch.num_processors(); ++p) {
    os << "  p" << p << " [shape=box, label="
       << quoted(arch.processor(p).name + "\\n(" + arch.processor(p).type + ")")
       << "];\n";
  }
  for (aaa::MediumId m = 0; m < arch.num_media(); ++m) {
    const aaa::Medium& med = arch.medium(m);
    std::string label = med.name + "\\nbw=" + std::to_string(med.bandwidth);
    if (med.arbitration == aaa::Arbitration::kTdma) {
      label += " tdma=" + std::to_string(med.tdma_slot);
      if (med.tdma_slots > 1) {
        label += 'x';
        label += std::to_string(med.tdma_slots);
      }
    } else if (med.arbitration == aaa::Arbitration::kCanPriority) {
      label += " can";
      if (med.can_blocking > 0.0) {
        label += " block=" + std::to_string(med.can_blocking);
      }
    }
    if (med.background_load > 0.0) {
      label += " load=" + std::to_string(med.background_load);
    }
    os << "  m" << m << " [shape=ellipse, style=filled, fillcolor=lightgray, "
       << "label=" << quoted(label) << "];\n";
    for (aaa::ProcId p : arch.procs_on(m)) {
      os << "  p" << p << " -- m" << m << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

std::string schedule_to_dot(const aaa::AlgorithmGraph& alg,
                            const aaa::ArchitectureGraph& arch,
                            const aaa::Schedule& sched) {
  std::ostringstream os;
  os << "digraph schedule {\n  rankdir=LR;\n  node [shape=record, fontsize=9];\n";
  for (aaa::ProcId p = 0; p < sched.num_procs(); ++p) {
    os << "  proc" << p << " [label=\"" << arch.processor(p).name;
    for (std::size_t idx : sched.ops_on(p)) {
      const aaa::ScheduledOp& so = sched.ops()[idx];
      os << " | " << alg.op(so.op).name << "\\n[" << so.start << "," << so.end
         << ")";
    }
    os << "\"];\n";
  }
  for (aaa::MediumId m = 0; m < sched.num_media(); ++m) {
    os << "  medium" << m << " [label=\"" << arch.medium(m).name;
    for (std::size_t idx : sched.comms_on(m)) {
      const aaa::ScheduledComm& sc = sched.comms()[idx];
      const aaa::DataDep& dep = alg.dependencies()[sc.dep_index];
      os << " | " << alg.op(dep.from).name << "\\>" << alg.op(dep.to).name
         << "\\n[" << sc.start << "," << sc.end << ")";
    }
    os << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace ecsim::io
