#include "aaa/codegen.hpp"

#include <sstream>

namespace ecsim::aaa {

namespace {

std::string comm_label(const AlgorithmGraph& alg, const Schedule& sched,
                       std::size_t comm_index) {
  const ScheduledComm& sc = sched.comms()[comm_index];
  const DataDep& dep = alg.dependencies()[sc.dep_index];
  return alg.op(dep.from).name + ">" + alg.op(dep.to).name + "#" +
         std::to_string(sc.hop_index);
}

}  // namespace

GeneratedCode generate_executives(const AlgorithmGraph& alg,
                                  const ArchitectureGraph& arch,
                                  const Schedule& sched) {
  GeneratedCode code;
  const std::size_t n_procs = sched.num_procs();

  // Each processor runs its operations in the schedule's execution order.
  // A compute is preceded by the waits for its cross-processor inputs (the
  // last hop of each route delivering to it) and followed by the signals of
  // its outputs (the first hop of each route leaving it), as SynDEx places
  // its semaphores: a processor blocks only on the data its next operation
  // consumes — exactly the synchronization the graph of delays models (paper
  // §3.2.3) — and publishes data the moment it is produced. Intermediate
  // hops are forwarded autonomously by the communicators, which is also how
  // the adequation models them.
  const HopLinks hops = link_hops(sched);
  std::vector<std::vector<std::size_t>> recvs(alg.num_operations());
  std::vector<std::vector<std::size_t>> sends(alg.num_operations());
  for (std::size_t ci = 0; ci < sched.comms().size(); ++ci) {
    const ScheduledComm& sc = sched.comms()[ci];
    const DataDep& dep = alg.dependencies()[sc.dep_index];
    if (sc.hop_index == 0) sends[dep.from].push_back(ci);
    if (hops.next[ci] == kNone) recvs[dep.to].push_back(ci);
  }
  for (ProcId p = 0; p < n_procs; ++p) {
    ExecutiveProgram prog;
    prog.proc = p;
    for (const std::size_t idx : sched.ops_on(p)) {
      const OpId op = sched.ops()[idx].op;
      for (const std::size_t ci : recvs[op]) {
        Instr recv;
        recv.kind = InstrKind::kRecv;
        recv.comm = ci;
        recv.label = "recv " + comm_label(alg, sched, ci);
        prog.instrs.push_back(std::move(recv));
      }
      Instr compute;
      compute.kind = InstrKind::kCompute;
      compute.op = op;
      compute.label = alg.op(op).name;
      prog.instrs.push_back(std::move(compute));
      for (const std::size_t ci : sends[op]) {
        Instr send;
        send.kind = InstrKind::kSend;
        send.comm = ci;
        send.label = "send " + comm_label(alg, sched, ci);
        prog.instrs.push_back(std::move(send));
      }
    }
    code.programs.push_back(std::move(prog));
  }

  for (MediumId m = 0; m < sched.num_media(); ++m) {
    CommunicatorProgram comm;
    comm.medium = m;
    comm.comms = sched.comms_on(m);
    code.communicators.push_back(std::move(comm));
  }

  // C-like source rendering, one infinite loop per sequencer, synchronized
  // by semaphores (one full/empty pair per transfer).
  std::ostringstream os;
  os << "/* generated by ecsim::aaa for algorithm '" << alg.name() << "' on '"
     << arch.name() << "' */\n";
  for (const ExecutiveProgram& prog : code.programs) {
    const Processor& proc = arch.processor(prog.proc);
    os << "void main_" << proc.name << "(void) { /* type " << proc.type
       << " */\n  for (;;) {\n";
    for (const Instr& ins : prog.instrs) {
      switch (ins.kind) {
        case InstrKind::kCompute: {
          const Operation& op = alg.op(ins.op);
          if (op.kind == OpKind::kSensor) {
            os << "    wait_period();\n";
          }
          if (op.release > 0.0) {
            os << "    wait_release(" << op.release << ");\n";
          }
          if (op.is_conditional()) {
            os << "    switch (cond) { /* " << op.name << " */\n";
            for (std::size_t b = 0; b < op.branches.size(); ++b) {
              os << "      case " << b << ": " << op.branches[b].name
                 << "(); break;\n";
            }
            os << "    }\n";
          } else {
            os << "    " << op.name << "();\n";
          }
          break;
        }
        case InstrKind::kSend:
          os << "    sem_signal(full_" << ins.comm << "); /* " << ins.label
             << " */\n";
          break;
        case InstrKind::kRecv:
          os << "    sem_wait(done_" << ins.comm << "); /* " << ins.label
             << " */\n";
          break;
      }
    }
    os << "  }\n}\n";
  }
  for (const CommunicatorProgram& comm : code.communicators) {
    os << "void communicator_" << arch.medium(comm.medium).name
       << "(void) {\n  for (;;) {\n";
    for (std::size_t ci : comm.comms) {
      os << "    sem_wait(full_" << ci << "); transfer(" << ci
         << "); sem_signal(done_" << ci << "); /* "
         << comm_label(alg, sched, ci) << " */\n";
    }
    os << "  }\n}\n";
  }
  code.source = os.str();
  return code;
}

}  // namespace ecsim::aaa
