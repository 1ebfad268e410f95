#include "aaa/codegen.hpp"

#include <algorithm>
#include <sstream>

namespace ecsim::aaa {

namespace {

struct TimedInstr {
  Time time = 0.0;
  // Tie-break at equal instants: recv (consume arrivals) < send (publish
  // data of an op that just completed) < compute (start the next op). A
  // send sorted after a compute starting at the same instant would hold the
  // communicator hostage for that compute's whole duration.
  int kind_rank = 0;  // recv(0) < send(1) < compute(2)
  std::size_t order = 0;
  Instr instr;
};

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

  std::vector<std::vector<TimedInstr>> timed(n_procs);
  for (std::size_t i = 0; i < sched.ops().size(); ++i) {
    const ScheduledOp& so = sched.ops()[i];
    Instr ins;
    ins.kind = InstrKind::kCompute;
    ins.op = so.op;
    ins.label = alg.op(so.op).name;
    timed[so.proc].push_back(TimedInstr{so.start, 2, i, std::move(ins)});
  }
  // Processor sequencers only interact with the first hop (signal that the
  // data is available) and the last hop (wait for delivery) of each route;
  // intermediate hops are forwarded autonomously by the communicators, which
  // is also how the adequation models them. The send is a pure signal placed
  // right after the producing compute — NOT at the transfer's start time,
  // which can be later due to medium contention (an unrelated long compute
  // scheduled in between would otherwise block the signal).
  const HopLinks hops = link_hops(sched);
  for (std::size_t ci = 0; ci < sched.comms().size(); ++ci) {
    const ScheduledComm& sc = sched.comms()[ci];
    const bool is_last_hop = hops.next[ci] == kNone;
    if (sc.hop_index == 0) {
      const Time data_ready =
          sched.of_op(alg.dependencies()[sc.dep_index].from).end;
      Instr send;
      send.kind = InstrKind::kSend;
      send.comm = ci;
      send.label = "send " + comm_label(alg, sched, ci);
      timed[sc.hop.from_proc].push_back(
          TimedInstr{data_ready, 1, ci, std::move(send)});
    }
    if (is_last_hop) {
      Instr recv;
      recv.kind = InstrKind::kRecv;
      recv.comm = ci;
      recv.label = "recv " + comm_label(alg, sched, ci);
      timed[sc.hop.to_proc].push_back(
          TimedInstr{sc.end, 0, ci, std::move(recv)});
    }
  }

  for (ProcId p = 0; p < n_procs; ++p) {
    std::sort(timed[p].begin(), timed[p].end(),
              [](const TimedInstr& a, const TimedInstr& b) {
                if (a.time != b.time) return a.time < b.time;
                if (a.kind_rank != b.kind_rank) return a.kind_rank < b.kind_rank;
                return a.order < b.order;
              });
    ExecutiveProgram prog;
    prog.proc = p;
    for (TimedInstr& t : timed[p]) prog.instrs.push_back(std::move(t.instr));
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
