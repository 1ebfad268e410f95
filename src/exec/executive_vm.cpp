#include "exec/executive_vm.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <sstream>

#include "exec/channel.hpp"
#include "exec/schedule_ir.hpp"

namespace ecsim::exec {

using aaa::DataDep;
using aaa::ExecutiveProgram;

std::vector<Time> VmResult::completions(OpId op) const {
  std::vector<Time> out;
  for (const OpInstance& oi : ops) {
    if (oi.op == op) out.push_back(oi.end);
  }
  return out;
}

std::vector<Time> VmResult::starts(OpId op) const {
  std::vector<Time> out;
  for (const OpInstance& oi : ops) {
    if (oi.op == op) out.push_back(oi.start);
  }
  return out;
}

namespace {

/// Sequencer cursor over a processor program or a medium communicator.
struct Cursor {
  std::size_t pc = 0;    // instruction / transfer index within one iteration
  std::size_t iter = 0;  // current iteration
  Time t = 0.0;          // local time: everything before this has finished
  // Iteration being abandoned under DegradationPolicy::kSkipCycle (kNone
  // when none): computes are suppressed, sends still fire the stale buffer.
  std::size_t skip_iter = kNone;
  bool done(std::size_t length, std::size_t iterations) const {
    return iter >= iterations || length == 0;
  }
};

}  // namespace

VmResult run_executives(const AlgorithmGraph& alg,
                        const ArchitectureGraph& arch, const Schedule& sched,
                        const GeneratedCode& code, const VmOptions& opts) {
  VmResult result;
  const std::size_t iters = opts.iterations;

  // Fault injection (DESIGN.md §3.5): arm once against this schedule. An
  // empty plan leaves `armed` inactive and every hook below short-circuits,
  // keeping the fault-free path bit-identical to a plan-less run.
  fault::ArmedFaultPlan armed;
  if (!opts.fault_plan.empty()) {
    armed = fault::ArmedFaultPlan(opts.fault_plan, alg, arch, sched);
  }
  const bool faulting = armed.active();

  // Observability: resolve metric instruments and intern track/name ids up
  // front so the interpreter loop only tests cached pointers.
  obs::Counter* c_ops = nullptr;
  obs::Counter* c_comms = nullptr;
  obs::Counter* c_wcet = nullptr;
  if (opts.metrics != nullptr) {
    c_ops = &opts.metrics->counter("exec.ops_executed");
    c_comms = &opts.metrics->counter("exec.comms_executed");
    c_wcet = &opts.metrics->counter("exec.wcet_lookups");
  }

  // Compile step: lower the executives to the IR's schedule section. All
  // string-keyed WCET maps are resolved here; the sequencer loop below only
  // reads the flat InstrIr tables (mirrors sim::CompiledModel — compile the
  // structure, interpret only the dynamics).
  const ir::ScheduleIr sir = build_schedule_ir(alg, arch, sched, code, c_wcet);

  obs::ScopedSpan vm_span(opts.tracer, "vm.run", obs::Domain::kWall,
                          "runtime/vm");
  const bool tracing = obs::active(opts.tracer);
  std::vector<std::uint32_t> proc_track, op_name, medium_track, comm_name;
  std::uint32_t a_iter = 0;
  std::uint32_t n_loss = 0, n_delay = 0, n_dup = 0, n_overrun = 0,
                 n_stall = 0, n_stale = 0, n_skip = 0;
  if (tracing) {
    obs::Tracer& t = *opts.tracer;
    a_iter = t.intern("iteration");
    if (faulting) {
      n_loss = t.intern("fault/loss");
      n_delay = t.intern("fault/delay");
      n_dup = t.intern("fault/duplicate");
      n_overrun = t.intern("fault/overrun");
      n_stall = t.intern("fault/node-stall");
      n_stale = t.intern("fault/stale-read");
      n_skip = t.intern("fault/skip-cycle");
    }
    proc_track.resize(code.programs.size());
    for (std::size_t pi = 0; pi < code.programs.size(); ++pi) {
      proc_track[pi] =
          t.track(opts.track_prefix + "proc/" +
                      arch.processor(code.programs[pi].proc).name,
                  obs::Domain::kSim);
    }
    op_name.resize(alg.num_operations());
    for (OpId op = 0; op < alg.num_operations(); ++op) {
      op_name[op] = t.intern(alg.op(op).name);
    }
    medium_track.resize(code.communicators.size());
    for (std::size_t mi = 0; mi < code.communicators.size(); ++mi) {
      medium_track[mi] =
          t.track(opts.track_prefix + "medium/" +
                      arch.medium(code.communicators[mi].medium).name,
                  obs::Domain::kSim);
    }
    comm_name.resize(sched.comms().size());
    for (std::size_t ci = 0; ci < sched.comms().size(); ++ci) {
      const DataDep& dep = alg.dependencies()[sched.comms()[ci].dep_index];
      comm_name[ci] =
          t.intern(alg.op(dep.from).name + "->" + alg.op(dep.to).name);
    }
  }

  std::vector<Channel> channels(sched.comms().size(), Channel(iters));
  std::vector<Cursor> proc_cur(sir.executives.size());
  std::vector<Cursor> medium_cur(sir.communicators.size());

  // For multi-hop routes the communicators forward autonomously: hop k > 0
  // becomes ready when hop k-1 delivered, without the intermediate
  // processor's sequencer in the path.
  const std::vector<std::size_t> prev_hop = aaa::link_hops(sched).prev;

  // The instance counts are known exactly up front (one op instance per
  // kCompute instruction per iteration, one comm instance per scheduled
  // communication per iteration), so reserve once and never grow inside the
  // sequencer loop (DESIGN.md §3.4).
  std::size_t compute_instrs = 0;
  for (const ir::ExecutiveIr& prog : sir.executives) {
    for (const ir::InstrIr& ins : prog.instrs) {
      if (ins.kind == ir::InstrIr::Kind::kCompute) ++compute_instrs;
    }
  }
  result.ops.reserve(compute_instrs * iters);
  result.comms.reserve(sched.comms().size() * iters);

  auto advance_proc = [&](std::size_t pi) -> bool {
    Cursor& cur = proc_cur[pi];
    const ir::ExecutiveIr& prog = sir.executives[pi];
    if (cur.done(prog.instrs.size(), iters)) return false;
    const ir::InstrIr& ins = prog.instrs[cur.pc];
    switch (ins.kind) {
      case ir::InstrIr::Kind::kCompute: {
        // Skip-cycle degradation: the iteration was abandoned at a lost
        // Recv, so computations are suppressed (no op instance, no time
        // spent) while the pc still advances toward the next iteration.
        if (cur.skip_iter == cur.iter) break;
        const Operation& op = alg.op(ins.op);
        const ir::InstrIr& ci = ins;  // timing fields live on the instruction
        Time start = cur.t;
        // Release gating: sensors wait for the period tick; any op with a
        // release offset (multirate instances) additionally waits for
        // k*period + release.
        if (opts.period > 0.0 && ci.release_gated) {
          start = std::max(start, static_cast<Time>(cur.iter) * opts.period +
                                      ci.release);
        }
        // Node outage: a start falling inside a stop window defers to the
        // restart instant.
        if (faulting && armed.node_has_outages(prog.proc)) {
          const Time released = armed.node_release(prog.proc, start);
          if (released > start) {
            ++result.node_stalls;
            result.injections.push_back(fault::Injection{
                fault::FaultKind::kNodeStop, kNone, kNone, ins.op, cur.iter,
                released});
            if (tracing) {
              opts.tracer->instant(n_stall, proc_track[pi],
                                   obs::sim_us(released), a_iter,
                                   static_cast<double>(cur.iter));
            }
            start = released;
          }
        }
        const aaa::ExecDraw draw = aaa::draw_exec_time(
            op.is_conditional() ? std::span<const double>(ci.branch_wcets)
                                : std::span<const double>(&ci.wcet, 1),
            opts.bcet_fraction, opts.branch, opts.seed, aaa::op_key(ins.op),
            cur.iter);
        const std::size_t branch = op.is_conditional() ? draw.branch : kNone;
        Time dur = draw.duration;
        // Transient overrun: inflate the actual execution time.
        if (faulting) {
          std::size_t fi = kNone;
          const double factor = armed.op_factor(ins.op, cur.iter, &fi);
          if (factor > 1.0) {
            dur *= factor;
            ++result.op_overruns;
            result.injections.push_back(fault::Injection{
                fault::FaultKind::kOpOverrun, fi, kNone, ins.op, cur.iter,
                start});
            if (tracing) {
              opts.tracer->instant(n_overrun, proc_track[pi],
                                   obs::sim_us(start), a_iter,
                                   static_cast<double>(cur.iter));
            }
          }
        }
        result.ops.push_back(
            OpInstance{ins.op, cur.iter, prog.proc, start, start + dur, branch});
        if (tracing) {
          opts.tracer->span(op_name[ins.op], proc_track[pi],
                            obs::sim_us(start), obs::sim_us(start + dur),
                            a_iter, static_cast<double>(cur.iter));
        }
        if (c_ops != nullptr) c_ops->add();
        cur.t = start + dur;
        break;
      }
      case ir::InstrIr::Kind::kSend:
        // Under kSkipCycle the send still fires (with the stale buffer) so
        // downstream processors and communicators never deadlock on it.
        channels[ins.comm].mark_sent(cur.iter, cur.t);
        break;
      case ir::InstrIr::Kind::kRecv: {
        const auto delivered = channels[ins.comm].delivered(cur.iter);
        if (delivered) {
          cur.t = std::max(cur.t, *delivered);
          break;
        }
        const auto lost = channels[ins.comm].lost(cur.iter);
        if (!lost) return false;  // blocked on message
        // The message was dropped: degrade instead of deadlocking. Either
        // way local time advances to the instant the loss is knowable.
        cur.t = std::max(cur.t, *lost);
        if (opts.fault_policy == fault::DegradationPolicy::kSkipCycle) {
          if (cur.skip_iter != cur.iter) {
            cur.skip_iter = cur.iter;
            ++result.cycles_skipped;
            if (tracing) {
              opts.tracer->instant(n_skip, proc_track[pi], obs::sim_us(cur.t),
                                   a_iter, static_cast<double>(cur.iter));
            }
          }
        } else {
          ++result.stale_reads;  // proceed on the held sample
          if (tracing) {
            opts.tracer->instant(n_stale, proc_track[pi], obs::sim_us(cur.t),
                                 a_iter, static_cast<double>(cur.iter));
          }
        }
        break;
      }
    }
    if (++cur.pc == prog.instrs.size()) {
      cur.pc = 0;
      ++cur.iter;
    }
    return true;
  };

  // Occupy medium `mi` with comm `ci`, whose send signal is known at time
  // `signal`: resolves the start instant under the medium's arbitration
  // (owner-slot-aware for TDMA; under CAN every frame first waits behind
  // unmodeled background traffic: the worst-case non-preemptive blocking in
  // a WCET run, the same charge the adequation timeline carries, so the run
  // reproduces the static schedule; below WCET a keyed draw in [0,
  // blocking]), applies fault effects, and records the transfer.
  auto transmit = [&](std::size_t mi, std::size_t ci, Time signal) {
    Cursor& cur = medium_cur[mi];
    const aaa::ScheduledComm& sc = sched.comms()[ci];
    const DataDep& dep = alg.dependencies()[sc.dep_index];
    const aaa::Medium& medium = arch.medium(sir.communicators[mi].medium);
    if (medium.arbitration == aaa::Arbitration::kCanPriority) {
      const double f = opts.bcet_fraction < 1.0 ? 0.0 : 1.0;
      signal += aaa::draw_exec_time({&medium.can_blocking, 1}, f,
                                    BranchChoice::kFirst, opts.seed,
                                    aaa::can_wait_key(ci), cur.iter)
                    .duration;
    }
    const Time start = medium.earliest_start(
        std::max(cur.t, signal), alg.dep_priority(sc.dep_index));
    Time end = start + medium.transfer_time(dep.size);
    fault::ArmedFaultPlan::CommEffect eff;
    if (faulting) eff = armed.comm_effect(ci, cur.iter);
    if (eff.lost) {
      // The corrupted frame still occupied its slot; the loss is knowable
      // at the would-be delivery end (e.g. a CRC check failing there).
      channels[ci].mark_lost(cur.iter, end);
      ++result.messages_lost;
      result.injections.push_back(fault::Injection{
          fault::FaultKind::kMessageLoss, eff.loss_fault, ci, kNone, cur.iter,
          end});
      if (tracing) {
        opts.tracer->instant(n_loss, medium_track[mi], obs::sim_us(end),
                             a_iter, static_cast<double>(cur.iter));
      }
    } else {
      // Extra copies occupy the medium (retransmissions); extra delay only
      // postpones the delivery instant (e.g. gateway queueing).
      if (eff.extra_copies > 0) {
        end += static_cast<Time>(eff.extra_copies) *
               medium.transfer_time(dep.size);
        ++result.messages_duplicated;
        result.injections.push_back(fault::Injection{
            fault::FaultKind::kMessageDuplicate, eff.dup_fault, ci, kNone,
            cur.iter, end});
        if (tracing) {
          opts.tracer->instant(n_dup, medium_track[mi], obs::sim_us(end),
                               a_iter, static_cast<double>(cur.iter));
        }
      }
      Time delivery = end;
      if (eff.extra_delay > 0.0) {
        delivery += eff.extra_delay;
        ++result.messages_delayed;
        result.injections.push_back(fault::Injection{
            fault::FaultKind::kMessageDelay, eff.delay_fault, ci, kNone,
            cur.iter, delivery});
        if (tracing) {
          opts.tracer->instant(n_delay, medium_track[mi],
                               obs::sim_us(delivery), a_iter,
                               static_cast<double>(cur.iter));
        }
      }
      channels[ci].mark_delivered(cur.iter, delivery);
    }
    result.comms.push_back(CommInstance{ci, cur.iter, start, end});
    if (tracing) {
      opts.tracer->span(comm_name[ci], medium_track[mi], obs::sim_us(start),
                        obs::sim_us(end), a_iter,
                        static_cast<double>(cur.iter));
    }
    if (c_comms != nullptr) c_comms->add();
    cur.t = end;
  };

  // Every medium, CAN included, runs its communicator sequence in the static
  // order of the schedule (DESIGN.md §3.10).
  auto advance_medium = [&](std::size_t mi) -> bool {
    Cursor& cur = medium_cur[mi];
    const ir::CommunicatorIr& prog = sir.communicators[mi];
    if (cur.done(prog.comms.size(), iters)) return false;
    const std::size_t ci = prog.comms[cur.pc];
    const std::size_t p = prev_hop[ci];
    const auto signal = p == kNone ? channels[ci].sent(cur.iter)
                                   : channels[p].delivered(cur.iter);
    if (signal) {
      transmit(mi, ci, *signal);
    } else {
      // A hop whose predecessor frame was lost never carries anything:
      // propagate the loss downstream without occupying this medium.
      const auto prev_lost =
          p == kNone ? std::nullopt : channels[p].lost(cur.iter);
      if (!prev_lost) return false;  // waiting for the sender's signal
      channels[ci].mark_lost(cur.iter, *prev_lost);
    }
    if (++cur.pc == prog.comms.size()) {
      cur.pc = 0;
      ++cur.iter;
    }
    return true;
  };

  // Run to completion or quiescence.
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t pi = 0; pi < code.programs.size(); ++pi) {
      while (advance_proc(pi)) progress = true;
    }
    for (std::size_t mi = 0; mi < code.communicators.size(); ++mi) {
      while (advance_medium(mi)) progress = true;
    }
  }

  // Anyone not finished is deadlocked (blocked on a message that will never
  // arrive) — with well-formed generated code this cannot happen.
  std::ostringstream blocked;
  for (std::size_t pi = 0; pi < code.programs.size(); ++pi) {
    const Cursor& cur = proc_cur[pi];
    if (!cur.done(code.programs[pi].instrs.size(), iters)) {
      result.deadlock = true;
      blocked << "processor " << arch.processor(code.programs[pi].proc).name
              << " blocked at instr " << cur.pc << " ('"
              << code.programs[pi].instrs[cur.pc].label << "') iteration "
              << cur.iter << "; ";
    }
  }
  for (std::size_t mi = 0; mi < code.communicators.size(); ++mi) {
    const Cursor& cur = medium_cur[mi];
    if (!cur.done(code.communicators[mi].comms.size(), iters)) {
      result.deadlock = true;
      blocked << "medium " << arch.medium(code.communicators[mi].medium).name
              << " blocked at transfer " << cur.pc << " iteration " << cur.iter
              << "; ";
    }
  }
  result.deadlock_info = blocked.str();

  // Deterministic report order regardless of the advancing interleaving.
  std::sort(result.ops.begin(), result.ops.end(),
            [](const OpInstance& a, const OpInstance& b) {
              if (a.start != b.start) return a.start < b.start;
              if (a.proc != b.proc) return a.proc < b.proc;
              return a.op < b.op;
            });
  std::sort(result.comms.begin(), result.comms.end(),
            [](const CommInstance& a, const CommInstance& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.comm < b.comm;
            });
  std::sort(result.injections.begin(), result.injections.end(),
            [](const fault::Injection& a, const fault::Injection& b) {
              if (a.iteration != b.iteration) return a.iteration < b.iteration;
              if (a.at != b.at) return a.at < b.at;
              if (a.kind != b.kind) return a.kind < b.kind;
              if (a.comm != b.comm) return a.comm < b.comm;
              return a.op < b.op;
            });
  return result;
}

}  // namespace ecsim::exec
