#include "exec/executive_vm.hpp"

#include <algorithm>
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

ExecTimeFn uniform_fraction_exec_time(double lo_frac) {
  return [lo_frac](const Operation&, Time wcet, math::Rng& rng) {
    return wcet * rng.uniform(lo_frac, 1.0);
  };
}

BranchFn uniform_branch_chooser() {
  return [](const Operation& op, std::size_t, math::Rng& rng) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(op.branches.size()) - 1));
  };
}

BranchFn worst_case_branch_chooser() {
  return [](const Operation& op, std::size_t, math::Rng&) {
    std::size_t worst = 0;
    Time worst_wcet = -1.0;
    for (std::size_t b = 0; b < op.branches.size(); ++b) {
      Time w = 0.0;
      for (const auto& [type, t] : op.branches[b].wcet) w = std::max(w, t);
      if (w > worst_wcet) {
        worst_wcet = w;
        worst = b;
      }
    }
    return worst;
  };
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

/// Arbitration index of one CAN medium over the iteration its communicator
/// is serving (DESIGN.md §3.10). Each slot of the comm list is in one state;
/// the pending ones are filed so that a commit reads only the frames that
/// can win and one bound per sender, never the whole slot list.
struct CanIndex {
  enum class Slot : std::uint8_t {
    kWaiting,   // signal not known yet
    kKnown,     // sent (hop 0) or previous hop delivered: contends now
    kPrevLost,  // previous hop lost: propagates without the bus
    kDone,      // transferred or propagated this iteration
  };
  std::vector<Slot> slot;
  /// Per slot: the waiting counter its frame counts in — its sender
  /// processor p (hop 0) or P + its predecessor's medium (later hops) — or
  /// kNone when that sender can never contest (no sending processor, or a
  /// predecessor on this very medium).
  std::vector<std::size_t> sender;
  std::vector<std::size_t> known;      // kKnown slots, ascending
  std::vector<std::size_t> prev_lost;  // kPrevLost slots, ascending
  std::vector<std::size_t> waiting;    // kWaiting frames per sender
  std::size_t left = 0;                // slots not kDone

  /// Files waiting slot `k` as kKnown or kPrevLost.
  void settle(std::size_t k, Slot to) {
    if (sender[k] != kNone) --waiting[sender[k]];
    slot[k] = to;
    std::vector<std::size_t>& list = to == Slot::kKnown ? known : prev_lost;
    list.insert(std::lower_bound(list.begin(), list.end(), k), k);
  }
  /// Retires a kKnown or kPrevLost slot.
  void finish(std::size_t k) {
    std::vector<std::size_t>& list = slot[k] == Slot::kKnown ? known : prev_lost;
    list.erase(std::lower_bound(list.begin(), list.end(), k));
    slot[k] = Slot::kDone;
    --left;
  }
};

}  // namespace

VmResult run_executives(const AlgorithmGraph& alg,
                        const ArchitectureGraph& arch, const Schedule& sched,
                        const GeneratedCode& code, const VmOptions& opts) {
  VmResult result;
  math::Rng rng(opts.seed);
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

  // CAN priority arbitration replaces the static program-order cursor with
  // dynamic per-iteration selection, served from one CanIndex per CAN
  // medium. Precomputed cross-references let the arbitration reason about
  // senders that have not signalled yet.
  std::vector<std::uint8_t> is_can(sir.communicators.size(), 0);
  for (std::size_t mi = 0; mi < sir.communicators.size(); ++mi) {
    is_can[mi] = arch.medium(sir.communicators[mi].medium).arbitration ==
                 aaa::Arbitration::kCanPriority;
  }
  const bool any_can =
      std::find(is_can.begin(), is_can.end(), 1) != is_can.end();
  // Processor program that owns each comm's kSend (hop-0 comms only).
  std::vector<std::size_t> send_proc;
  // (communicator index, slot within its comm list) of every comm.
  std::vector<std::pair<std::size_t, std::size_t>> comm_slot;
  // Comms whose previous hop is comm c: follows[follows_at[c] ..
  // follows_at[c + 1]).
  std::vector<std::size_t> follows_at, follows;
  std::vector<CanIndex> can(sir.communicators.size());
  if (any_can) {
    send_proc.assign(sched.comms().size(), kNone);
    for (std::size_t pi = 0; pi < sir.executives.size(); ++pi) {
      for (const ir::InstrIr& ins : sir.executives[pi].instrs) {
        if (ins.kind == ir::InstrIr::Kind::kSend) send_proc[ins.comm] = pi;
      }
    }
    comm_slot.assign(sched.comms().size(), {kNone, kNone});
    for (std::size_t mi = 0; mi < sir.communicators.size(); ++mi) {
      const auto& comms = sir.communicators[mi].comms;
      for (std::size_t k = 0; k < comms.size(); ++k) {
        comm_slot[comms[k]] = {mi, k};
      }
    }
    follows_at.assign(sched.comms().size() + 1, 0);
    for (const std::size_t p : prev_hop) {
      if (p != kNone) ++follows_at[p + 1];
    }
    for (std::size_t ci = 0; ci < sched.comms().size(); ++ci) {
      follows_at[ci + 1] += follows_at[ci];
    }
    follows.resize(follows_at.back());
    std::vector<std::size_t> fill(follows_at.begin(), follows_at.end() - 1);
    for (std::size_t ci = 0; ci < prev_hop.size(); ++ci) {
      if (prev_hop[ci] != kNone) follows[fill[prev_hop[ci]]++] = ci;
    }
    const std::size_t procs = sir.executives.size();
    for (std::size_t mi = 0; mi < sir.communicators.size(); ++mi) {
      if (is_can[mi] == 0) continue;
      const auto& comms = sir.communicators[mi].comms;
      CanIndex& x = can[mi];
      x.slot.resize(comms.size());
      x.sender.resize(comms.size());
      x.waiting.resize(procs + sir.communicators.size());
      for (std::size_t k = 0; k < comms.size(); ++k) {
        const std::size_t p = prev_hop[comms[k]];
        const std::size_t pmi = p == kNone ? kNone : comm_slot[p].first;
        x.sender[k] = p == kNone                   ? send_proc[comms[k]]
                      : pmi == mi || pmi == kNone ? kNone
                                                  : procs + pmi;
      }
    }
  }

  // Files every slot of CAN medium `mi` for the iteration its cursor has
  // reached, from the channels: O(slots), once per medium iteration.
  auto index_iteration = [&](std::size_t mi) {
    CanIndex& x = can[mi];
    const auto& comms = sir.communicators[mi].comms;
    const std::size_t iter = medium_cur[mi].iter;
    x.known.clear();
    x.prev_lost.clear();
    std::fill(x.waiting.begin(), x.waiting.end(), 0);
    x.left = comms.size();
    for (std::size_t k = 0; k < comms.size(); ++k) {
      const std::size_t ci = comms[k];
      const std::size_t p = prev_hop[ci];
      if (p == kNone ? channels[ci].sent(iter).has_value()
                     : channels[p].delivered(iter).has_value()) {
        x.slot[k] = CanIndex::Slot::kKnown;
        x.known.push_back(k);
      } else if (p != kNone && channels[p].lost(iter)) {
        x.slot[k] = CanIndex::Slot::kPrevLost;
        x.prev_lost.push_back(k);
      } else {
        x.slot[k] = CanIndex::Slot::kWaiting;
        if (x.sender[k] != kNone) ++x.waiting[x.sender[k]];
      }
    }
  };
  // A fact about comm `ci` in iteration `iter` became known (its signal, or
  // its previous hop's loss): refile its slot if its CAN medium is serving
  // that iteration. Later iterations are filed by index_iteration.
  auto index_fact = [&](std::size_t ci, std::size_t iter, CanIndex::Slot to) {
    const auto [mi, k] = comm_slot[ci];
    if (mi == kNone || is_can[mi] == 0 || medium_cur[mi].iter != iter ||
        can[mi].slot[k] != CanIndex::Slot::kWaiting) {
      return;
    }
    can[mi].settle(k, to);
  };
  // Every delivery and loss goes through these two, so the next hops' CAN
  // indexes see it.
  auto deliver = [&](std::size_t ci, std::size_t iter, Time t) {
    channels[ci].mark_delivered(iter, t);
    if (!any_can) return;
    for (std::size_t f = follows_at[ci]; f < follows_at[ci + 1]; ++f) {
      index_fact(follows[f], iter, CanIndex::Slot::kKnown);
    }
  };
  auto lose = [&](std::size_t ci, std::size_t iter, Time t) {
    channels[ci].mark_lost(iter, t);
    if (!any_can) return;
    for (std::size_t f = follows_at[ci]; f < follows_at[ci + 1]; ++f) {
      index_fact(follows[f], iter, CanIndex::Slot::kPrevLost);
    }
  };

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

  // Pre-sample execution times and branches would couple RNG draws to the
  // interleaving of the advancing loop; instead draw on first execution of
  // each instance, which happens exactly once.
  auto exec_time = [&](const Operation& op, Time wcet) {
    return opts.exec_time ? opts.exec_time(op, wcet, rng) : wcet;
  };

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
        std::size_t branch = kNone;
        Time wcet;
        if (op.is_conditional()) {
          branch = opts.branch_chooser ? opts.branch_chooser(op, cur.iter, rng)
                                       : 0;
          wcet = ci.branch_wcets.at(branch);
        } else {
          wcet = ci.wcet;
        }
        Time dur = exec_time(op, wcet);
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
        if (any_can && prev_hop[ins.comm] == kNone) {
          index_fact(ins.comm, cur.iter, CanIndex::Slot::kKnown);
        }
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
  // (owner-slot-aware for TDMA; under CAN every frame first waits out the
  // worst-case non-preemptive blocking of unmodeled background traffic, the
  // same charge the adequation timeline carries, so the WCET run reproduces
  // the static schedule), applies fault effects, and records the transfer.
  // Shared by the static-order path and the CAN arbitration path.
  auto transmit = [&](std::size_t mi, std::size_t ci, Time signal) {
    Cursor& cur = medium_cur[mi];
    const aaa::ScheduledComm& sc = sched.comms()[ci];
    const DataDep& dep = alg.dependencies()[sc.dep_index];
    const aaa::Medium& medium = arch.medium(sir.communicators[mi].medium);
    if (medium.arbitration == aaa::Arbitration::kCanPriority) {
      signal += medium.can_blocking;
    }
    const Time start = medium.earliest_start(
        std::max(cur.t, signal), alg.dep_priority(sc.dep_index));
    Time end = start + medium.transfer_time(dep.size);
    fault::ArmedFaultPlan::CommEffect eff;
    if (faulting) eff = armed.comm_effect(ci, cur.iter);
    if (eff.lost) {
      // The corrupted frame still occupied its slot; the loss is knowable
      // at the would-be delivery end (e.g. a CRC check failing there).
      lose(ci, cur.iter, end);
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
      deliver(ci, cur.iter, delivery);
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

  constexpr Time kArbEps = 1e-12;

  // One arbitration round on CAN medium `mi`: among the pending frames whose
  // send signal is known, the earliest-ready one wins the bus, ties resolved
  // by message priority then comm index (CAN identifier order). The commit
  // is deferred while a frame with an unknown signal could still become
  // ready no later than the chosen start — unless its sender provably cannot
  // contest (it is blocked on a reception that is itself pending on this
  // medium, so its send follows a delivery we have not made yet). `force`
  // (used only at global quiescence, when no signal can appear without the
  // bus moving) commits the winner regardless. Both paths are driven by the
  // same fixed sweep order, so arbitration outcomes are pure functions of
  // (model, seed, scenario).
  //
  // The medium's CanIndex serves each step: the winner scan walks only the
  // known frames, in slot order with the same tolerant comparison as a scan
  // of every slot (so it picks the same frame), and the contest test runs
  // once per sender with waiting frames, since its outcome depends only on
  // the sender.
  auto advance_can = [&](std::size_t mi, bool force) -> bool {
    Cursor& cur = medium_cur[mi];
    const ir::CommunicatorIr& prog = sir.communicators[mi];
    if (cur.done(prog.comms.size(), iters)) return false;
    CanIndex& x = can[mi];
    auto finish_slot = [&](std::size_t k) {
      x.finish(k);
      cur.pc = prog.comms.size() - x.left;
      if (x.left == 0) {
        cur.pc = 0;
        ++cur.iter;
        if (cur.iter < iters) index_iteration(mi);
      }
    };
    // Lost predecessor hops propagate without occupying the bus, lowest
    // slot first.
    if (!x.prev_lost.empty()) {
      const std::size_t k = x.prev_lost.front();
      const std::size_t ci = prog.comms[k];
      lose(ci, cur.iter, *channels[prev_hop[ci]].lost(cur.iter));
      finish_slot(k);
      return true;
    }
    // Arbitration among the frames whose signal is known. Ranking uses the
    // same effective start transmit() will resolve — including the
    // worst-case background-blocking charge, a constant shift that never
    // reorders candidates.
    const Time blocking = arch.medium(prog.medium).can_blocking;
    std::size_t best = kNone;
    std::size_t best_slot = kNone;
    std::size_t best_prio = 0;
    Time best_start = 0.0;
    Time best_signal = 0.0;
    for (const std::size_t k : x.known) {
      const std::size_t ci = prog.comms[k];
      const Time signal = prev_hop[ci] == kNone
                              ? *channels[ci].sent(cur.iter)
                              : *channels[prev_hop[ci]].delivered(cur.iter);
      const Time start = std::max(cur.t, signal + blocking);
      const std::size_t prio = alg.dep_priority(sched.comms()[ci].dep_index);
      if (best == kNone || start < best_start - kArbEps ||
          (start <= best_start + kArbEps &&
           (prio < best_prio || (prio == best_prio && ci < best)))) {
        best = ci;
        best_slot = k;
        best_prio = prio;
        best_start = start;
        best_signal = signal;
      }
    }
    if (best == kNone) return false;
    if (!force) {
      const std::size_t procs = sir.executives.size();
      for (std::size_t s = 0; s < x.waiting.size(); ++s) {
        if (x.waiting[s] == 0) continue;
        Time bound;
        if (s >= procs) {
          // Predecessor hop pending on another medium: it delivers no
          // earlier than that medium's local time.
          bound = medium_cur[s - procs].t;
        } else {
          const Cursor& sender = proc_cur[s];
          if (sender.done(sir.executives[s].instrs.size(), iters)) continue;
          const ir::InstrIr& ins = sir.executives[s].instrs[sender.pc];
          if (ins.kind == ir::InstrIr::Kind::kRecv &&
              comm_slot[ins.comm].first == mi && sender.iter == cur.iter &&
              x.slot[comm_slot[ins.comm].second] != CanIndex::Slot::kDone &&
              !channels[ins.comm].delivered(sender.iter) &&
              !channels[ins.comm].lost(sender.iter)) {
            continue;  // blocked on a frame this bus has yet to deliver
          }
          bound = sender.t;
        }
        if (bound <= best_start + kArbEps) return false;  // could contest
      }
    }
    transmit(mi, best, best_signal);
    finish_slot(best_slot);
    return true;
  };

  auto advance_medium = [&](std::size_t mi) -> bool {
    Cursor& cur = medium_cur[mi];
    const ir::CommunicatorIr& prog = sir.communicators[mi];
    if (is_can[mi] != 0) return advance_can(mi, /*force=*/false);
    if (cur.done(prog.comms.size(), iters)) return false;
    const std::size_t ci = prog.comms[cur.pc];
    auto sent = channels[ci].sent(cur.iter);
    if (prev_hop[ci] != kNone) {
      sent = channels[prev_hop[ci]].delivered(cur.iter);
      if (!sent) {
        // A hop whose predecessor frame was lost never carries anything:
        // propagate the loss downstream without occupying this medium.
        const auto prev_lost = channels[prev_hop[ci]].lost(cur.iter);
        if (!prev_lost) return false;
        lose(ci, cur.iter, *prev_lost);
        if (++cur.pc == prog.comms.size()) {
          cur.pc = 0;
          ++cur.iter;
        }
        return true;
      }
    }
    if (!sent) return false;  // waiting for the sender's signal
    transmit(mi, ci, *sent);
    if (++cur.pc == prog.comms.size()) {
      cur.pc = 0;
      ++cur.iter;
    }
    return true;
  };

  for (std::size_t mi = 0; mi < sir.communicators.size(); ++mi) {
    if (is_can[mi] != 0 && !medium_cur[mi].done(can[mi].slot.size(), iters)) {
      index_iteration(mi);
    }
  }

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
    if (!progress && any_can) {
      // Global quiescence: every send signal that can appear without the
      // bus moving has appeared, so a deferred arbitration decision is now
      // final — force the winner on the first stalled CAN medium.
      for (std::size_t mi = 0; mi < code.communicators.size(); ++mi) {
        if (is_can[mi] != 0 && advance_can(mi, /*force=*/true)) {
          progress = true;
          break;
        }
      }
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
