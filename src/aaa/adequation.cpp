#include "aaa/adequation.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace ecsim::aaa {

namespace {

struct Placement {
  ProcId proc = kNone;
  Time est = 0.0;  // earliest start time
  Time eft = 0.0;  // earliest finish time
};

/// Busy-interval timeline with gap-aware insertion. Release offsets (the
/// multirate hyperperiod expansion) make append-only timelines useless: a
/// late-released instance committed early must not block the idle time
/// before its release.
class Timeline {
 public:
  /// Earliest start >= ready such that [start, start+dur) fits in a gap,
  /// with each candidate snapped by `snap` (TDMA grids; identity for
  /// processors and immediate media).
  template <typename Snap>
  Time fit(Time ready, Time dur, Snap&& snap) const {
    Time candidate = snap(ready);
    for (const auto& [s, e] : busy_) {
      if (candidate + dur <= s + kEps) return candidate;
      if (candidate < e) candidate = snap(e);
    }
    return candidate;
  }
  Time fit(Time ready, Time dur) const {
    return fit(ready, dur, [](Time t) { return t; });
  }

  void insert(Time start, Time end) {
    auto it = std::lower_bound(
        busy_.begin(), busy_.end(), start,
        [](const std::pair<Time, Time>& iv, Time t) { return iv.first < t; });
    busy_.insert(it, {start, end});
  }

 private:
  static constexpr Time kEps = 1e-12;
  std::vector<std::pair<Time, Time>> busy_;  // sorted by start
};

}  // namespace

Schedule adequate(const AlgorithmGraph& alg, const ArchitectureGraph& arch,
                  const AdequationOptions& opts) {
  obs::ScopedSpan span(opts.tracer, "aaa.adequate", obs::Domain::kWall,
                       "runtime/aaa");
  obs::Counter* c_candidates = nullptr;
  obs::Counter* c_ops = nullptr;
  obs::Counter* c_comms = nullptr;
  if (opts.metrics != nullptr) {
    c_candidates = &opts.metrics->counter("aaa.candidates_evaluated");
    c_ops = &opts.metrics->counter("aaa.ops_scheduled");
    c_comms = &opts.metrics->counter("aaa.comms_committed");
  }

  const std::size_t n_ops = alg.num_operations();
  const std::size_t n_procs = arch.num_processors();
  const RouteTable routes(arch);
  const std::vector<Time> level = alg.tail_levels(opts.tail_comm_weight);
  const auto& deps = alg.dependencies();

  Schedule sched(n_procs, arch.num_media());
  std::vector<Timeline> proc_busy(n_procs);
  std::vector<Timeline> medium_busy(arch.num_media());
  std::vector<ProcId> placed(n_ops, kNone);
  std::vector<Time> op_end(n_ops, 0.0);

  std::vector<std::size_t> unsat_preds(n_ops, 0);
  for (const DataDep& d : deps) ++unsat_preds[d.to];
  std::vector<bool> ready(n_ops, false), done(n_ops, false);
  for (OpId i = 0; i < n_ops; ++i) ready[i] = unsat_preds[i] == 0;

  // Earliest data-ready instant of `op` on `proc` under current timelines
  // (release offset + producer completions + the communications the
  // placement would require). When `commit` is true the communications are
  // written into the schedule and onto the media timelines; otherwise this
  // is a pure estimate. Processor availability is handled by the caller via
  // gap-aware fitting.
  auto data_ready = [&](OpId op, ProcId proc, bool commit,
                        bool charge_comms) -> Time {
    Time ready = alg.op(op).release;
    for (std::size_t di = 0; di < deps.size(); ++di) {
      const DataDep& d = deps[di];
      if (d.to != op) continue;
      const ProcId src = placed[d.from];
      Time arrival = op_end[d.from];
      if (src != proc && charge_comms) {
        Time t = arrival;
        std::size_t hop_index = 0;
        for (const Hop& hop : routes.route(src, proc)) {
          const Medium& medium = arch.medium(hop.medium);
          const Time dur = medium.transfer_time(d.size);
          const std::size_t prio = alg.dep_priority(di);
          // Non-preemptive CAN blocking: a just-started lower-priority (or
          // background) frame can hold the bus for up to can_blocking after
          // this message becomes ready — charged once, before gap fitting;
          // interference from committed frames is the timeline's job.
          const Time req = medium.arbitration == Arbitration::kCanPriority
                               ? t + medium.can_blocking
                               : t;
          const Time start = medium_busy[hop.medium].fit(
              req, dur, [&](Time x) { return medium.earliest_start(x, prio); });
          const Time end = start + dur;
          if (commit) {
            sched.add_comm(ScheduledComm{di, hop, hop_index, start, end});
            medium_busy[hop.medium].insert(start, end);
            if (c_comms != nullptr) c_comms->add();
          }
          t = end;
          ++hop_index;
        }
        arrival = t;
      }
      ready = std::max(ready, arrival);
    }
    return ready;
  };

  auto feasible_procs = [&](OpId op) {
    const Operation& o = alg.op(op);
    std::vector<ProcId> out;
    for (ProcId p = 0; p < n_procs; ++p) {
      const Processor& proc = arch.processor(p);
      if (!o.runs_on(proc.type)) continue;
      if (o.bound_processor && *o.bound_processor != proc.name) continue;
      bool reachable = true;
      for (const DataDep& d : deps) {
        if (d.to == op && placed[d.from] != p &&
            !routes.connected(placed[d.from], p)) {
          reachable = false;
          break;
        }
      }
      if (reachable) out.push_back(p);
    }
    return out;
  };

  // Best placement + selection score of one ready operation against the
  // *committed* timelines only (commit=false throughout). Kept out of line:
  // inlined into the selection loop below (its only call site) it made the
  // whole adequation 10-15% slower on the perfbench schedule_large workload
  // (GCC 12, x86-64).
  auto evaluate = [&](OpId op) __attribute__((noinline))
      -> std::pair<Placement, double> {
    const Operation& o = alg.op(op);
    Placement best;
    best.eft = std::numeric_limits<double>::infinity();
    for (ProcId p : feasible_procs(op)) {
      const Time ready = data_ready(op, p, /*commit=*/false,
                                    /*charge_comms=*/opts.comm_aware);
      const Time wcet = o.wcet_on(arch.processor(p).type);
      const Time est = proc_busy[p].fit(ready, wcet);
      const Time eft = est + wcet;
      if (eft < best.eft) best = Placement{p, est, eft};
      if (c_candidates != nullptr) c_candidates->add();
    }
    if (best.proc == kNone) {
      throw std::runtime_error("adequate: no feasible processor for '" +
                               o.name + "'");
    }
    // Selection score (higher = scheduled first). Schedule pressure:
    // projected completion of the critical path through this operation if
    // placed now on its best processor. Earliest-finish: negated EFT.
    const double pressure = opts.rule == SelectionRule::kSchedulePressure
                                ? best.est + level[op]
                                : -best.eft;
    return {best, pressure};
  };

  std::size_t remaining = n_ops;
  while (remaining > 0) {
    // Evaluate every ready candidate on its best processor in ascending
    // operation order: strict > keeps the lowest-id operation among equal
    // pressures.
    OpId chosen = kNone;
    Placement chosen_place;
    double chosen_pressure = -std::numeric_limits<double>::infinity();
    for (OpId op = 0; op < n_ops; ++op) {
      if (!ready[op] || done[op]) continue;
      const auto [place, pressure] = evaluate(op);
      if (pressure > chosen_pressure) {
        chosen = op;
        chosen_place = place;
        chosen_pressure = pressure;
      }
    }

    // Commit: schedule communications for real (always charged, even in the
    // comm-blind ablation — physics does not go away), then the operation
    // into the earliest processor gap that fits.
    const Operation& o = alg.op(chosen);
    const ProcId p = chosen_place.proc;
    const Time ready_at =
        data_ready(chosen, p, /*commit=*/true, /*charge_comms=*/true);
    const Time wcet = o.wcet_on(arch.processor(p).type);
    const Time start = proc_busy[p].fit(ready_at, wcet);
    const Time end = start + wcet;
    sched.add_op(ScheduledOp{chosen, p, start, end});
    if (c_ops != nullptr) c_ops->add();
    proc_busy[p].insert(start, end);
    placed[chosen] = p;
    op_end[chosen] = end;
    done[chosen] = true;
    --remaining;
    for (const DataDep& d : deps) {
      if (d.from == chosen && --unsat_preds[d.to] == 0) ready[d.to] = true;
    }
  }
  return sched;
}

}  // namespace ecsim::aaa
