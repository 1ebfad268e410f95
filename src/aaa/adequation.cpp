#include "aaa/adequation.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <stdexcept>

namespace ecsim::aaa {

namespace {

struct Placement {
  ProcId proc = kNone;
  Time est = 0.0;  // earliest start time
  Time eft = 0.0;  // earliest finish time
  Time wcet = 0.0;  // on `proc`
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
  ///
  /// The scan walks the intervals in start order: the request returns
  /// `candidate` when it fits before an interval, and moves to snap(end)
  /// when it overlaps one. It starts, found by binary search, at the first
  /// interval whose running maximum end is past snap(ready). The skipped
  /// intervals cannot move the candidate, and if one of them would return
  /// it, so does the first interval scanned, or the scan ends and returns
  /// it (starts are sorted and the fit test is monotone in the start). So
  /// the result is that of a scan from the first interval, bit for bit, for
  /// every `dur` — zero-length requests and eps-touching intervals
  /// included.
  template <typename Snap>
  Time fit(Time ready, Time dur, Snap&& snap) const {
    Time candidate = snap(ready);
    auto it = std::partition_point(
        busy_.begin(), busy_.end(),
        [candidate](const Busy& b) { return b.max_end <= candidate; });
    for (; it != busy_.end(); ++it) {
      if (candidate + dur <= it->start + kEps) return candidate;
      if (candidate < it->end) candidate = snap(it->end);
    }
    return candidate;
  }
  Time fit(Time ready, Time dur) const {
    return fit(ready, dur, [](Time t) { return t; });
  }

  void insert(Time start, Time end) {
    auto it = std::lower_bound(
        busy_.begin(), busy_.end(), start,
        [](const Busy& iv, Time t) { return iv.start < t; });
    const Time before = it == busy_.begin()
                            ? -std::numeric_limits<Time>::infinity()
                            : std::prev(it)->max_end;
    it = busy_.insert(it, Busy{start, end, std::max(before, end)});
    for (++it; it != busy_.end() && it->max_end < end; ++it) it->max_end = end;
  }

 private:
  static constexpr Time kEps = 1e-12;
  struct Busy {
    Time start = 0.0;
    Time end = 0.0;
    Time max_end = 0.0;  // max end over this interval and every earlier one
  };
  std::vector<Busy> busy_;  // sorted by start
};

/// A processor an operation may run on, with its WCET there.
struct Candidate {
  ProcId proc = kNone;
  Time wcet = 0.0;
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

  // Per-call indexes, built once so that a candidate (op, proc) costs
  // O(in-degree x route hops), not O(|E|): in- and out-edge lists in
  // dependency-index order (the order communications are committed in, so
  // ScheduledComm indices match a scan of the whole dependency list), and
  // each op's processors filtered by type and binding with their WCETs
  // resolved (no string-keyed map lookups inside the loop).
  const DepRows in_deps = alg.in_rows();
  const DepRows out_deps = alg.out_rows();
  // Candidates of op i: candidates[cand_offsets[i], cand_offsets[i + 1]).
  std::vector<std::size_t> cand_offsets{0};
  std::vector<Candidate> candidates;
  for (OpId op = 0; op < n_ops; ++op) {
    const Operation& o = alg.op(op);
    for (ProcId p = 0; p < n_procs; ++p) {
      const Processor& proc = arch.processor(p);
      if (!o.runs_on(proc.type)) continue;
      if (o.bound_processor && *o.bound_processor != proc.name) continue;
      candidates.push_back(Candidate{p, o.wcet_on(proc.type)});
    }
    cand_offsets.push_back(candidates.size());
  }

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
    for (const std::size_t di : in_deps.row(op)) {
      const DataDep& d = deps[di];
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

  // Every producer of `op` can reach `proc` (placed ops only: `op` is ready).
  auto reachable = [&](OpId op, ProcId proc) {
    for (const std::size_t di : in_deps.row(op)) {
      const ProcId src = placed[deps[di].from];
      if (src != proc && !routes.connected(src, proc)) return false;
    }
    return true;
  };

  // Best placement + selection score of one ready operation against the
  // *committed* timelines only (commit=false throughout). Kept out of line:
  // inlined into the selection loop below (its only call site) it measured
  // 0-10% slower on 9 of the 12 EXP-A1 (f) scaling points (best of 4
  // alternating runs; GCC 12, x86-64).
  auto evaluate = [&](OpId op) __attribute__((noinline))
      -> std::pair<Placement, double> {
    Placement best;
    best.eft = std::numeric_limits<double>::infinity();
    for (std::size_t k = cand_offsets[op]; k < cand_offsets[op + 1]; ++k) {
      const auto [p, wcet] = candidates[k];
      if (!reachable(op, p)) continue;
      const Time ready = data_ready(op, p, /*commit=*/false,
                                    /*charge_comms=*/opts.comm_aware);
      const Time est = proc_busy[p].fit(ready, wcet);
      const Time eft = est + wcet;
      if (eft < best.eft) best = Placement{p, est, eft, wcet};
      if (c_candidates != nullptr) c_candidates->add();
    }
    if (best.proc == kNone) {
      throw std::runtime_error("adequate: no feasible processor for '" +
                               alg.op(op).name + "'");
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
    const ProcId p = chosen_place.proc;
    const Time ready_at =
        data_ready(chosen, p, /*commit=*/true, /*charge_comms=*/true);
    const Time wcet = chosen_place.wcet;
    const Time start = proc_busy[p].fit(ready_at, wcet);
    const Time end = start + wcet;
    sched.add_op(ScheduledOp{chosen, p, start, end});
    if (c_ops != nullptr) c_ops->add();
    proc_busy[p].insert(start, end);
    placed[chosen] = p;
    op_end[chosen] = end;
    done[chosen] = true;
    --remaining;
    for (const std::size_t di : out_deps.row(chosen)) {
      if (--unsat_preds[deps[di].to] == 0) ready[deps[di].to] = true;
    }
  }
  return sched;
}

}  // namespace ecsim::aaa
