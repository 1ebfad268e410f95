#include "aaa/adequation.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
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

/// Result of Timeline::fit: the earliest start, and the window [lo, hi] of
/// the timeline the scan depends on. An interval inserted later that ends
/// at or before lo, or starts after hi, leaves the result bit-identical
/// (DESIGN.md §3.10).
struct Fit {
  Time start = 0.0;
  Time lo = 0.0;  // snap(ready)
  Time hi = 0.0;  // start + dur + eps
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
  Fit fit(Time ready, Time dur, Snap&& snap) const {
    const Time lo = snap(ready);
    Time candidate = lo;
    auto it = std::partition_point(
        busy_.begin(), busy_.end(),
        [candidate](const Busy& b) { return b.max_end <= candidate; });
    for (; it != busy_.end(); ++it) {
      if (candidate + dur <= it->start + kEps) break;
      if (candidate < it->end) candidate = snap(it->end);
    }
    return Fit{candidate, lo, candidate + dur + kEps};
  }
  Fit fit(Time ready, Time dur) const {
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

/// A window [lo, hi] of one timeline read by an evaluation, as reported by
/// Timeline::fit. Timeline t is processor t for t < n_procs, else medium
/// t - n_procs.
struct Window {
  std::size_t timeline = 0;
  Time lo = 0.0;
  Time hi = 0.0;
};

/// A cached evaluation's window, filed under its timeline. It is live while
/// `gen` equals its op's current generation.
struct Watch {
  OpId op = kNone;
  std::uint32_t gen = 0;
  Time lo = 0.0;
  Time hi = 0.0;
};

/// The cached evaluation of a ready operation.
struct Evaluation {
  Placement place;
  double pressure = 0.0;
  std::uint64_t candidates = 0;  // reachable candidates it evaluated
  std::uint32_t gen = 0;  // bumped when the evaluation is dropped
  bool valid = false;
};

}  // namespace

Schedule adequate(const AlgorithmGraph& alg, const ArchitectureGraph& arch,
                  const AdequationOptions& opts) {
  obs::ScopedSpan span(opts.tracer, "aaa.adequate", obs::Domain::kWall,
                       "runtime/aaa");
  obs::Counter* c_evaluated = nullptr;
  obs::Counter* c_reused = nullptr;
  obs::Counter* c_ops = nullptr;
  obs::Counter* c_comms = nullptr;
  if (opts.metrics != nullptr) {
    c_evaluated = &opts.metrics->counter("aaa.candidates_evaluated");
    c_reused = &opts.metrics->counter("aaa.candidates_reused");
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

  // Incremental selection (DESIGN.md §3.10): each ready op keeps its last
  // evaluation and, filed per timeline, the windows its best candidate's
  // fits read. A commit drops only the evaluations whose windows one of its
  // insertions meets; every other evaluation is bit-identical to a fresh
  // one.
  std::vector<Evaluation> eval(n_ops);
  std::vector<std::vector<Watch>> watches(n_procs + arch.num_media());
  std::vector<Window> reads, best_reads;  // scratch of `evaluate`

  // Drop every live evaluation whose window on timeline `t` meets the
  // inserted interval [s, e] (closed test), and the stale watches met on
  // the way.
  auto invalidate = [&](std::size_t t, Time s, Time e) {
    std::vector<Watch>& ws = watches[t];
    std::size_t keep = 0;
    for (const Watch& w : ws) {
      Evaluation& ev = eval[w.op];
      if (w.gen != ev.gen) continue;
      if (s <= w.hi && e >= w.lo) {
        ev.valid = false;
        ++ev.gen;
        continue;
      }
      ws[keep++] = w;
    }
    ws.resize(keep);
  };

  std::vector<std::size_t> unsat_preds(n_ops, 0);
  for (const DataDep& d : deps) ++unsat_preds[d.to];
  // Ready, unscheduled operations in ascending id.
  std::vector<OpId> ready_ops;
  for (OpId i = 0; i < n_ops; ++i) {
    if (unsat_preds[i] == 0) ready_ops.push_back(i);
  }

  // Earliest data-ready instant of `op` on `proc` under current timelines
  // (release offset + producer completions + the communications the
  // placement would require). When `commit` is true the communications are
  // written into the schedule and onto the media timelines; otherwise this
  // is a pure estimate, and the window each medium fit read is appended to
  // `reads` when it is given. Processor availability is handled by the
  // caller via gap-aware fitting.
  auto data_ready = [&](OpId op, ProcId proc, bool commit, bool charge_comms,
                        std::vector<Window>* reads) -> Time {
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
          const Fit f = medium_busy[hop.medium].fit(
              req, dur, [&](Time x) { return medium.earliest_start(x, prio); });
          const Time end = f.start + dur;
          if (commit) {
            sched.add_comm(ScheduledComm{di, hop, hop_index, f.start, end});
            medium_busy[hop.medium].insert(f.start, end);
            invalidate(n_procs + hop.medium, f.start, end);
            if (c_comms != nullptr) c_comms->add();
          } else if (reads != nullptr) {
            reads->push_back(Window{n_procs + hop.medium, f.lo, f.hi});
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
  // *committed* timelines only (commit=false throughout), cached in
  // eval[op] with the windows its best candidate read filed as watches.
  // Kept out of line: inlined into the incremental selection loop (its only
  // call site) it measured 1-22% slower on all 12 EXP-A1 (f) scaling
  // points (best of 3 alternating runs of best-of-15; GCC 12, x86-64).
  auto evaluate = [&](OpId op) __attribute__((noinline)) {
    Placement best;
    best.eft = std::numeric_limits<double>::infinity();
    std::uint64_t evaluated = 0;
    for (std::size_t k = cand_offsets[op]; k < cand_offsets[op + 1]; ++k) {
      const auto [p, wcet] = candidates[k];
      if (!reachable(op, p)) continue;
      reads.clear();
      const Time ready = data_ready(op, p, /*commit=*/false,
                                    /*charge_comms=*/opts.comm_aware, &reads);
      const Fit f = proc_busy[p].fit(ready, wcet);
      const Time eft = f.start + wcet;
      if (eft < best.eft) {
        best = Placement{p, f.start, eft, wcet};
        reads.push_back(Window{p, f.lo, f.hi});
        best_reads.swap(reads);
      }
      ++evaluated;
    }
    if (c_evaluated != nullptr) c_evaluated->add(evaluated);
    if (best.proc == kNone) {
      throw std::runtime_error("adequate: no feasible processor for '" +
                               alg.op(op).name + "'");
    }
    Evaluation& ev = eval[op];
    ev.place = best;
    // Selection score (higher = scheduled first). Schedule pressure:
    // projected completion of the critical path through this operation if
    // placed now on its best processor. Earliest-finish: negated EFT.
    ev.pressure = opts.rule == SelectionRule::kSchedulePressure
                      ? best.est + level[op]
                      : -best.eft;
    ev.candidates = evaluated;
    ev.valid = true;
    for (const Window& w : best_reads) {
      watches[w.timeline].push_back(Watch{op, ev.gen, w.lo, w.hi});
    }
  };

  while (!ready_ops.empty()) {
    // Score every ready operation in ascending id, re-evaluating only the
    // dropped ones: strict > keeps the lowest-id operation among equal
    // pressures.
    std::size_t chosen_at = 0;
    double chosen_pressure = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < ready_ops.size(); ++i) {
      const OpId op = ready_ops[i];
      if (!eval[op].valid) {
        evaluate(op);
      } else if (c_reused != nullptr) {
        c_reused->add(eval[op].candidates);
      }
      if (eval[op].pressure > chosen_pressure) {
        chosen_at = i;
        chosen_pressure = eval[op].pressure;
      }
    }
    const OpId chosen = ready_ops[chosen_at];
    ready_ops.erase(ready_ops.begin() + static_cast<std::ptrdiff_t>(chosen_at));
    Evaluation& chosen_eval = eval[chosen];
    chosen_eval.valid = false;
    ++chosen_eval.gen;

    // Commit: schedule communications for real (always charged, even in the
    // comm-blind ablation — physics does not go away), then the operation
    // into the earliest processor gap that fits.
    const ProcId p = chosen_eval.place.proc;
    const Time ready_at = data_ready(chosen, p, /*commit=*/true,
                                     /*charge_comms=*/true, nullptr);
    const Time wcet = chosen_eval.place.wcet;
    const Time start = proc_busy[p].fit(ready_at, wcet).start;
    const Time end = start + wcet;
    sched.add_op(ScheduledOp{chosen, p, start, end});
    if (c_ops != nullptr) c_ops->add();
    proc_busy[p].insert(start, end);
    invalidate(p, start, end);
    placed[chosen] = p;
    op_end[chosen] = end;
    for (const std::size_t di : out_deps.row(chosen)) {
      const OpId succ = deps[di].to;
      if (--unsat_preds[succ] == 0) {
        ready_ops.insert(
            std::lower_bound(ready_ops.begin(), ready_ops.end(), succ), succ);
      }
    }
  }
  return sched;
}

}  // namespace ecsim::aaa
