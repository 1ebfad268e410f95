// Property sweep of the adequation heuristic over random layered DAGs and
// random bus architectures: the schedule must always validate, cover every
// operation exactly once, respect a critical-path lower bound, and be
// deterministic for identical inputs.
//
// Differential property: the incremental selection loop of `adequate`
// (which re-evaluates only the ready ops a commit can affect) gives the
// bit-identical schedule of an oracle that re-evaluates every ready op at
// every step, and considers the same number of candidates.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "aaa/adequation.hpp"
#include "obs/metrics.hpp"
#include "random_graphs.hpp"

namespace ecsim::aaa {
namespace {

// --- oracle: the adequation with full re-evaluation at every step ----------

struct OraclePlacement {
  ProcId proc = kNone;
  Time est = 0.0;
  Time eft = 0.0;
  Time wcet = 0.0;
};

class OracleTimeline {
 public:
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
    Time max_end = 0.0;
  };
  std::vector<Busy> busy_;
};

/// The selection loop as it was before it became incremental: every step
/// evaluates every ready op on every candidate processor. Counts the
/// candidates it evaluates into `considered`.
Schedule full_reevaluation(const AlgorithmGraph& alg,
                           const ArchitectureGraph& arch,
                           const AdequationOptions& opts,
                           std::uint64_t& considered) {
  const std::size_t n_ops = alg.num_operations();
  const std::size_t n_procs = arch.num_processors();
  const RouteTable routes(arch);
  const std::vector<Time> level = alg.tail_levels(opts.tail_comm_weight);
  const auto& deps = alg.dependencies();
  const DepRows in_deps = alg.in_rows();
  const DepRows out_deps = alg.out_rows();
  std::vector<std::vector<std::pair<ProcId, Time>>> candidates(n_ops);
  for (OpId op = 0; op < n_ops; ++op) {
    const Operation& o = alg.op(op);
    for (ProcId p = 0; p < n_procs; ++p) {
      const Processor& proc = arch.processor(p);
      if (!o.runs_on(proc.type)) continue;
      if (o.bound_processor && *o.bound_processor != proc.name) continue;
      candidates[op].emplace_back(p, o.wcet_on(proc.type));
    }
  }

  Schedule sched(n_procs, arch.num_media());
  std::vector<OracleTimeline> proc_busy(n_procs);
  std::vector<OracleTimeline> medium_busy(arch.num_media());
  std::vector<ProcId> placed(n_ops, kNone);
  std::vector<Time> op_end(n_ops, 0.0);
  std::vector<std::size_t> unsat_preds(n_ops, 0);
  for (const DataDep& d : deps) ++unsat_preds[d.to];
  std::vector<bool> ready(n_ops, false), done(n_ops, false);
  for (OpId i = 0; i < n_ops; ++i) ready[i] = unsat_preds[i] == 0;

  auto data_ready = [&](OpId op, ProcId proc, bool commit,
                        bool charge_comms) -> Time {
    Time ready_at = alg.op(op).release;
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
          const Time req = medium.arbitration == Arbitration::kCanPriority
                               ? t + medium.can_blocking
                               : t;
          const Time start = medium_busy[hop.medium].fit(
              req, dur, [&](Time x) { return medium.earliest_start(x, prio); });
          const Time end = start + dur;
          if (commit) {
            sched.add_comm(ScheduledComm{di, hop, hop_index, start, end});
            medium_busy[hop.medium].insert(start, end);
          }
          t = end;
          ++hop_index;
        }
        arrival = t;
      }
      ready_at = std::max(ready_at, arrival);
    }
    return ready_at;
  };
  auto reachable = [&](OpId op, ProcId proc) {
    for (const std::size_t di : in_deps.row(op)) {
      const ProcId src = placed[deps[di].from];
      if (src != proc && !routes.connected(src, proc)) return false;
    }
    return true;
  };
  auto evaluate = [&](OpId op) -> std::pair<OraclePlacement, double> {
    OraclePlacement best;
    best.eft = std::numeric_limits<double>::infinity();
    for (const auto& [p, wcet] : candidates[op]) {
      if (!reachable(op, p)) continue;
      const Time ready_at = data_ready(op, p, false, opts.comm_aware);
      const Time est = proc_busy[p].fit(ready_at, wcet);
      const Time eft = est + wcet;
      if (eft < best.eft) best = OraclePlacement{p, est, eft, wcet};
      ++considered;
    }
    if (best.proc == kNone) {
      throw std::runtime_error("adequate: no feasible processor for '" +
                               alg.op(op).name + "'");
    }
    const double pressure = opts.rule == SelectionRule::kSchedulePressure
                                ? best.est + level[op]
                                : -best.eft;
    return {best, pressure};
  };

  std::size_t remaining = n_ops;
  while (remaining > 0) {
    OpId chosen = kNone;
    OraclePlacement chosen_place;
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
    const ProcId p = chosen_place.proc;
    const Time ready_at = data_ready(chosen, p, true, true);
    const Time start = proc_busy[p].fit(ready_at, chosen_place.wcet);
    const Time end = start + chosen_place.wcet;
    sched.add_op(ScheduledOp{chosen, p, start, end});
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

/// "" when the two schedules are bit-identical, else the first difference.
std::string schedule_difference(const Schedule& a, const Schedule& b) {
  const auto bits = [](Time t) { return std::bit_cast<std::uint64_t>(t); };
  if (a.ops().size() != b.ops().size()) return "op count";
  for (std::size_t i = 0; i < a.ops().size(); ++i) {
    const ScheduledOp& x = a.ops()[i];
    const ScheduledOp& y = b.ops()[i];
    if (x.op != y.op || x.proc != y.proc || bits(x.start) != bits(y.start) ||
        bits(x.end) != bits(y.end)) {
      return "op entry " + std::to_string(i);
    }
  }
  if (a.comms().size() != b.comms().size()) return "comm count";
  for (std::size_t i = 0; i < a.comms().size(); ++i) {
    const ScheduledComm& x = a.comms()[i];
    const ScheduledComm& y = b.comms()[i];
    if (x.dep_index != y.dep_index || x.hop.medium != y.hop.medium ||
        x.hop.from_proc != y.hop.from_proc || x.hop.to_proc != y.hop.to_proc ||
        x.hop_index != y.hop_index || bits(x.start) != bits(y.start) ||
        bits(x.end) != bits(y.end)) {
      return "comm entry " + std::to_string(i);
    }
  }
  for (ProcId p = 0; p < a.num_procs(); ++p) {
    if (a.ops_on(p) != b.ops_on(p)) return "order on proc " + std::to_string(p);
  }
  for (MediumId m = 0; m < a.num_media(); ++m) {
    if (a.comms_on(m) != b.comms_on(m)) {
      return "order on medium " + std::to_string(m);
    }
  }
  return "";
}

// --- scenarios ---------------------------------------------------------------

/// P0-P1 on bus a, P1-P2-P3 on bus b, P3-P4 on a CAN link c: routes between
/// the ends take three store-and-forward hops.
ArchitectureGraph two_bus_chain() {
  ArchitectureGraph arch("chain");
  for (int p = 0; p < 5; ++p) arch.add_processor("P" + std::to_string(p));
  const MediumId a = arch.add_medium("a", 1e4, 1e-5);
  const MediumId b = arch.add_medium("b", 5e3, 2e-5);
  const MediumId c = arch.add_medium("c", 2e4, 1e-5);
  arch.set_can(c, 1e-4);
  arch.attach(0, a);
  arch.attach(1, a);
  arch.attach(1, b);
  arch.attach(2, b);
  arch.attach(3, b);
  arch.attach(3, c);
  arch.attach(4, c);
  return arch;
}

constexpr Time kSlot = 0.0009765625;  // 2^-10 s

enum class Family { kImmediate, kCan, kTdma6, kTdmaAligned, kZeroLatency,
                    kChain };
constexpr Family kFamilies[] = {Family::kImmediate,   Family::kCan,
                                Family::kTdma6,       Family::kTdmaAligned,
                                Family::kZeroLatency, Family::kChain};

ArchitectureGraph architecture(Family f, math::Rng& rng, std::uint64_t seed) {
  switch (f) {
    case Family::kImmediate:
      return ArchitectureGraph::bus_architecture(
          static_cast<std::size_t>(rng.uniform_int(2, 5)),
          rng.uniform(2e3, 1e5), rng.uniform(0.0, 1e-4));
    case Family::kCan: {
      auto arch = ArchitectureGraph::bus_architecture(
          4, rng.uniform(2e3, 1e5), 1e-5);
      arch.set_can(0, seed % 2 == 0 ? 0.0 : 5e-4);
      arch.set_background_load(0, (seed / 2) % 2 == 0 ? 0.0 : 0.3);
      return arch;
    }
    case Family::kTdma6: {
      auto arch = ArchitectureGraph::bus_architecture(6, 1e5, 1e-5);
      arch.set_tdma(0, kSlot, 6);
      return arch;
    }
    case Family::kTdmaAligned: {
      auto arch = ArchitectureGraph::bus_architecture(
          static_cast<std::size_t>(rng.uniform_int(2, 4)), 1e4, 0.0);
      arch.set_tdma(0, kSlot, static_cast<std::size_t>(rng.uniform_int(1, 4)));
      return arch;
    }
    case Family::kZeroLatency:
      return ArchitectureGraph::bus_architecture(3, 1e4, 0.0);
    case Family::kChain:
      return two_bus_chain();
  }
  return ArchitectureGraph::bus_architecture(1, 1.0);
}

/// A random DAG of 8-300 ops with edge cases drawn per graph: zero-WCET
/// ops, zero-size deps, release offsets, explicit message priorities, and
/// (for `aligned`) WCETs on the TDMA slot grid.
AlgorithmGraph workload(math::Rng& rng, bool aligned) {
  const auto n_ops = static_cast<std::size_t>(rng.uniform_int(8, 300));
  const AlgorithmGraph base = ecsim::testing::random_dag(rng, n_ops);
  const bool zero_wcet = rng.uniform() < 0.5;
  const bool zero_size = rng.uniform() < 0.5;
  const bool releases = rng.uniform() < 0.5;
  const bool priorities = rng.uniform() < 0.5;
  AlgorithmGraph alg(base.name(), base.period());
  for (OpId i = 0; i < base.num_operations(); ++i) {
    Operation op = base.op(i);
    if (aligned) op.wcet["cpu"] = kSlot * static_cast<Time>(i % 5);
    if (zero_wcet && i % 4 == 1) op.wcet["cpu"] = 0.0;
    if (releases && i % 5 == 2) op.release = 0.004 * static_cast<Time>(i % 7);
    alg.add_operation(std::move(op));
  }
  for (std::size_t di = 0; di < base.dependencies().size(); ++di) {
    const DataDep& d = base.dependencies()[di];
    const double size = zero_size && di % 3 != 2 ? 0.0 : d.size;
    const std::size_t prio = priorities && di % 3 == 0 ? (di * 7) % 11 : kNone;
    alg.add_dependency(d.from, d.to, size, prio);
  }
  return alg;
}

class AdequationDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdequationDifferential, IncrementalSelectionMatchesFullReevaluation) {
  const std::uint64_t seed = GetParam();
  math::Rng rng(seed * 2654435761u);
  AdequationOptions comm_blind;
  comm_blind.comm_aware = false;
  AdequationOptions earliest_finish;
  earliest_finish.rule = SelectionRule::kEarliestFinish;
  const AdequationOptions option_sets[] = {{}, comm_blind, earliest_finish};
  for (const Family family : kFamilies) {
    const AlgorithmGraph alg =
        workload(rng, family == Family::kTdmaAligned);
    const ArchitectureGraph arch = architecture(family, rng, seed);
    for (std::size_t o = 0; o < std::size(option_sets); ++o) {
      std::uint64_t considered = 0;
      const Schedule want =
          full_reevaluation(alg, arch, option_sets[o], considered);
      obs::MetricsRegistry metrics;
      AdequationOptions opts = option_sets[o];
      opts.metrics = &metrics;
      const Schedule got = adequate(alg, arch, opts);
      const std::string where = "family " +
                                std::to_string(static_cast<int>(family)) +
                                ", " + std::to_string(alg.num_operations()) +
                                " ops, option set " + std::to_string(o);
      EXPECT_EQ(schedule_difference(got, want), "") << where;
      EXPECT_EQ(metrics.counter("aaa.candidates_evaluated").value() +
                    metrics.counter("aaa.candidates_reused").value(),
                considered)
          << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdequationDifferential,
                         ::testing::Range<std::uint64_t>(1, 17));

// --- soundness ---------------------------------------------------------------

class AdequationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdequationProperty, RandomWorkloadsScheduleSoundly) {
  math::Rng rng(GetParam());
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t n_ops =
        3 + static_cast<std::size_t>(rng.uniform_int(0, 9));
    const AlgorithmGraph alg = ecsim::testing::random_dag(rng, n_ops);
    const ArchitectureGraph arch = ecsim::testing::random_bus(rng);
    const Schedule sched = adequate(alg, arch);
    ASSERT_NO_THROW(sched.validate(alg, arch));
    EXPECT_EQ(sched.ops().size(), n_ops);

    // Lower bound: makespan >= critical path of pure computation.
    const auto levels = alg.tail_levels();
    double cp = 0.0;
    for (double l : levels) cp = std::max(cp, l);
    EXPECT_GE(sched.makespan() + 1e-12, cp);

    // Upper bound sanity: never worse than fully sequential + all comms.
    double total = 0.0;
    for (OpId i = 0; i < alg.num_operations(); ++i) {
      total += alg.op(i).wcet_on("cpu");
    }
    double total_comm = 0.0;
    if (arch.num_media() > 0) {
      for (const DataDep& d : alg.dependencies()) {
        total_comm += arch.medium(0).transfer_time(d.size);
      }
    }
    EXPECT_LE(sched.makespan(), total + total_comm + 1e-9);
  }
}

TEST_P(AdequationProperty, DeterministicForIdenticalInput) {
  math::Rng rng(GetParam() * 7919);
  const AlgorithmGraph alg = ecsim::testing::random_dag(rng, 8);
  const ArchitectureGraph arch = ArchitectureGraph::bus_architecture(3, 1e4, 1e-5);
  const Schedule s1 = adequate(alg, arch);
  const Schedule s2 = adequate(alg, arch);
  ASSERT_EQ(s1.ops().size(), s2.ops().size());
  for (std::size_t i = 0; i < s1.ops().size(); ++i) {
    EXPECT_EQ(s1.ops()[i].op, s2.ops()[i].op);
    EXPECT_EQ(s1.ops()[i].proc, s2.ops()[i].proc);
    EXPECT_DOUBLE_EQ(s1.ops()[i].start, s2.ops()[i].start);
  }
}

TEST_P(AdequationProperty, CommAwareNeverLosesOnSingleProcessor) {
  // On one processor there are no comms, so both variants must agree.
  math::Rng rng(GetParam() * 104729);
  const AlgorithmGraph alg = ecsim::testing::random_dag(rng, 7);
  const ArchitectureGraph arch = ArchitectureGraph::bus_architecture(1, 1.0);
  const double aware = adequate(alg, arch, {.comm_aware = true}).makespan();
  const double blind = adequate(alg, arch, {.comm_aware = false}).makespan();
  EXPECT_DOUBLE_EQ(aware, blind);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdequationProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace ecsim::aaa
