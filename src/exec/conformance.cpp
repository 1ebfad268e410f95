#include "exec/conformance.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

namespace ecsim::exec {

ConformanceReport check_wcet_conformance(const AlgorithmGraph& alg,
                                         const ArchitectureGraph& arch,
                                         const Schedule& sched,
                                         const VmResult& vm, Time period,
                                         double tol) {
  (void)arch;
  ConformanceReport rep;
  std::ostringstream bad;
  if (vm.deadlock) {
    rep.ok = false;
    bad << "deadlock: " << vm.deadlock_info << "; ";
  }
  std::size_t mismatches = 0;
  // Compares one instance of iteration `iter` with its schedule interval;
  // `what` names it in the violation text.
  const auto check = [&](const auto& what, std::size_t iter, Time start,
                         Time end, Time sched_start, Time sched_end) {
    const Time shift = static_cast<Time>(iter) * period;
    const Time expect_start = sched_start + shift;
    const Time expect_end = sched_end + shift;
    const double err =
        std::max(std::abs(start - expect_start), std::abs(end - expect_end));
    rep.max_time_error = std::max(rep.max_time_error, err);
    if (err > tol) {
      rep.ok = false;
      if (++mismatches <= kMaxListedViolations) {
        bad << what() << " iter " << iter << " at [" << start << "," << end
            << ") expected [" << expect_start << "," << expect_end << "); ";
      }
    }
  };
  for (const OpInstance& oi : vm.ops) {
    const aaa::ScheduledOp& so = sched.of_op(oi.op);
    ++rep.checked_instances;
    check([&] { return "op '" + alg.op(oi.op).name + "'"; }, oi.iteration,
          oi.start, oi.end, so.start, so.end);
  }
  for (const CommInstance& ci : vm.comms) {
    const aaa::ScheduledComm& sc = sched.comms()[ci.comm];
    ++rep.checked_comm_instances;
    check(
        [&] {
          const aaa::DataDep& dep = alg.dependencies()[sc.dep_index];
          return "comm '" + alg.op(dep.from).name + "->" +
                 alg.op(dep.to).name + "'";
        },
        ci.iteration, ci.start, ci.end, sc.start, sc.end);
  }
  if (mismatches > kMaxListedViolations) {
    bad << "… and " << mismatches - kMaxListedViolations << " more";
  }
  rep.violations = bad.str();
  return rep;
}

ConformanceReport check_order_preservation(const AlgorithmGraph& alg,
                                           const ArchitectureGraph& arch,
                                           const Schedule& sched,
                                           const VmResult& vm, double tol) {
  ConformanceReport rep;
  std::ostringstream bad;
  if (vm.deadlock) {
    rep.ok = false;
    bad << "deadlock: " << vm.deadlock_info << "; ";
  }
  // Schedule position of each op on its processor.
  std::map<aaa::OpId, std::pair<ProcId, std::size_t>> position;
  for (ProcId p = 0; p < sched.num_procs(); ++p) {
    const auto& order = sched.ops_on(p);
    for (std::size_t i = 0; i < order.size(); ++i) {
      position[sched.ops()[order[i]].op] = {p, i};
    }
  }
  // Group instances per processor, sort by start, verify they appear in
  // (iteration, schedule-position) lexicographic order and do not overlap.
  std::vector<std::vector<OpInstance>> per_proc(arch.num_processors());
  for (const OpInstance& oi : vm.ops) per_proc.at(oi.proc).push_back(oi);
  for (ProcId p = 0; p < per_proc.size(); ++p) {
    auto& v = per_proc[p];
    std::sort(v.begin(), v.end(), [](const OpInstance& a, const OpInstance& b) {
      if (a.start != b.start) return a.start < b.start;
      return a.iteration < b.iteration;
    });
    for (std::size_t i = 0; i < v.size(); ++i) {
      ++rep.checked_instances;
      const auto [proc, pos] = position.at(v[i].op);
      if (proc != p) {
        rep.ok = false;
        bad << "op '" << alg.op(v[i].op).name << "' ran on wrong processor; ";
      }
      if (i == 0) continue;
      const auto [prev_proc, prev_pos] = position.at(v[i - 1].op);
      const bool order_ok =
          v[i - 1].iteration < v[i].iteration ||
          (v[i - 1].iteration == v[i].iteration && prev_pos < pos);
      if (!order_ok) {
        rep.ok = false;
        bad << "order violation on processor " << arch.processor(p).name
            << ": '" << alg.op(v[i - 1].op).name << "' iter "
            << v[i - 1].iteration << " vs '" << alg.op(v[i].op).name
            << "' iter " << v[i].iteration << "; ";
      }
      if (v[i].start + tol < v[i - 1].end) {
        rep.ok = false;
        bad << "overlap on processor " << arch.processor(p).name << "; ";
      }
    }
  }
  rep.violations = bad.str();
  return rep;
}

DeadlineReport check_deadlines(const AlgorithmGraph& alg, const VmResult& vm,
                               Time period) {
  DeadlineReport rep;
  std::ostringstream details;
  int reported = 0;
  for (const OpInstance& oi : vm.ops) {
    ++rep.checked_instances;
    const Time deadline = static_cast<Time>(oi.iteration + 1) * period;
    if (oi.end > deadline + 1e-12) {
      ++rep.misses;
      rep.worst_overrun = std::max(rep.worst_overrun, oi.end - deadline);
      if (reported < 5) {
        details << alg.op(oi.op).name << " iter " << oi.iteration
                << " finished " << oi.end - deadline << " late; ";
        ++reported;
      }
    }
  }
  rep.details = details.str();
  return rep;
}

}  // namespace ecsim::exec
