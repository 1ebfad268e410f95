#include "par/monte_carlo.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "exec/executive_vm.hpp"
#include "latency/latency.hpp"
#include "mathlib/rng.hpp"

namespace ecsim::sweep {

namespace {

/// Everything one trial contributes to the reduction.
struct TrialOutcome {
  bool deadlock = false;
  double makespan = 0.0;
  // Parallel to the io-op list: per-trial mean / max / p2p latency.
  std::vector<double> mean_latency;
  std::vector<double> max_latency;
  std::vector<double> jitter;
};

}  // namespace

MonteCarloResult run_monte_carlo(const aaa::AlgorithmGraph& alg,
                                 const aaa::ArchitectureGraph& arch,
                                 const aaa::Schedule& sched,
                                 const aaa::GeneratedCode& code,
                                 const MonteCarloSpec& spec,
                                 const par::BatchOptions& batch) {
  std::vector<aaa::OpId> io_ops;
  for (aaa::OpId op = 0; op < alg.num_operations(); ++op) {
    if (alg.op(op).kind != aaa::OpKind::kCompute) io_ops.push_back(op);
  }
  const aaa::Time period =
      spec.period > 0.0
          ? spec.period
          : (alg.period() > 0.0 ? alg.period() : sched.makespan());

  const std::size_t width =
      spec.batch_width > 0 ? spec.batch_width : kDefaultBatchWidth;
  const std::size_t tasks = (spec.trials + width - 1) / width;

  par::BatchRunner runner(batch);
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<std::vector<TrialOutcome>> shards =
      runner.map<std::vector<TrialOutcome>>(tasks, [&](par::TaskContext& ctx) {
        const std::size_t begin = ctx.index * width;
        const std::size_t end = std::min(begin + width, spec.trials);
        std::vector<TrialOutcome> outs;
        outs.reserve(end - begin);
        for (std::size_t trial = begin; trial < end; ++trial) {
          exec::VmOptions vm;
          vm.iterations = spec.iterations;
          vm.period = period;
          // Keyed by (batch.seed, trial index) alone, so any batch width
          // and any thread count reproduce the same trial realizations.
          vm.seed = math::keyed_rng(batch.seed, aaa::kTrialDomain, trial)
                        .next_u64();
          vm.bcet_fraction = spec.bcet_fraction;
          vm.branch = spec.branch;
          vm.tracer = ctx.tracer;
          vm.metrics = ctx.metrics;
          vm.track_prefix = "trial" + std::to_string(trial) + "/";
          const exec::VmResult run =
              exec::run_executives(alg, arch, sched, code, vm);

          TrialOutcome out;
          out.deadlock = run.deadlock;
          if (!run.deadlock) {
            for (const exec::OpInstance& inst : run.ops) {
              out.makespan = std::max(out.makespan, inst.end);
            }
            for (const aaa::OpId op : io_ops) {
              const latency::LatencySeries series = latency::analyze_instants(
                  alg.op(op).name, run.completions(op), period);
              out.mean_latency.push_back(series.summary.mean);
              out.max_latency.push_back(series.summary.max);
              out.jitter.push_back(series.jitter);
            }
          }
          outs.push_back(std::move(out));
        }
        return outs;
      });
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::vector<TrialOutcome> trials;
  trials.reserve(spec.trials);
  for (const std::vector<TrialOutcome>& shard : shards) {
    for (const TrialOutcome& t : shard) trials.push_back(t);
  }

  MonteCarloResult result;
  result.trials = spec.trials;
  result.batch_width = width;
  result.wall_s = wall_s;
  result.trials_per_s =
      wall_s > 0.0 ? static_cast<double>(spec.trials) / wall_s : 0.0;
  std::vector<double> makespans;
  std::vector<std::vector<double>> means(io_ops.size()), maxs(io_ops.size()),
      jitters(io_ops.size());
  for (const TrialOutcome& t : trials) {
    if (t.deadlock) {
      ++result.deadlocks;
      continue;
    }
    makespans.push_back(t.makespan);
    for (std::size_t k = 0; k < io_ops.size(); ++k) {
      means[k].push_back(t.mean_latency[k]);
      maxs[k].push_back(t.max_latency[k]);
      jitters[k].push_back(t.jitter[k]);
    }
  }
  result.makespan = math::summarize(makespans);
  for (std::size_t k = 0; k < io_ops.size(); ++k) {
    MonteCarloOpStats stats;
    stats.op = io_ops[k];
    stats.name = alg.op(io_ops[k]).name;
    stats.sensor = alg.op(io_ops[k]).kind == aaa::OpKind::kSensor;
    stats.mean_latency = math::summarize(means[k]);
    stats.max_latency = math::summarize(maxs[k]);
    stats.jitter = math::summarize(jitters[k]);
    result.io_ops.push_back(std::move(stats));
  }
  return result;
}

std::string to_string(const MonteCarloResult& result) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%zu trials (%zu deadlocked), makespan mean=%.6g p95=%.6g "
                "max=%.6g\n",
                result.trials, result.deadlocks, result.makespan.mean,
                result.makespan.p95, result.makespan.max);
  std::string out = buf;
  std::snprintf(buf, sizeof buf,
                "%-12s %-9s %12s %12s %12s %12s\n", "operation", "kind",
                "mean(La/Ls)", "p95(mean)", "max(max)", "p95(jitter)");
  out += buf;
  for (const MonteCarloOpStats& s : result.io_ops) {
    std::snprintf(buf, sizeof buf, "%-12s %-9s %12.6f %12.6f %12.6f %12.6f\n",
                  s.name.c_str(), s.sensor ? "sampling" : "actuation",
                  s.mean_latency.mean, s.mean_latency.p95, s.max_latency.max,
                  s.jitter.p95);
    out += buf;
  }
  return out;
}

}  // namespace ecsim::sweep
