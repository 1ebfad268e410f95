// Monte Carlo execution-time analysis over the executive VM (DESIGN.md
// §3.3): many VM runs of one static schedule, each drawing actual execution
// times (and optionally branches) from its own decorrelated RNG stream, and
// the per-trial latency/jitter statistics reduced across trials in trial
// order. This turns the single "actual times" run of EXP-F1 into a
// distributional statement — how much latency/jitter does the
// implementation *typically* exhibit, not just in one draw — and it is
// embarrassingly parallel.
#pragma once

#include <string>
#include <vector>

#include "aaa/codegen.hpp"
#include "mathlib/stats.hpp"
#include "par/batch_runner.hpp"

namespace ecsim::sweep {

/// Trials per BatchRunner task when a spec leaves batch_width at 0 — for
/// this VM Monte Carlo and for run_fault_monte_carlo alike.
inline constexpr std::size_t kDefaultBatchWidth = 8;

struct MonteCarloSpec {
  std::size_t trials = 100;
  std::size_t iterations = 50;  // VM iterations per trial
  /// Actual execution time ~ uniform(bcet_fraction, 1.0) * WCET.
  double bcet_fraction = 0.5;
  /// Conditional ops draw a uniformly random branch per iteration (else the
  /// worst-case branch the schedule reserves).
  bool random_branches = true;
  /// Sensor release period; 0 = the algorithm's period, falling back to the
  /// schedule makespan for aperiodic graphs.
  aaa::Time period = 0.0;
  /// Trials per BatchRunner task (0 = kDefaultBatchWidth).
  /// Seeds are drawn per *trial*, never per task, so the statistics are
  /// bit-identical for any batch width — the width only sets the task
  /// granularity the runner shards over.
  std::size_t batch_width = 0;
};

/// Distribution over trials of one I/O operation's per-trial statistics.
struct MonteCarloOpStats {
  aaa::OpId op = 0;
  std::string name;
  bool sensor = false;             // else actuator
  math::Summary mean_latency;      // per-trial mean of eq.(1)/(2) latencies
  math::Summary max_latency;       // per-trial max
  math::Summary jitter;            // per-trial peak-to-peak
};

struct MonteCarloResult {
  std::size_t trials = 0;
  std::size_t deadlocks = 0;       // trials that deadlocked (excluded below)
  math::Summary makespan;          // per-trial last completion instant
  std::vector<MonteCarloOpStats> io_ops;  // sensors + actuators, op order
  std::size_t batch_width = 1;     // effective trials-per-task granularity
  double wall_s = 0.0;
  double trials_per_s = 0.0;       // throughput over the whole batch
};

/// Run the trials on a BatchRunner (batch.seed roots the per-trial stream
/// family). Results are bit-identical for any thread count.
MonteCarloResult run_monte_carlo(const aaa::AlgorithmGraph& alg,
                                 const aaa::ArchitectureGraph& arch,
                                 const aaa::Schedule& sched,
                                 const aaa::GeneratedCode& code,
                                 const MonteCarloSpec& spec,
                                 const par::BatchOptions& batch = {});

/// Printable per-operation table of the distributions.
std::string to_string(const MonteCarloResult& result);

}  // namespace ecsim::sweep
