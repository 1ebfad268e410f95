// Deterministic parallel batch execution (DESIGN.md §3.3): run n independent
// jobs on a TaskPool and produce results that are bit-identical to the
// serial run, regardless of thread count or scheduling.
//
// The determinism recipe, applied uniformly to every consumer (sweeps,
// Monte Carlo trials, adequation candidate scoring):
//  1. each task builds its own Model/Simulator/ExecutiveVm — no shared
//     mutable state between tasks;
//  2. every random draw is keyed by what it models (a trial, an op, a
//     block: math::keyed_rng(seed, key, k)), never by task, worker or
//     arrival order, so no task holds a random stream of its own;
//  3. each task writes into a per-task obs::MetricsRegistry / obs::Tracer
//     shard; the shards are merged into the caller's aggregates in
//     task-index order after the batch drains;
//  4. results land in a pre-sized slot vector indexed by task id — the
//     reduction is the submission order, not the completion order.
//
// threads == 1 short-circuits to a plain serial loop over the same
// machinery, which doubles as the reference path for the bit-equality
// property tests and benches.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "par/task_pool.hpp"

namespace ecsim::par {

/// Everything a task may use without touching shared state.
struct TaskContext {
  std::size_t index = 0;   // task id == result slot == reduction position
  std::size_t worker = 0;  // executing worker (scratch only — NOT for RNG!)
  /// Per-task observability shards; null unless the batch has a merge
  /// destination attached in BatchOptions.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

struct BatchOptions {
  /// Worker threads; 0 = TaskPool::default_threads()
  /// (hardware_concurrency, ECSIM_THREADS env override), 1 = serial.
  std::size_t threads = 0;
  /// Root seed of the batch's keyed draws (run_monte_carlo's trial seeds
  /// are keyed_rng(seed, aaa::kTrialDomain, trial)).
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  /// Merge destinations (borrowed, may be null). When set, every task gets
  /// a private shard and the shards are merged here in task-index order.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
  /// Ring capacity of each per-task tracer shard (56 B/slot; keep modest
  /// for large batches).
  std::size_t tracer_capacity = 1u << 10;
  /// Reuse an existing pool instead of creating one per runner. Borrowed;
  /// `threads` is ignored when set (the pool's worker count wins).
  TaskPool* pool = nullptr;
};

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions opts = {});

  /// Worker threads the batch will actually use.
  std::size_t threads() const { return threads_; }

  /// Run fn over [0, n) and collect its returns in task-index order.
  /// R must be default-constructible and movable. Rethrows the
  /// lowest-indexed task exception after the batch drains (obs shards of
  /// completed tasks are still merged).
  template <typename R>
  std::vector<R> map(std::size_t n,
                     const std::function<R(TaskContext&)>& fn) {
    std::vector<R> results(n);
    run(n, [&](TaskContext& ctx) { results[ctx.index] = fn(ctx); });
    return results;
  }

  /// Void flavour of map: fn writes its output through TaskContext/capture.
  void run(std::size_t n, const std::function<void(TaskContext&)>& fn);

 private:
  BatchOptions opts_;
  std::size_t threads_ = 1;
  std::unique_ptr<TaskPool> owned_pool_;
  TaskPool* pool_ = nullptr;  // null in serial mode
};

}  // namespace ecsim::par
