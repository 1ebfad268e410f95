#include "par/batch_runner.hpp"

#include <exception>
#include <utility>

namespace ecsim::par {

BatchRunner::BatchRunner(BatchOptions opts) : opts_(std::move(opts)) {
  if (opts_.pool != nullptr) {
    pool_ = opts_.pool;
    threads_ = pool_->num_workers();
  } else {
    threads_ =
        opts_.threads == 0 ? TaskPool::default_threads() : opts_.threads;
    if (threads_ > 1) {
      owned_pool_ = std::make_unique<TaskPool>(threads_);
      pool_ = owned_pool_.get();
    }
  }
}

void BatchRunner::run(std::size_t n,
                      const std::function<void(TaskContext&)>& fn) {
  if (n == 0) return;
  // Shard slots are indexed by task id, so everything after this point is
  // insensitive to execution order.
  std::vector<std::unique_ptr<obs::MetricsRegistry>> metric_shards(
      opts_.metrics != nullptr ? n : 0);
  std::vector<std::unique_ptr<obs::Tracer>> tracer_shards(
      opts_.tracer != nullptr ? n : 0);

  auto run_task = [&](std::size_t i, std::size_t worker) {
    TaskContext ctx;
    ctx.index = i;
    ctx.worker = worker;
    if (opts_.metrics != nullptr) {
      metric_shards[i] = std::make_unique<obs::MetricsRegistry>();
      ctx.metrics = metric_shards[i].get();
    }
    if (opts_.tracer != nullptr) {
      tracer_shards[i] = std::make_unique<obs::Tracer>(opts_.tracer_capacity);
      tracer_shards[i]->set_enabled(true);
      ctx.tracer = tracer_shards[i].get();
    }
    fn(ctx);
  };

  // Both paths drain the whole batch before reporting the lowest-indexed
  // failure, so the merged observability below covers the same set of
  // completed tasks serial and parallel.
  std::exception_ptr pending;
  std::size_t pending_task = 0;
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      try {
        run_task(i, 0);
      } catch (...) {
        if (!pending) {
          pending = std::current_exception();
          pending_task = i;
        }
      }
    }
    (void)pending_task;
  } else {
    try {
      pool_->for_each(n, run_task);
    } catch (...) {
      pending = std::current_exception();
    }
  }

  // Task-index-order shard merge: the aggregate snapshot is a pure function
  // of the batch definition, not of the interleaving.
  for (std::size_t i = 0; i < n; ++i) {
    if (opts_.metrics != nullptr && metric_shards[i] != nullptr) {
      opts_.metrics->merge(*metric_shards[i]);
    }
    if (opts_.tracer != nullptr && tracer_shards[i] != nullptr) {
      opts_.tracer->append(*tracer_shards[i]);
    }
  }
  if (pending) std::rethrow_exception(pending);
}

}  // namespace ecsim::par
