#include "par/fault_sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "par/cell_metrics.hpp"
#include "par/monte_carlo.hpp"
#include "par/sweep.hpp"

namespace ecsim::sweep {

namespace {

FaultCell evaluate_cell(const translate::LoopSpec& loop,
                        const translate::DistributedSpec& base,
                        double loss_rate, double delay,
                        double delay_probability, const std::string& medium,
                        std::uint64_t fault_seed) {
  translate::DistributedSpec dist = base;
  // empty at (0,0): bit-identical to fault-free
  dist.god.fault_plan =
      fault_cell_plan(medium, loss_rate, delay, delay_probability, fault_seed);

  const translate::CosimOutcome out =
      translate::run_distributed_loop(loop, dist);
  FaultCell cell;
  cell.loss_rate = loss_rate;
  cell.delay = delay;
  cell.fault_seed = fault_seed;
  cell.iae = out.iae;
  cell.ise = out.ise;
  cell.itae = out.itae;
  cell.cost = out.cost;
  cell.overshoot_pct = out.step.overshoot_pct;
  cell.messages_lost = out.messages_lost;
  cell.messages_deferred = out.messages_deferred;
  cell.stable = out.iae < kUnstableIae;
  return cell;
}

}  // namespace

fault::FaultPlan fault_cell_plan(const std::string& medium, double loss_rate,
                                 double delay, double delay_probability,
                                 std::uint64_t seed) {
  fault::FaultPlan plan;
  plan.seed = seed;
  if (loss_rate > 0.0) plan.message_loss(medium, loss_rate);
  if (delay > 0.0) plan.message_delay(medium, delay_probability, delay);
  return plan;
}

std::vector<FaultCell> run_fault_sweep(const FaultGrid& grid,
                                       const par::BatchOptions& batch) {
  if (grid.loss_rates.empty() || grid.delays.empty()) {
    throw std::invalid_argument("run_fault_sweep: empty grid axis");
  }
  const std::size_t cols = grid.delays.size();
  const std::size_t n = grid.loss_rates.size() * cols;
  par::BatchRunner runner(batch);
  translate::LoopSpec loop = grid.loop;
  loop.threads = static_cast<unsigned>(runner.threads());  // ledger annotation
  CellMetrics cm(batch.metrics);
  return runner.map<FaultCell>(n, [&](par::TaskContext& ctx) {
    return cm.cell([&] {
      const double loss = grid.loss_rates[ctx.index / cols];
      const double delay = grid.delays[ctx.index % cols];
      return evaluate_cell(loop, grid.dist, loss, delay,
                           grid.delay_probability, grid.medium,
                           grid.fault_seed);
    });
  });
}

FaultMonteCarloResult run_fault_monte_carlo(const FaultMonteCarloSpec& spec,
                                            const par::BatchOptions& batch) {
  if (spec.trials == 0) {
    throw std::invalid_argument("run_fault_monte_carlo: zero trials");
  }
  par::BatchRunner runner(batch);
  translate::LoopSpec loop = spec.loop;
  loop.threads = static_cast<unsigned>(runner.threads());  // ledger annotation
  CellMetrics cm(batch.metrics);
  FaultMonteCarloResult result;
  result.trials = spec.trials;
  result.loss_rate = spec.loss_rate;
  // Shard `width` trials per task; each trial's fault seed is a pure
  // function of its global index, so the cell list below is bit-identical
  // for any width/thread combination.
  const std::size_t width =
      spec.batch_width > 0 ? spec.batch_width : kDefaultBatchWidth;
  const std::size_t tasks = (spec.trials + width - 1) / width;
  result.batch_width = width;
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<std::vector<FaultCell>> shards =
      runner.map<std::vector<FaultCell>>(tasks, [&](par::TaskContext& ctx) {
        const std::size_t begin = ctx.index * width;
        const std::size_t end = std::min(begin + width, spec.trials);
        std::vector<FaultCell> outs;
        outs.reserve(end - begin);
        for (std::size_t trial = begin; trial < end; ++trial) {
          outs.push_back(cm.cell([&] {
            return evaluate_cell(
                loop, spec.dist, spec.loss_rate, 0.0, 1.0, spec.medium,
                spec.base_seed + static_cast<std::uint64_t>(trial));
          }));
        }
        return outs;
      });
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::vector<FaultCell> cells;
  cells.reserve(spec.trials);
  for (const std::vector<FaultCell>& shard : shards) {
    for (const FaultCell& c : shard) cells.push_back(c);
  }
  const std::size_t batch_width = result.batch_width;
  result = summarize_fault_trials(std::move(cells), spec.loss_rate);
  result.batch_width = batch_width;
  result.wall_s = wall_s;
  result.trials_per_s =
      wall_s > 0.0 ? static_cast<double>(spec.trials) / wall_s : 0.0;
  return result;
}

FaultMonteCarloResult summarize_fault_trials(std::vector<FaultCell> cells,
                                             double loss_rate) {
  FaultMonteCarloResult result;
  result.trials = cells.size();
  result.loss_rate = loss_rate;
  std::vector<double> cost, iae, lost;
  for (const FaultCell& c : cells) {
    lost.push_back(static_cast<double>(c.messages_lost));
    if (!c.stable) {
      ++result.unstable_trials;
      continue;
    }
    cost.push_back(c.cost);
    iae.push_back(c.iae);
  }
  result.cost = math::summarize(cost);
  result.iae = math::summarize(iae);
  result.messages_lost = math::summarize(lost);
  result.cells = std::move(cells);
  return result;
}

std::string to_csv(const std::vector<FaultCell>& cells) {
  std::string out =
      "loss_rate,delay,fault_seed,iae,ise,itae,cost,overshoot_pct,"
      "messages_lost,messages_deferred,stable\n";
  char buf[320];
  for (const FaultCell& c : cells) {
    std::snprintf(buf, sizeof buf,
                  "%.17g,%.17g,%llu,%.17g,%.17g,%.17g,%.17g,%.17g,%zu,%zu,"
                  "%d\n",
                  c.loss_rate, c.delay,
                  static_cast<unsigned long long>(c.fault_seed), c.iae, c.ise,
                  c.itae, c.cost, c.overshoot_pct, c.messages_lost,
                  c.messages_deferred, c.stable ? 1 : 0);
    out += buf;
  }
  return out;
}

std::string to_string(const FaultMonteCarloResult& r) {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof buf,
                "dropout study: %zu trials at loss rate %.3g (%zu unstable)\n",
                r.trials, r.loss_rate, r.unstable_trials);
  out += buf;
  std::snprintf(buf, sizeof buf, "  %-14s %10s %10s %10s %10s\n", "metric",
                "mean", "stddev", "min", "max");
  out += buf;
  const auto row = [&](const char* name, const math::Summary& s) {
    std::snprintf(buf, sizeof buf, "  %-14s %10.4g %10.4g %10.4g %10.4g\n",
                  name, s.mean, s.stddev, s.min, s.max);
    out += buf;
  };
  row("cost", r.cost);
  row("iae", r.iae);
  row("messages_lost", r.messages_lost);
  return out;
}

}  // namespace ecsim::sweep
