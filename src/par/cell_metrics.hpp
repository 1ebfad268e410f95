// Per-cell progress/latency instrumentation shared by the design-space and
// fault sweeps. The instruments are resolved from the batch's *shared*
// MetricsRegistry (par::BatchOptions::metrics), not the per-task shards:
// Counter::add and Histogram::observe are thread-safe, so a long grid is
// observable while it runs — `sweep.cells_completed` ticks up live and
// `sweep.cell_wall_us` accumulates the per-cell wall-time distribution,
// whose p50/p99 (obs::Histogram::quantile) the CLI reports after the run.
// Wall times are inherently nondeterministic, which is why they bypass the
// deterministic shard-merge path; the grid results themselves stay
// serial-identical for any thread count.
#pragma once

#include <chrono>
#include <exception>

#include "obs/metrics.hpp"

namespace ecsim::sweep {

class CellMetrics {
 public:
  explicit CellMetrics(obs::MetricsRegistry* m) {
    if (m != nullptr) {
      done_ = &m->counter("sweep.cells_completed");
      wall_us_ = &m->histogram("sweep.cell_wall_us");
    }
  }

  /// Evaluate one cell, timing it when instruments are attached.
  template <class Fn>
  auto cell(Fn&& fn) -> decltype(fn()) {
    if (done_ == nullptr) return fn();
    const auto t0 = std::chrono::steady_clock::now();
    auto result = fn();
    const double us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - t0)
            .count();
    wall_us_->observe(us);
    done_->add();
    return result;
  }

 private:
  obs::Counter* done_ = nullptr;
  obs::Histogram* wall_us_ = nullptr;
};

/// `fill(cell)` for a cell run through the AAA flow. When the schedule no
/// longer fits the period (or the design breaks down) the cell is returned
/// schedulable = stable = false instead of throwing, so the grid computes.
template <class Cell, class Fill>
Cell unless_unschedulable(Cell cell, Fill&& fill) {
  try {
    fill(cell);
  } catch (const std::exception&) {
    cell.schedulable = false;
    cell.stable = false;
  }
  return cell;
}

}  // namespace ecsim::sweep
