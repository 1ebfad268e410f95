// Robustness evaluation sweeps (DESIGN.md §3.5): grids of fault severity —
// message-loss rate × extra delivery delay — evaluated through the full AAA
// flow (adequation -> graph of delays with fault gates -> co-simulation),
// plus Monte Carlo dropout trials that re-seed the fault stream per trial.
// Cells run concurrently on a par::BatchRunner with serial-identical
// results: every injection decision inside a cell is a pure function of the
// cell's fault seed (see fault/fault_plan.hpp), so the grid is bit-identical
// for any thread count. All cells of one grid share one fault seed, which by
// the subset-coupling property makes the loss sets nested across loss rates
// — control cost degrades monotonically down a loss-rate column instead of
// re-rolling the dice per cell (asserted by bench_f1_fault_sweep).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "mathlib/stats.hpp"
#include "par/batch_runner.hpp"
#include "translate/cosim.hpp"

namespace ecsim::sweep {

/// One evaluated fault point. `stable` mirrors SweepCell's divergence flag
/// so sweep::heatmap renders FaultCell grids unchanged.
struct FaultCell {
  double loss_rate = 0.0;  // row axis: per-frame loss probability
  double delay = 0.0;      // column axis: extra delivery delay (s)
  std::uint64_t fault_seed = 0;  // the plan seed this cell ran with
  double iae = 0.0;
  double ise = 0.0;
  double itae = 0.0;
  double cost = 0.0;  // time-averaged quadratic cost
  double overshoot_pct = 0.0;
  std::size_t messages_lost = 0;      // frames dropped by the fault gates
  std::size_t messages_deferred = 0;  // frames delivered late
  bool stable = true;
};

/// Loss-rate × delay grid on the distributed loop. The zero-fault cell
/// (loss 0, delay 0) carries an *empty* plan and is therefore bit-identical
/// to a fault-free run_distributed_loop — the regression anchor of the
/// robustness benches.
struct FaultGrid {
  translate::LoopSpec loop;
  translate::DistributedSpec dist;  // base; god.fault_plan replaced per cell
  std::vector<double> loss_rates;   // rows: loss probability in [0,1]
  std::vector<double> delays;       // columns: extra delivery delay (s)
  /// Probability a frame is delayed when the cell's delay is > 0.
  double delay_probability = 1.0;
  /// Faulted medium name; "" = every medium of the architecture.
  std::string medium;
  /// One seed for the whole grid (subset coupling across loss rates).
  std::uint64_t fault_seed = 1;
};

/// Row-major over loss_rates × delays, bit-identical for any thread count.
std::vector<FaultCell> run_fault_sweep(const FaultGrid& grid,
                                       const par::BatchOptions& batch = {});

/// The per-cell fault plan every consumer arms: loss `loss_rate` and a
/// `delay_probability`-gated extra `delay` on `medium`, seeded with `seed`.
/// Exposed so the sweep service (src/svc) can compute fault::hash of the
/// exact plan a cached cell ran under — drift between this builder and the
/// sweep would silently split the cache key space, never corrupt results.
fault::FaultPlan fault_cell_plan(const std::string& medium, double loss_rate,
                                 double delay, double delay_probability,
                                 std::uint64_t seed);

/// Monte Carlo dropout study: `trials` runs at one loss rate, trial t using
/// fault seed base_seed + t — the distribution of control cost under
/// message loss, not just one draw.
struct FaultMonteCarloSpec {
  translate::LoopSpec loop;
  translate::DistributedSpec dist;
  double loss_rate = 0.1;
  std::size_t trials = 32;
  std::string medium;  // "" = every medium
  std::uint64_t base_seed = 1;
  /// Trials per BatchRunner task (0 = kDefaultBatchWidth, declared in
  /// par/monte_carlo.hpp). Trial t's fault seed stays base_seed + t
  /// regardless of width, so outcomes are bit-identical at any batch width
  /// and thread count.
  std::size_t batch_width = 0;
};

struct FaultMonteCarloResult {
  std::size_t trials = 0;
  double loss_rate = 0.0;
  math::Summary cost;           // over stable trials
  math::Summary iae;            // over stable trials
  math::Summary messages_lost;  // over all trials
  std::size_t unstable_trials = 0;
  std::vector<FaultCell> cells;  // per-trial outcomes, trial order
  std::size_t batch_width = 1;   // effective trials-per-task granularity
  double wall_s = 0.0;
  double trials_per_s = 0.0;
};

FaultMonteCarloResult run_fault_monte_carlo(
    const FaultMonteCarloSpec& spec, const par::BatchOptions& batch = {});

/// Reduce per-trial cells (trial order) into the distribution result —
/// summaries over stable trials, loss accounting over all. Shared by
/// run_fault_monte_carlo and the sweep-service client, which reassembles
/// the same statistics from daemon-served cells. Timing fields stay 0.
FaultMonteCarloResult summarize_fault_trials(std::vector<FaultCell> cells,
                                             double loss_rate);

/// Machine-readable dump, one row per cell, header included.
std::string to_csv(const std::vector<FaultCell>& cells);

/// Printable distribution table of a dropout study.
std::string to_string(const FaultMonteCarloResult& result);

}  // namespace ecsim::sweep
