// Design-space sweeps over the co-simulation driver (DESIGN.md §3.3): the
// latency × jitter grids of EXP-C1 and the bus-bandwidth × WCET grids of
// EXP-F3, evaluated concurrently on a par::BatchRunner with serial-identical
// results. Each grid cell assembles its own loop model and simulator, so the
// cells are embarrassingly parallel; the cell order in the returned vector
// is row-major over the grid axes regardless of thread count.
#pragma once

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "par/batch_runner.hpp"
#include "translate/cosim.hpp"

namespace ecsim::sweep {

/// One evaluated point of the design space. Grid coordinates the sweep did
/// not vary stay 0.
struct SweepCell {
  double la_frac = 0.0;      // constant actuation latency / Ts
  double jitter_frac = 0.0;  // actuation jitter peak-to-peak / Ts
  double bus_bandwidth = 0.0;  // architecture axis: bus data units per s
  double wcet_scale = 0.0;     // architecture axis: controller WCET multiplier
  double iae = 0.0;
  double ise = 0.0;
  double itae = 0.0;
  double cost = 0.0;  // time-averaged quadratic cost
  double overshoot_pct = 0.0;
  double act_latency_mean = 0.0;  // measured La mean (eq. 2)
  double act_jitter = 0.0;        // measured La peak-to-peak
  bool schedulable = true;  // arch cells: the schedule fits the period
  bool stable = true;             // closed loop did not diverge
};

/// EXP-C1 shape: constant-latency × jitter grid via run_latency_loop.
/// Every cell simulates with loop.seed (same contract as the serial
/// benches: cells differ by their grid point, not by their noise draw).
struct TimingGrid {
  translate::LoopSpec loop;
  std::vector<double> latency_fracs;  // La/Ts values (rows)
  std::vector<double> jitter_fracs;   // jitter p2p/Ts values (columns)
};

/// EXP-F3 shape: bus-bandwidth × controller-WCET grid through the full AAA
/// flow (adequation -> graph of delays -> co-simulation).
struct ArchitectureGrid {
  translate::LoopSpec loop;
  translate::DistributedSpec dist;  // base; arch/wcet replaced per cell
  std::size_t processors = 2;
  std::vector<double> bus_bandwidths;  // data units per s (rows)
  std::vector<double> wcet_scales;     // multiplies dist.wcet_ctrl (columns)
};

class SweepRunner {
 public:
  explicit SweepRunner(par::BatchOptions opts = {}) : opts_(opts) {}

  /// Row-major over latency_fracs × jitter_fracs, bit-identical for any
  /// thread count.
  std::vector<SweepCell> run(const TimingGrid& grid) const;
  /// Row-major over bus_bandwidths × wcet_scales; a cell that does not fit
  /// the period comes back schedulable = false instead of throwing.
  std::vector<SweepCell> run(const ArchitectureGrid& grid) const;

 private:
  par::BatchOptions opts_;
};

/// Machine-readable dump, one row per cell, header included.
std::string to_csv(const std::vector<SweepCell>& cells);

/// Text heatmap of one metric over a 2-D grid: `cells` must be row-major
/// rows × cols. Works for any cell type with a `bool stable` member
/// (SweepCell, fault sweeps' FaultCell, ...); diverged cells print
/// "unstable", unschedulable ones (`schedulable == false`, where the type
/// has it) "unsched". Throws std::invalid_argument when cells != rows × cols.
template <typename Cell>
std::string heatmap(const std::vector<Cell>& cells,
                    const std::vector<double>& rows,
                    const std::vector<double>& cols, const char* row_label,
                    const char* col_label, double Cell::*metric,
                    const char* title) {
  if (cells.size() != rows.size() * cols.size()) {
    throw std::invalid_argument("heatmap: cells != rows x cols");
  }
  std::string out = title;
  out += " (rows: ";
  out += row_label;
  out += ", columns: ";
  out += col_label;
  out += ")\n";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%12s", row_label);
  out += buf;
  for (const double c : cols) {
    std::snprintf(buf, sizeof buf, " %10.3g", c);
    out += buf;
  }
  out += "\n";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::snprintf(buf, sizeof buf, "%12.3g", rows[r]);
    out += buf;
    for (std::size_t c = 0; c < cols.size(); ++c) {
      const Cell& cell = cells[r * cols.size() + c];
      const char* label = cell.stable ? nullptr : "unstable";
      if constexpr (requires { cell.schedulable; }) {
        if (!cell.schedulable) label = "unsched";
      }
      if (label == nullptr) {
        std::snprintf(buf, sizeof buf, " %10.4g", cell.*metric);
      } else {
        std::snprintf(buf, sizeof buf, " %10s", label);
      }
      out += buf;
    }
    out += "\n";
  }
  return out;
}

/// Standard sweep workload: LQR state feedback on the Cervin DC servo
/// G(s) = 1000/(s(s+1)) at Ts = 10 ms, unit position step (the loop every
/// experiment in EXPERIMENTS.md is measured against).
translate::LoopSpec servo_loop(double ts = 0.01, double t_end = 1.0);

}  // namespace ecsim::sweep
