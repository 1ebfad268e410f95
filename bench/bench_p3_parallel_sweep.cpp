// EXP-P3: scaling of the parallel design-space exploration engine. One
// latency×jitter timing grid (the EXP-C1 workload, longer horizon) is swept
// at 1/2/4/8 worker threads, interleaved best-of-7 so machine noise hits
// every configuration equally. Two claims are measured:
//   (1) determinism — every run, at every thread count, produces cells
//       bit-identical to the serial reference (hard failure if not);
//   (2) scaling — on a machine with >= 8 hardware threads, 8 workers must
//       reach >= 4x over serial (checked only there: on smaller hosts the
//       curve is recorded but the guard is skipped).
#include <chrono>
#include <cstring>

#include "bench_common.hpp"
#include "par/sweep.hpp"

using namespace ecsim;

namespace {

constexpr std::size_t kReps = 7;
const std::size_t kThreadCounts[] = {1, 2, 4, 8};

sweep::TimingGrid workload() {
  sweep::TimingGrid grid;
  grid.loop = bench::servo_loop(0.01, 0.6);
  grid.latency_fracs = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5};
  grid.jitter_fracs = {0.0, 0.1, 0.2, 0.3, 0.5};
  return grid;
}

bool cells_equal(const std::vector<sweep::SweepCell>& a,
                 const std::vector<sweep::SweepCell>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const sweep::SweepCell& x = a[i];
    const sweep::SweepCell& y = b[i];
    if (x.la_frac != y.la_frac || x.jitter_frac != y.jitter_frac ||
        x.iae != y.iae || x.ise != y.ise || x.itae != y.itae ||
        x.cost != y.cost || x.overshoot_pct != y.overshoot_pct ||
        x.act_latency_mean != y.act_latency_mean ||
        x.act_jitter != y.act_jitter || x.stable != y.stable) {
      return false;
    }
  }
  return true;
}

int experiment() {
  bench::banner("EXP-P3", "DESIGN.md §3.3",
                "Work-stealing sweep engine: thread-count scaling and "
                "serial-identical determinism on the EXP-C1 timing grid.");
  const sweep::TimingGrid grid = workload();
  const std::size_t hw = std::thread::hardware_concurrency();
  std::printf("grid: %zu cells, horizon %.2g s, hardware threads: %zu\n\n",
              grid.latency_fracs.size() * grid.jitter_fracs.size(),
              grid.loop.t_end, hw);

  const std::size_t n_configs = std::size(kThreadCounts);
  std::vector<double> best_ms(n_configs, 1e300);
  bool all_identical = true;

  // Serial reference once, outside timing: every timed run is compared
  // against it.
  std::vector<sweep::SweepCell> reference;
  {
    par::BatchOptions opts;
    opts.threads = 1;
    reference = sweep::run_timing_sweep(grid, opts);
  }

  // Interleaved best-of-7: rep-major so thermal/scheduler drift spreads
  // across all thread counts instead of biasing the later ones.
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    for (std::size_t c = 0; c < n_configs; ++c) {
      par::BatchOptions opts;
      opts.threads = kThreadCounts[c];
      const auto t0 = std::chrono::steady_clock::now();
      const std::vector<sweep::SweepCell> cells =
          sweep::run_timing_sweep(grid, opts);
      const auto t1 = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      best_ms[c] = std::min(best_ms[c], ms);
      if (!cells_equal(reference, cells)) {
        all_identical = false;
        std::printf("** DETERMINISM VIOLATION at threads=%zu rep=%zu **\n",
                    kThreadCounts[c], rep);
      }
    }
  }

  std::printf("%10s %12s %10s\n", "threads", "best [ms]", "speedup");
  bench::JsonReport report("EXP-P3");
  report.model_ir_hash("servo_loop",
                       ir::hash_hex(translate::loop_ir(grid.loop)));
  report.begin_array("scaling");
  for (std::size_t c = 0; c < n_configs; ++c) {
    const double speedup = best_ms[0] / best_ms[c];
    std::printf("%10zu %12.2f %10.2f\n", kThreadCounts[c], best_ms[c],
                speedup);
    report.begin_object();
    report.field("threads", kThreadCounts[c]);
    report.field("best_ms", best_ms[c]);
    report.field("speedup", speedup);
    report.end_object();
  }
  report.end_array();
  report.begin_array("checks");
  report.begin_object();
  report.field("bit_identical_all_runs",
               std::string(all_identical ? "true" : "false"));
  report.field("reps", kReps);
  report.field("speedup_guard",
               std::string(hw >= 8 ? "enforced" : "skipped (host has fewer "
                                                  "than 8 hardware threads)"));
  report.end_object();
  report.end_array();
  report.write("BENCH_p3.json");

  std::printf("bit-identical across all runs and thread counts: %s\n",
              all_identical ? "yes" : "NO");
  if (!all_identical) return 1;
  if (hw >= 8) {
    const double s8 = best_ms[0] / best_ms[n_configs - 1];
    std::printf("speedup guard (>= 4x at 8 threads on %zu-way host): %.2fx "
                "-> %s\n",
                hw, s8, s8 >= 4.0 ? "pass" : "FAIL");
    if (s8 < 4.0) return 1;
  } else {
    std::printf("speedup guard skipped (%zu hardware threads < 8); scaling "
                "curve recorded for reference only\n",
                hw);
  }
  std::printf("\n");
  return 0;
}

void BM_SweepSerial(benchmark::State& state) {
  sweep::TimingGrid grid = workload();
  grid.loop.t_end = 0.2;
  par::BatchOptions opts;
  opts.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto cells = sweep::run_timing_sweep(grid, opts);
    benchmark::DoNotOptimize(cells);
  }
}
BENCHMARK(BM_SweepSerial)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const int rc = experiment();
  if (rc != 0) return rc;
  return bench::run_benchmarks(argc, argv);
}
