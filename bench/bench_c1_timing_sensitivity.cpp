// EXP-C1 (background, paper ref [2] — Cervin et al., "How does control
// timing affect performance?"): quantify the sensitivity of the DC-servo
// loop to (a) constant input-output latency and (b) actuation jitter.
// Expected shape: cost grows with latency (sharply as it approaches Ts);
// jitter degrades performance relative to a constant delay of equal mean.
#include "bench_common.hpp"

using namespace ecsim;

namespace {

void experiment() {
  bench::banner("EXP-C1", "ref [2] (Cervin et al. 2003)",
                "Control performance vs constant latency and vs jitter for "
                "the DC servo, Ts = 10 ms.");
  const translate::LoopSpec spec = bench::servo_loop();
  const translate::CosimOutcome ideal = translate::run_ideal_loop(spec);

  // Both sweeps run as grids on the parallel exploration engine; the cells
  // are bit-identical to the former one-at-a-time run_latency_loop calls.

  std::printf("(a) constant actuation latency sweep\n");
  std::printf("%12s %10s %12s %12s\n", "La/Ts", "IAE", "IAE/ideal",
              "overshoot%");
  std::printf("%12.2f %10.5f %12.3f %12.2f\n", 0.0, ideal.iae, 1.0,
              ideal.step.overshoot_pct);
  sweep::TimingGrid latency_grid;
  latency_grid.loop = spec;
  latency_grid.latency_fracs = {0.1, 0.2, 0.4, 0.6, 0.8, 0.95};
  latency_grid.jitter_fracs = {0.0};
  for (const sweep::SweepCell& c : sweep::run_timing_sweep(latency_grid)) {
    std::printf("%12.2f %s %s %s\n", c.la_frac, bench::metric(c.iae).c_str(),
                bench::metric(c.iae / ideal.iae, "%12.3f").c_str(),
                bench::metric(c.overshoot_pct, "%12.2f").c_str());
  }

  // Mean latency 0.3 Ts: stressed but stable, so the jitter effect is not
  // drowned by marginal-stability oscillations.
  std::printf("\n(b) actuation jitter sweep (mean latency fixed at 0.3 Ts)\n");
  std::printf("%14s %10s %12s\n", "jitter p2p/Ts", "IAE", "IAE/ideal");
  sweep::TimingGrid jitter_grid;
  jitter_grid.loop = spec;
  jitter_grid.latency_fracs = {0.3};
  jitter_grid.jitter_fracs = {0.0, 0.1, 0.2, 0.3, 0.5};
  for (const sweep::SweepCell& c : sweep::run_timing_sweep(jitter_grid)) {
    std::printf("%14.2f %s %s\n", c.jitter_frac,
                bench::metric(c.iae).c_str(),
                bench::metric(c.iae / ideal.iae, "%12.3f").c_str());
  }

  std::printf("\n(c) sampling-period / latency trade-off (constant latency "
              "3 ms)\n");
  std::printf("%10s %10s %12s\n", "Ts [ms]", "IAE", "latency/Ts");
  // Each cell builds a loop at a different Ts, which TimingGrid cannot
  // express — this one goes straight to the batch runner.
  const std::vector<double> periods = {0.004, 0.006, 0.01, 0.02, 0.04};
  par::BatchRunner batch{par::BatchOptions{}};
  const std::vector<translate::CosimOutcome> outs =
      batch.map<translate::CosimOutcome>(
          periods.size(), [&](par::TaskContext& ctx) {
            const translate::LoopSpec s = bench::servo_loop(periods[ctx.index]);
            return translate::run_latency_loop(
                s, 0.0, std::min(0.003, 0.95 * s.ts));
          });
  for (std::size_t i = 0; i < periods.size(); ++i) {
    const double la = std::min(0.003, 0.95 * periods[i]);
    std::printf("%10.1f %s %12.2f\n", 1e3 * periods[i],
                bench::metric(outs[i].iae).c_str(), la / periods[i]);
  }
  std::printf("\n");
}

void BM_LatencyLoop(benchmark::State& state) {
  const translate::LoopSpec spec = bench::servo_loop(0.01, 0.5);
  const double la = static_cast<double>(state.range(0)) * 1e-3;
  for (auto _ : state) {
    auto out = translate::run_latency_loop(spec, 0.0, la);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_LatencyLoop)->Arg(1)->Arg(5)->Arg(9)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  experiment();
  return bench::run_benchmarks(argc, argv);
}
