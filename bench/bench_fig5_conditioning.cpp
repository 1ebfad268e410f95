// EXP-F5 (paper Fig. 5): translation of conditioning. A conditional control
// law (if..then..else) whose branches have different execution times induces
// temporal jitter on the I/O operations. Sweep the branch asymmetry and
// measure (a) the actuation jitter and (b) the control-performance impact.
// Expected shape: jitter == branch WCET spread; performance degrades as
// asymmetry grows.
#include "bench_common.hpp"

using namespace ecsim;

namespace {

void experiment() {
  bench::banner("EXP-F5", "Fig. 5 / Section 3.2.2",
                "Conditioning: branch-dependent execution times create I/O "
                "jitter that degrades control performance.");
  const translate::LoopSpec spec = bench::servo_loop();
  const translate::CosimOutcome ideal = translate::run_ideal_loop(spec);
  std::printf("ideal IAE = %.5f\n\n", ideal.iae);
  std::printf("%18s %16s %16s %10s %12s\n", "branches [ms]",
              "predicted jitter", "measured jitter", "IAE", "IAE/ideal");
  // Every branch-asymmetry point is an independent co-simulation: fan the
  // sweep out on the batch runner (results are in submission order and
  // bit-identical to the former serial loop).
  par::BatchRunner batch{par::BatchOptions{}};
  const std::vector<double> slow_branches = {0.5, 1.0, 2.0, 4.0, 8.0};
  const std::vector<translate::CosimOutcome> outs =
      batch.map<translate::CosimOutcome>(
          slow_branches.size(), [&](par::TaskContext& ctx) {
            translate::DistributedSpec dist;
            dist.arch = aaa::ArchitectureGraph::bus_architecture(1, 1.0);
            dist.wcet_sense = 1e-4;
            dist.wcet_act = 1e-4;
            dist.ctrl_branch_wcets = {0.5e-3, slow_branches[ctx.index] * 1e-3};
            dist.god.branch = aaa::BranchChoice::kUniform;
            return translate::run_distributed_loop(spec, dist);
          });
  for (std::size_t i = 0; i < slow_branches.size(); ++i) {
    const double slow_ms = slow_branches[i];
    const translate::CosimOutcome& out = outs[i];
    const double predicted = std::max(0.0, slow_ms * 1e-3 - 0.5e-3);
    char label[32];
    std::snprintf(label, sizeof label, "0.5 / %.1f", slow_ms);
    std::printf("%18s %16.4f %16.4f %10.5f %12.3f\n", label, 1e3 * predicted,
                1e3 * out.act_latency.jitter, out.iae, out.iae / ideal.iae);
  }
  std::printf("\nJitter equals the branch WCET spread (the schedule reserves "
              "the worst branch; the taken branch finishes earlier), and the "
              "loop deteriorates with asymmetry, as §3.2.2 predicts.\n\n");

  // Data-driven conditioning: the paper's Condition Mapping reads the error
  // signal; the slow branch runs only while |e| exceeds a threshold, so the
  // jitter is confined to the transient instead of persisting forever.
  std::printf("Data-driven Condition Mapping (slow branch iff |e| > 0.2):\n");
  std::printf("%18s %16s %10s %24s\n", "branches [ms]", "measured jitter",
              "IAE", "slow-branch periods [%]");
  const std::vector<double> mapped_branches = {2.0, 4.0, 8.0};
  const std::vector<translate::CosimOutcome> mapped_outs =
      batch.map<translate::CosimOutcome>(
          mapped_branches.size(), [&](par::TaskContext& ctx) {
            translate::DistributedSpec dist;
            dist.arch = aaa::ArchitectureGraph::bus_architecture(1, 1.0);
            dist.wcet_sense = 1e-4;
            dist.wcet_act = 1e-4;
            dist.ctrl_branch_wcets = {0.5e-3,
                                      mapped_branches[ctx.index] * 1e-3};
            dist.ctrl_condition_threshold = 0.2;
            return translate::run_distributed_loop(spec, dist);
          });
  for (std::size_t i = 0; i < mapped_branches.size(); ++i) {
    const translate::CosimOutcome& out = mapped_outs[i];
    std::size_t slow = 0;
    for (double l : out.act_latency.latencies) {
      if (l > 1.2e-3) ++slow;
    }
    char label[32];
    std::snprintf(label, sizeof label, "0.5 / %.1f", mapped_branches[i]);
    std::printf("%18s %16.4f %s %24.1f\n", label,
                1e3 * out.act_latency.jitter, bench::metric(out.iae).c_str(),
                100.0 * static_cast<double>(slow) /
                    static_cast<double>(out.act_latency.latencies.size()));
  }
  std::printf(
      "\nWith the mapping bound to the error, the slow branch only fires "
      "during the transient, where the error is largest — UNTIL the slow "
      "branch's own latency keeps the "
      "error above the threshold: at 8 ms the loop locks into the slow mode "
      "(100%% slow periods) and destabilizes. This self-reinforcing overload "
      "is precisely the kind of implementation/control interaction the "
      "methodology surfaces before deployment.\n\n");
}

void BM_ConditionalCosim(benchmark::State& state) {
  const translate::LoopSpec spec = bench::servo_loop(0.01, 0.5);
  translate::DistributedSpec dist;
  dist.arch = aaa::ArchitectureGraph::bus_architecture(1, 1.0);
  dist.ctrl_branch_wcets = {0.5e-3, 4e-3};
  for (auto _ : state) {
    auto out = translate::run_distributed_loop(spec, dist);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ConditionalCosim)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  experiment();
  return bench::run_benchmarks(argc, argv);
}
