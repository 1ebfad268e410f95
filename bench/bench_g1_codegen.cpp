// EXP-G1 (Section 1 claim: generated code "satisfies the real-time
// constraints ... is deadlock free"): run the generated executives on the
// virtual distributed machine across many random workloads, architectures
// and execution-time realizations. Expected shape: 0 deadlocks, order always
// preserved, WCET execution reproduces the schedule exactly, actual
// completions never exceed the WCET prediction.
#include "aaa/adequation.hpp"
#include "bench_common.hpp"
#include "exec/conformance.hpp"
#include "../tests/properties/random_graphs.hpp"

using namespace ecsim;

namespace {

void experiment() {
  bench::banner("EXP-G1", "Section 1 (code generation claims)",
                "Deadlock-freedom / order / WCET-bound validation of "
                "generated executives over randomized trials.");
  const int n_workloads = 40;
  const int n_time_realizations = 25;
  std::size_t deadlocks = 0, order_violations = 0, wcet_mismatches = 0;
  std::size_t late_completions = 0, instances = 0;
  math::Rng rng(20080310);

  for (int w = 0; w < n_workloads; ++w) {
    const aaa::AlgorithmGraph alg = ecsim::testing::random_dag(rng, 9, 1.0);
    const aaa::ArchitectureGraph arch = ecsim::testing::random_bus(rng);
    const aaa::Schedule sched = aaa::adequate(alg, arch);
    const aaa::GeneratedCode code = aaa::generate_executives(alg, arch, sched);

    // Exact-WCET conformance once per workload.
    exec::VmOptions wcet_opts;
    wcet_opts.iterations = 4;
    wcet_opts.period = 1.0;
    const exec::VmResult wcet_run =
        exec::run_executives(alg, arch, sched, code, wcet_opts);
    if (!exec::check_wcet_conformance(alg, arch, sched, wcet_run, 1.0).ok) {
      ++wcet_mismatches;
    }

    for (int t = 0; t < n_time_realizations; ++t) {
      exec::VmOptions opts;
      opts.iterations = 4;
      opts.period = 1.0;
      opts.bcet_fraction = 0.05;
      opts.branch = exec::BranchChoice::kUniform;
      opts.seed = rng.next_u64();
      const exec::VmResult vm =
          exec::run_executives(alg, arch, sched, code, opts);
      if (vm.deadlock) ++deadlocks;
      if (!exec::check_order_preservation(alg, arch, sched, vm).ok) {
        ++order_violations;
      }
      for (const exec::OpInstance& oi : vm.ops) {
        ++instances;
        const double bound = sched.of_op(oi.op).end +
                             static_cast<double>(oi.iteration) * 1.0;
        if (oi.end > bound + 1e-9) ++late_completions;
      }
    }
  }
  std::printf("%-38s %12d\n", "workload/architecture pairs", n_workloads);
  std::printf("%-38s %12d\n", "execution-time realizations each",
              n_time_realizations);
  std::printf("%-38s %12zu\n", "operation instances executed", instances);
  std::printf("%-38s %12zu\n", "deadlocks", deadlocks);
  std::printf("%-38s %12zu\n", "per-component order violations",
              order_violations);
  std::printf("%-38s %12zu\n", "WCET-conformance mismatches", wcet_mismatches);
  std::printf("%-38s %12zu\n", "completions later than WCET bound",
              late_completions);
  std::printf("\nAll four counters must be zero — they are the paper's "
              "deadlock-freedom and real-time claims, checked.\n\n");
}

void BM_ExecutiveVm(benchmark::State& state) {
  math::Rng rng(7);
  const aaa::AlgorithmGraph alg =
      ecsim::testing::random_dag(rng, static_cast<std::size_t>(state.range(0)), 1.0);
  const auto arch = aaa::ArchitectureGraph::bus_architecture(3, 1e4, 1e-5);
  const aaa::Schedule sched = aaa::adequate(alg, arch);
  const aaa::GeneratedCode code = aaa::generate_executives(alg, arch, sched);
  exec::VmOptions opts;
  opts.iterations = 100;
  opts.period = 1.0;
  for (auto _ : state) {
    auto vm = exec::run_executives(alg, arch, sched, code, opts);
    benchmark::DoNotOptimize(vm);
  }
}
BENCHMARK(BM_ExecutiveVm)->Arg(6)->Arg(12)->Unit(benchmark::kMicrosecond);

void BM_Codegen(benchmark::State& state) {
  math::Rng rng(9);
  const aaa::AlgorithmGraph alg = ecsim::testing::random_dag(rng, 12, 1.0);
  const auto arch = aaa::ArchitectureGraph::bus_architecture(3, 1e4, 1e-5);
  const aaa::Schedule sched = aaa::adequate(alg, arch);
  for (auto _ : state) {
    auto code = aaa::generate_executives(alg, arch, sched);
    benchmark::DoNotOptimize(code);
  }
}
BENCHMARK(BM_Codegen);

}  // namespace

int main(int argc, char** argv) {
  experiment();
  return bench::run_benchmarks(argc, argv);
}
