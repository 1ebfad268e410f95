// EXP-P1 (supporting): throughput of the hybrid simulation engine — event
// dispatch rate, ODE integration cost, and scaling with model size. Not a
// paper figure; establishes that the co-simulation methodology is cheap
// enough to sit inside a design loop.
//
// The event-dispatch workload is measured under both refresh strategies:
// full_refresh=true re-evaluates the whole feedthrough network after every
// event (the pre-CompiledModel behaviour), the default incremental path
// refreshes only the dispatched block's feedthrough cone. Both numbers (and
// the bit-identical-trace check between them) go to BENCH_p1.json so the
// perf trajectory is machine-readable across PRs.
#include <chrono>
#include <utility>

#include "bench_common.hpp"
#include "blocks/continuous.hpp"
#include "blocks/discrete.hpp"
#include "blocks/event_blocks.hpp"
#include "blocks/math_blocks.hpp"
#include "blocks/sources.hpp"
#include "sim/compiled_model.hpp"
#include "sim/simulator.hpp"

using namespace ecsim;

namespace {

/// The EXP-P1 event workload: one clock fanning out to `chains` independent
/// delay chains (clock -> d1 -> d2 -> counter), 1 ms tick over 1 s.
sim::Model make_chains(std::size_t chains) {
  sim::Model m;
  auto& clk = m.add<blocks::Clock>("clk", 1e-3);
  for (std::size_t c = 0; c < chains; ++c) {
    auto& d1 = m.add<blocks::EventDelay>("d1_" + std::to_string(c), 1e-4);
    auto& d2 = m.add<blocks::EventDelay>("d2_" + std::to_string(c), 2e-4);
    auto& n = m.add<blocks::EventCounter>("n_" + std::to_string(c));
    m.connect_event(clk, 0, d1, d1.event_in());
    m.connect_event(d1, d1.event_out(), d2, d2.event_in());
    m.connect_event(d2, d2.event_out(), n, 0);
  }
  return m;
}

struct ModeResult {
  std::size_t events = 0;
  double events_per_s = 0.0;
};

ModeResult timed_run(sim::Simulator& s) {
  const auto t0 = std::chrono::steady_clock::now();
  s.run();
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return ModeResult{s.events_dispatched(),
                    static_cast<double>(s.events_dispatched()) / secs};
}

void experiment() {
  bench::banner("EXP-P1", "(engine throughput, supporting)",
                "Hybrid engine scaling: events/s under full-network refresh "
                "vs incremental cone refresh, vs model size.");
  bench::JsonReport report("EXP-P1");
  {
    sim::Model headline = make_chains(200);
    report.model_ir_hash("chains_200", headline);
  }
  report.begin_array("event_dispatch");
  std::printf("%8s %10s %15s %15s %9s %10s\n", "chains", "events",
              "full [ev/s]", "incr [ev/s]", "speedup", "traces");
  for (const std::size_t chains : {1u, 10u, 50u, 200u}) {
    sim::Model m = make_chains(chains);
    sim::CompiledModel compiled(m);
    sim::SimOptions full_opts{.end_time = 1.0, .full_refresh = true};
    sim::Simulator full(compiled, full_opts);
    const ModeResult fr = timed_run(full);
    const sim::Trace full_trace = full.trace();

    sim::Simulator incr(std::move(compiled), sim::SimOptions{.end_time = 1.0});
    const ModeResult ir = timed_run(incr);
    const bool identical = incr.trace() == full_trace;

    std::printf("%8zu %10zu %15.0f %15.0f %8.1fx %10s\n", chains, ir.events,
                fr.events_per_s, ir.events_per_s,
                ir.events_per_s / fr.events_per_s,
                identical ? "identical" : "DIVERGED");
    report.begin_object();
    report.field("chains", chains);
    report.field("events", ir.events);
    report.field("full_refresh_events_per_s", fr.events_per_s);
    report.field("incremental_events_per_s", ir.events_per_s);
    report.field("speedup", ir.events_per_s / fr.events_per_s);
    report.field("traces_identical", std::string(identical ? "yes" : "NO"));
    report.end_object();
  }
  report.end_array();
  std::printf("\n");
  report.write("BENCH_p1.json");
}

void BM_EventDispatch(benchmark::State& state) {
  const auto chains = static_cast<std::size_t>(state.range(0));
  const bool full_refresh = state.range(1) != 0;
  sim::Model m;
  auto& clk = m.add<blocks::Clock>("clk", 1e-3);
  for (std::size_t c = 0; c < chains; ++c) {
    std::string name = "d";
    name += std::to_string(c);
    auto& d = m.add<blocks::EventDelay>(name, 1e-4);
    m.connect_event(clk, 0, d, d.event_in());
  }
  sim::SimOptions opts{.end_time = 1.0};
  opts.full_refresh = full_refresh;
  sim::Simulator s(sim::CompiledModel(m), opts);
  for (auto _ : state) {
    s.run();
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(s.events_dispatched() * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventDispatch)
    ->ArgsProduct({{1, 16, 64, 200}, {0, 1}})
    ->ArgNames({"chains", "full"})
    ->Unit(benchmark::kMillisecond);

void BM_OdeIntegration(benchmark::State& state) {
  const auto order = static_cast<std::size_t>(state.range(0));
  // Stable random-ish tridiagonal system.
  math::Matrix a(order, order);
  for (std::size_t i = 0; i < order; ++i) {
    a(i, i) = -2.0;
    if (i > 0) a(i, i - 1) = 0.5;
    if (i + 1 < order) a(i, i + 1) = 0.5;
  }
  math::Matrix b = math::Matrix::ones(order, 1);
  math::Matrix c = math::Matrix::ones(1, order);
  sim::Model m;
  auto& u = m.add<blocks::Sine>("u", 1.0, 5.0);
  auto& plant = m.add<blocks::StateSpaceCont>("p", a, b, c,
                                              math::Matrix::zeros(1, 1));
  m.connect(u, 0, plant, 0);
  sim::SimOptions opts;
  opts.end_time = 0.1;
  opts.integrator.max_step = 1e-4;
  sim::Simulator s(sim::CompiledModel(m), opts);
  for (auto _ : state) {
    s.run();
    benchmark::DoNotOptimize(s.output_value(plant, 0));
  }
  state.SetComplexityN(static_cast<int64_t>(order));
}
BENCHMARK(BM_OdeIntegration)->Arg(2)->Arg(8)->Arg(32)->Complexity()
    ->Unit(benchmark::kMillisecond);

void BM_CombinationalRefresh(benchmark::State& state) {
  // Long feedthrough chain: stresses topological evaluation.
  const auto depth = static_cast<std::size_t>(state.range(0));
  sim::Model m;
  auto& src = m.add<blocks::Sine>("src", 1.0, 1.0);
  const sim::Block* prev = &src;
  for (std::size_t i = 0; i < depth; ++i) {
    std::string name = "g";
    name += std::to_string(i);
    auto& g = m.add<blocks::Gain>(name, 1.0001);
    m.connect(*prev, 0, g, 0);
    prev = &g;
  }
  auto& x = m.add<blocks::Integrator>("x", 0.0);
  m.connect(*prev, 0, x, 0);
  sim::SimOptions opts;
  opts.end_time = 0.01;
  opts.integrator.max_step = 1e-5;
  sim::Simulator s(sim::CompiledModel(m), opts);
  for (auto _ : state) {
    s.run();
    benchmark::DoNotOptimize(s.output_value(x, 0));
  }
}
BENCHMARK(BM_CombinationalRefresh)->Arg(8)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

/// Compile cost itself: flattening + cone construction for the chain
/// workload (must stay negligible next to a run).
void BM_Compile(benchmark::State& state) {
  const auto chains = static_cast<std::size_t>(state.range(0));
  sim::Model m = make_chains(chains);
  for (auto _ : state) {
    sim::CompiledModel compiled(m);
    benchmark::DoNotOptimize(compiled.arena_size());
  }
}
BENCHMARK(BM_Compile)->Arg(1)->Arg(64)->Arg(200)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  experiment();
  return bench::run_benchmarks(argc, argv);
}
