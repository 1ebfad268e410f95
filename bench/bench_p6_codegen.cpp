// EXP-P6: native code-generation backend (DESIGN.md §3.6). The compile
// pipeline lowers the model to the canonical IR, specializes C++ for its
// shape (literal arena offsets, switch dispatch over a constexpr schedule,
// block parameters loaded from a table), builds it with the host toolchain
// into a .so and
// runs it through the same statically-linked event queue / RNG / trace
// runtime as the interpreter — so the trace must be bit-identical while the
// per-event interpretation overhead (indirect block dispatch, port
// indirection, attr lookups) is compiled away.
//
// Measured on the standard workloads:
//   - chains_200: the EXP-P1/P4 event workload (queue + dispatch bound);
//   - servo_rk4:  the sampled-data servo loop (integration bound).
// Interleaved best-of-7 against the PR-4 interpreter hot path, same
// process, warm module. One-time codegen+compile cost is reported
// separately (it is amortized by the .so cache across processes).
//
// GUARD: native >= 1.5x interpreter events/s on servo_rk4 AND bit-identical
// traces on both scenarios. Runs via `ctest -C bench`
// (bench_p6_codegen_guard); the process exits nonzero on failure. The speed
// bound sits on servo_rk4 because there the compiled-away work (block
// dispatch, port indirection in every integration stage) is the run's cost.
// chains_200 is pure event plumbing: both engines drain the same
// sim::EventQueue through the same sim::Driver, so its ratio measures only
// the per-event dispatch the module removes and is reported, not gated
// (docs/benchmarks.md, row 6).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "backend/native_abi.hpp"
#include "backend/native_backend.hpp"
#include "backend/native_codegen.hpp"
#include "bench_common.hpp"
#include "blocks/examples.hpp"
#include "sim/compiled_model.hpp"
#include "sim/simulator.hpp"

using namespace ecsim;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Scenario {
  const char* name;
  sim::Model model;
  sim::SimOptions opts;
};

struct Measured {
  std::size_t events = 0;
  double interp_best = 0.0;  // events/s
  double native_best = 0.0;  // events/s
  double build_secs = 0.0;   // one-time codegen + compile + dlopen
  bool identical = false;
  std::string ir_hash;
};

Measured measure(Scenario& sc, int reps) {
  Measured out;
  const ir::Model irm = sim::build_ir(sc.model, sc.name);
  out.ir_hash = ir::hash_hex(irm);

  sim::Simulator interp(sim::CompiledModel(sc.model), sc.opts);
  interp.run();  // warm capacities out of the measurement

  const auto build_t0 = std::chrono::steady_clock::now();
  const backend::NativeSource source = backend::generate_native_source(irm);
  const backend::NativeModule& mod = backend::load_native_module(source);
  out.build_secs = seconds_since(build_t0);

  try {
    sim::Trace ntrace;
    std::size_t nevents =
        backend::run_native_module(mod, source.params, sc.opts, ntrace);
    out.events = interp.events_dispatched();
    out.identical = nevents == interp.events_dispatched() &&
                    ntrace == interp.trace();

    // Interleaved best-of-`reps` so thermal/frequency drift hits both
    // equally.
    for (int r = 0; r < reps; ++r) {
      {
        const auto t0 = std::chrono::steady_clock::now();
        interp.run();
        const double eps = static_cast<double>(interp.events_dispatched()) /
                           seconds_since(t0);
        out.interp_best = std::max(out.interp_best, eps);
      }
      {
        const auto t0 = std::chrono::steady_clock::now();
        nevents =
            backend::run_native_module(mod, source.params, sc.opts, ntrace);
        const double eps = static_cast<double>(nevents) / seconds_since(t0);
        out.native_best = std::max(out.native_best, eps);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "native run failed: %s\n", e.what());
  }
  return out;
}

void report_scenario(bench::JsonReport& report, const char* name,
                     const Measured& m, double speedup) {
  report.begin_object();
  report.field("scenario", std::string(name));
  report.field("model_ir_hash", m.ir_hash);
  report.field("events", m.events);
  report.field("interp_best_events_per_s", m.interp_best);
  report.field("native_best_events_per_s", m.native_best);
  report.field("speedup", speedup);
  report.field("codegen_compile_dlopen_s", m.build_secs);
  report.field("traces_identical", std::string(m.identical ? "yes" : "NO"));
  report.end_object();
}

int experiment() {
  bench::banner("EXP-P6", "(native code generation, DESIGN.md §3.6)",
                "IR-specialized compiled model vs the interpreter hot path: "
                "same runtime kernels, dispatch/indirection compiled away, "
                "bit-identical traces required.");

  constexpr int kReps = 7;
  constexpr double kGuard = 1.5;

  Scenario chains{"chains_200", blocks::examples::make_chains(200), {}};
  chains.opts.end_time = 1.0;

  Scenario servo{"servo_rk4", blocks::examples::make_servo(), {}};
  servo.opts.end_time = 5.0;
  servo.opts.integrator.kind = sim::IntegratorKind::kRk4;
  servo.opts.integrator.max_step = 2e-4;

  bench::JsonReport report("EXP-P6");
  report.model_ir_hash("chains_200", chains.model);
  report.model_ir_hash("servo_rk4", servo.model);
  report.begin_array("codegen");
  std::printf("%-12s %10s %15s %15s %9s %10s %10s\n", "scenario", "events",
              "interp [ev/s]", "native [ev/s]", "speedup", "traces",
              "build [s]");

  const Measured mc = measure(chains, kReps);
  const double chains_speedup = mc.native_best / mc.interp_best;
  std::printf("%-12s %10zu %15.0f %15.0f %8.2fx %10s %10.2f\n", "chains_200",
              mc.events, mc.interp_best, mc.native_best, chains_speedup,
              mc.identical ? "identical" : "DIVERGED", mc.build_secs);
  report_scenario(report, "chains_200", mc, chains_speedup);

  const Measured ms = measure(servo, kReps);
  const double servo_speedup = ms.native_best / ms.interp_best;
  std::printf("%-12s %10zu %15.0f %15.0f %8.2fx %10s %10.2f\n", "servo_rk4",
              ms.events, ms.interp_best, ms.native_best, servo_speedup,
              ms.identical ? "identical" : "DIVERGED", ms.build_secs);
  report_scenario(report, "servo_rk4", ms, servo_speedup);
  report.end_array();

  const bool identical = mc.identical && ms.identical;
  const bool pass = servo_speedup >= kGuard && identical;
  report.begin_array("guard");
  report.begin_object();
  report.field("scenario", std::string("servo_rk4"));
  report.field("min_speedup", kGuard);
  report.field("measured_speedup", servo_speedup);
  report.field("traces_identical", std::string(identical ? "yes" : "NO"));
  report.field("pass", std::string(pass ? "yes" : "NO"));
  report.end_object();
  report.end_array();
  std::printf("\nguard: servo_rk4 native speedup %.2fx (need >= %.2fx), "
              "traces %s on both scenarios — %s\n\n",
              servo_speedup, kGuard, identical ? "identical" : "DIVERGED",
              pass ? "PASS" : "FAIL");
  report.write("BENCH_p6.json");
  return pass ? 0 : 1;
}

/// Steady-state throughput of the loaded module vs the warm interpreter,
/// as google-benchmark cases over model size.
void BM_BackendRun(benchmark::State& state) {
  const bool native = state.range(0) != 0;
  const auto n = static_cast<std::size_t>(state.range(1));
  sim::Model m = blocks::examples::make_chains(n);
  sim::SimOptions opts;
  opts.end_time = 1.0;
  std::size_t events = 0;
  if (native) {
    const ir::Model irm = sim::build_ir(m, "chains_" + std::to_string(n));
    const backend::NativeSource source = backend::generate_native_source(irm);
    const backend::NativeModule& mod = backend::load_native_module(source);
    sim::Trace trace;
    try {
      for (auto _ : state) {
        events = backend::run_native_module(mod, source.params, opts, trace);
      }
    } catch (const std::exception& e) {
      state.SkipWithError(e.what());
      return;
    }
  } else {
    sim::Simulator s(sim::CompiledModel(m), opts);
    s.run();
    for (auto _ : state) {
      s.run();
    }
    events = s.events_dispatched();
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BackendRun)
    ->ArgsProduct({{0, 1}, {16, 200}})
    ->ArgNames({"native", "chains"})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const int guard = experiment();
  const int bench_rc = bench::run_benchmarks(argc, argv);
  return guard != 0 ? guard : bench_rc;
}
