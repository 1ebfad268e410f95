// EXP-O2: observability cost on the NATIVE backend (ABI v2, DESIGN.md
// §3.6/§3.7). Since PR 7 an attached Tracer/MetricsRegistry no longer forces
// the interpreter: the generated module calls back into the host through the
// NativeObsTable. This bench prices that bridge on the EXP-P1/P6 chains_200
// event workload (~601k events), four modes interleaved best-of-7:
//
//   interp             PR-4 interpreter hot path, no obs (the 1.5x floor)
//   native             warm module, no table — the PR-6 number
//   native+obs off     table attached, tracer disabled, no metrics — the
//                      price of *having* the callback hooks live
//   native+obs on      tracer enabled + full metrics — the price of
//                      recording every dispatch through the C table
//
// HARD CHECK: with obs enabled the native trace AND the metrics snapshot
// must be bit-identical to the interpreter's with the same obs attached.
// GUARD (ctest -C bench, bench_o2_native_obs_guard): attached-but-disabled
// overhead <= 2% of plain native (mirroring bench_o1's interpreter guard),
// and native-with-obs-attached-but-disabled retains >= 1.5x the interpreter
// events/s — obs must not claw back the codegen win.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "backend/native_abi.hpp"
#include "backend/native_backend.hpp"
#include "backend/native_codegen.hpp"
#include "backend/obs_abi.hpp"
#include "bench_common.hpp"
#include "blocks/examples.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/compiled_model.hpp"
#include "sim/simulator.hpp"

using namespace ecsim;

namespace {

constexpr int kReps = 7;
constexpr double kMinRetainedSpeedup = 1.5;
constexpr double kMaxDisabledOverheadPct = 2.0;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

sim::SimOptions chain_opts() {
  sim::SimOptions o;
  o.end_time = 1.0;
  o.reserve_queue = 1024;
  return o;
}

/// One timed module run under `obs` (may be null); returns seconds
/// (negative on failure).
double native_run_once(const backend::NativeModule& mod,
                       const backend::NativeSource& src,
                       const sim::SimOptions& o,
                       const backend::NativeObsTable* obs, sim::Trace& trace,
                       std::size_t& events) {
  const auto t0 = std::chrono::steady_clock::now();
  try {
    events = backend::run_native_module(mod, src.params, o, trace, obs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "native run failed: %s\n", e.what());
    return -1.0;
  }
  return seconds_since(t0);
}

int experiment() {
  bench::banner("EXP-O2", "(native-backend observability, ABI v2)",
                "Tracer/metrics riding through the NativeObsTable callback "
                "bridge on the chains_200 workload: bit-identical to the "
                "interpreter with obs attached, near-free when disabled.");

  sim::Model m = blocks::examples::make_chains(200);
  const sim::SimOptions opts = chain_opts();
  const ir::Model irm = sim::build_ir(m, "chains_200");
  const backend::NativeSource source = backend::generate_native_source(irm);
  const backend::NativeModule& mod = backend::load_native_module(source);

  // ---- hard check: obs-enabled native == obs-enabled interpreter --------
  obs::Tracer interp_tr(1u << 16);
  interp_tr.set_enabled(true);
  obs::MetricsRegistry interp_reg;
  sim::SimOptions iopts = opts;
  iopts.tracer = &interp_tr;
  iopts.metrics = &interp_reg;
  sim::Simulator s_obs(sim::CompiledModel(m), iopts);
  s_obs.run();

  obs::Tracer native_tr(1u << 16);
  native_tr.set_enabled(true);
  obs::MetricsRegistry native_reg;
  const backend::NativeObsTable check_table =
      backend::make_obs_table(&native_tr, &native_reg);
  sim::Trace ntrace;
  std::size_t nevents = 0;
  if (native_run_once(mod, source, opts, &check_table, ntrace, nevents) <
      0.0) {
    return 1;
  }
  const bool traces_identical =
      nevents == s_obs.events_dispatched() && ntrace == s_obs.trace();
  const bool metrics_identical = native_reg.to_json() == interp_reg.to_json();

  // ---- timed modes ------------------------------------------------------
  sim::Simulator s_interp(sim::CompiledModel(m), opts);
  s_interp.run();  // warm

  obs::Tracer tr_off;  // attached, never enabled, no metrics (as bench_o1)
  const backend::NativeObsTable off_table =
      backend::make_obs_table(&tr_off, nullptr);

  obs::Tracer tr_on(1u << 16);
  tr_on.set_enabled(true);
  obs::MetricsRegistry reg_on;
  const backend::NativeObsTable on_table =
      backend::make_obs_table(&tr_on, &reg_on);

  sim::Trace scratch;
  std::size_t events = 0;
  const auto once = [&](const backend::NativeObsTable* table) {
    return native_run_once(mod, source, opts, table, scratch, events);
  };
  if (once(nullptr) < 0.0) return 1;
  if (once(&off_table) < 0.0) return 1;
  if (once(&on_table) < 0.0) return 1;

  double t_interp = 1e300, t_plain = 1e300, t_off = 1e300, t_on = 1e300;
  for (int r = 0; r < kReps; ++r) {
    {
      const auto t0 = std::chrono::steady_clock::now();
      s_interp.run();
      t_interp = std::min(t_interp, seconds_since(t0));
    }
    double t = once(nullptr);
    if (t < 0.0) return 1;
    t_plain = std::min(t_plain, t);
    t = once(&off_table);
    if (t < 0.0) return 1;
    t_off = std::min(t_off, t);
    t = once(&on_table);
    if (t < 0.0) return 1;
    t_on = std::min(t_on, t);
  }

  const auto ev = static_cast<double>(events);
  const double eps_interp = ev / t_interp;
  const double eps_plain = ev / t_plain;
  const double eps_off = ev / t_off;
  const double eps_on = ev / t_on;
  const double ovh_off = 100.0 * (t_off - t_plain) / t_plain;
  const double ovh_on = 100.0 * (t_on - t_plain) / t_plain;
  const double retained = eps_off / eps_interp;

  const bool identical = traces_identical && metrics_identical;
  const bool pass = identical && ovh_off <= kMaxDisabledOverheadPct &&
                    retained >= kMinRetainedSpeedup;

  std::printf("%-18s %12.0f %14s %10s\n", "mode", ev, "events/s",
              "overhead");
  std::printf("%-18s %12s %14.0f %10s\n", "interp", "", eps_interp, "-");
  std::printf("%-18s %12s %14.0f %10s\n", "native", "", eps_plain, "-");
  std::printf("%-18s %12s %14.0f %+9.2f%%\n", "native+obs off", "", eps_off,
              ovh_off);
  std::printf("%-18s %12s %14.0f %+9.2f%%\n", "native+obs on", "", eps_on,
              ovh_on);
  std::printf("\nbit-identity vs interp-with-obs: traces %s, metrics %s\n",
              traces_identical ? "identical" : "DIVERGED",
              metrics_identical ? "identical" : "DIVERGED");
  std::printf("guard: disabled overhead %.2f%% (<= %.1f%%), retained "
              "%.2fx interp (>= %.2fx) -> %s\n\n",
              ovh_off, kMaxDisabledOverheadPct, retained, kMinRetainedSpeedup,
              pass ? "PASS" : "FAIL");

  bench::JsonReport report("EXP-O2");
  report.model_ir_hash("chains_200", m);
  report.begin_array("native_obs");
  report.begin_object();
  report.field("scenario", std::string("chains_200"));
  report.field("events", events);
  report.field("reps", static_cast<std::size_t>(kReps));
  report.field("interp_events_per_s", eps_interp);
  report.field("native_events_per_s", eps_plain);
  // Keyed as ledger.cpp expects so `ecsim_flow ledger diff --bench=
  // BENCH_o2.json` can gate local runs against this report too.
  report.field("native_best_events_per_s", eps_plain);
  report.field("native_obs_disabled_events_per_s", eps_off);
  report.field("native_obs_enabled_events_per_s", eps_on);
  report.field("disabled_overhead_pct", ovh_off);
  report.field("enabled_overhead_pct", ovh_on);
  report.field("retained_speedup_vs_interp", retained);
  report.field("traces_identical",
               std::string(traces_identical ? "yes" : "NO"));
  report.field("metrics_identical",
               std::string(metrics_identical ? "yes" : "NO"));
  report.end_object();
  report.end_array();
  report.begin_array("guard");
  report.begin_object();
  report.field("max_disabled_overhead_pct", kMaxDisabledOverheadPct);
  report.field("measured_disabled_overhead_pct", ovh_off);
  report.field("min_retained_speedup", kMinRetainedSpeedup);
  report.field("measured_retained_speedup", retained);
  report.field("pass", std::string(pass ? "yes" : "NO"));
  report.end_object();
  report.end_array();
  report.write("BENCH_o2.json");
  return pass ? 0 : 1;
}

/// Per-mode steady-state module throughput as google-benchmark cases.
void BM_NativeObs(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  sim::Model m = blocks::examples::make_chains(16);
  const ir::Model irm = sim::build_ir(m, "chains_16");
  const backend::NativeSource source = backend::generate_native_source(irm);
  const backend::NativeModule& mod = backend::load_native_module(source);
  obs::Tracer tracer;
  tracer.set_enabled(mode == 2);
  obs::MetricsRegistry metrics;
  const backend::NativeObsTable table = backend::make_obs_table(
      mode >= 1 ? &tracer : nullptr, mode == 2 ? &metrics : nullptr);
  sim::SimOptions opts;
  opts.end_time = 1.0;
  sim::Trace trace;
  std::size_t events = 0;
  for (auto _ : state) {
    if (native_run_once(mod, source, opts, mode >= 1 ? &table : nullptr,
                        trace, events) < 0.0) {
      state.SkipWithError("native run failed");
      return;
    }
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NativeObs)
    ->Arg(0)->Arg(1)->Arg(2)
    ->ArgName("mode")  // 0=no table 1=attached-disabled 2=enabled
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const int rc = experiment();
  const int bench_rc = bench::run_benchmarks(argc, argv);
  return rc != 0 ? rc : bench_rc;
}
