// EXP-O2: observability cost on the NATIVE backend (ABI v2, DESIGN.md
// §3.6/§3.7). Since PR 7 an attached Tracer/MetricsRegistry no longer forces
// the interpreter: the generated module calls back into the host through the
// NativeObsTable. This bench prices that bridge on the EXP-P1/P6 chains_200
// event workload (~601k events) and the servo_rk4 loop, four modes
// interleaved best-of-7:
//
//   interp             PR-4 interpreter hot path, no obs
//   native             warm module, no table — the PR-6 number
//   native+obs off     table attached, tracer disabled, no metrics — the
//                      price of *having* the callback hooks live
//   native+obs on      tracer enabled + full metrics — the price of
//                      recording every dispatch through the C table
//
// HARD CHECK: with obs enabled the native trace AND the metrics snapshot
// must be bit-identical to the interpreter's with the same obs attached, on
// both scenarios.
// GUARD (ctest -C bench, bench_o2_native_obs_guard): on chains_200, where
// every event crosses the hooks, attached-but-disabled overhead <= 2% of
// plain native (mirroring bench_o1's interpreter guard); on servo_rk4,
// native-with-obs-attached-but-disabled retains >= 1.5x the interpreter
// events/s — obs must not claw back the codegen win. (The retained speed-up
// is gated where the codegen win is, as EXP-P6 gates it; on chains_200 both
// engines drain the same event queue and the ratio is reported only.)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "backend/native_abi.hpp"
#include "backend/native_backend.hpp"
#include "backend/native_codegen.hpp"
#include "obs/obs_table.hpp"
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

/// One timed module run under `obs` (may be null); returns seconds
/// (negative on failure).
double native_run_once(const backend::NativeModule& mod,
                       const backend::NativeSource& src,
                       const sim::SimOptions& o,
                       const obs::NativeObsTable* obs, sim::Trace& trace,
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

struct Scenario {
  const char* name;
  sim::Model model;
  sim::SimOptions opts;
};

struct Measured {
  bool ok = false;  // every module run succeeded
  std::size_t events = 0;
  double eps_interp = 0.0, eps_plain = 0.0, eps_off = 0.0, eps_on = 0.0;
  double ovh_off = 0.0, ovh_on = 0.0;  // % of plain native
  double retained = 0.0;               // native+obs off over interp
  bool traces_identical = false;
  bool metrics_identical = false;
};

Measured measure(Scenario& sc) {
  Measured out;
  const sim::SimOptions& opts = sc.opts;
  const ir::Model irm = sim::build_ir(sc.model, sc.name);
  const backend::NativeSource source = backend::generate_native_source(irm);
  const backend::NativeModule& mod = backend::load_native_module(source);

  // ---- hard check: obs-enabled native == obs-enabled interpreter --------
  obs::Tracer interp_tr(1u << 16);
  interp_tr.set_enabled(true);
  obs::MetricsRegistry interp_reg;
  sim::SimOptions iopts = opts;
  iopts.tracer = &interp_tr;
  iopts.metrics = &interp_reg;
  sim::Simulator s_obs(sim::CompiledModel(sc.model), iopts);
  s_obs.run();

  obs::Tracer native_tr(1u << 16);
  native_tr.set_enabled(true);
  obs::MetricsRegistry native_reg;
  const obs::NativeObsTable check_table =
      obs::make_obs_table(&native_tr, &native_reg);
  sim::Trace ntrace;
  std::size_t nevents = 0;
  if (native_run_once(mod, source, opts, &check_table, ntrace, nevents) <
      0.0) {
    return out;
  }
  out.traces_identical =
      nevents == s_obs.events_dispatched() && ntrace == s_obs.trace();
  out.metrics_identical = native_reg.to_json() == interp_reg.to_json();

  // ---- timed modes ------------------------------------------------------
  sim::Simulator s_interp(sim::CompiledModel(sc.model), opts);
  s_interp.run();  // warm

  obs::Tracer tr_off;  // attached, never enabled, no metrics (as bench_o1)
  const obs::NativeObsTable off_table =
      obs::make_obs_table(&tr_off, nullptr);

  obs::Tracer tr_on(1u << 16);
  tr_on.set_enabled(true);
  obs::MetricsRegistry reg_on;
  const obs::NativeObsTable on_table =
      obs::make_obs_table(&tr_on, &reg_on);

  sim::Trace scratch;
  const auto once = [&](const obs::NativeObsTable* table) {
    return native_run_once(mod, source, opts, table, scratch, out.events);
  };
  if (once(nullptr) < 0.0) return out;
  if (once(&off_table) < 0.0) return out;
  if (once(&on_table) < 0.0) return out;

  double t_interp = 1e300, t_plain = 1e300, t_off = 1e300, t_on = 1e300;
  for (int r = 0; r < kReps; ++r) {
    {
      const auto t0 = std::chrono::steady_clock::now();
      s_interp.run();
      t_interp = std::min(t_interp, seconds_since(t0));
    }
    double t = once(nullptr);
    if (t < 0.0) return out;
    t_plain = std::min(t_plain, t);
    t = once(&off_table);
    if (t < 0.0) return out;
    t_off = std::min(t_off, t);
    t = once(&on_table);
    if (t < 0.0) return out;
    t_on = std::min(t_on, t);
  }

  const auto ev = static_cast<double>(out.events);
  out.eps_interp = ev / t_interp;
  out.eps_plain = ev / t_plain;
  out.eps_off = ev / t_off;
  out.eps_on = ev / t_on;
  out.ovh_off = 100.0 * (t_off - t_plain) / t_plain;
  out.ovh_on = 100.0 * (t_on - t_plain) / t_plain;
  out.retained = out.eps_off / out.eps_interp;
  out.ok = true;
  return out;
}

void print_scenario(const char* name, const Measured& m) {
  std::printf("%s (%zu events)\n", name, m.events);
  std::printf("  %-18s %14s %10s\n", "mode", "events/s", "overhead");
  std::printf("  %-18s %14.0f %10s\n", "interp", m.eps_interp, "-");
  std::printf("  %-18s %14.0f %10s\n", "native", m.eps_plain, "-");
  std::printf("  %-18s %14.0f %+9.2f%%\n", "native+obs off", m.eps_off,
              m.ovh_off);
  std::printf("  %-18s %14.0f %+9.2f%%\n", "native+obs on", m.eps_on,
              m.ovh_on);
  std::printf("  retained %.2fx interp; bit-identity vs interp-with-obs: "
              "traces %s, metrics %s\n\n",
              m.retained, m.traces_identical ? "identical" : "DIVERGED",
              m.metrics_identical ? "identical" : "DIVERGED");
}

void report_scenario(bench::JsonReport& report, const char* name,
                     const Measured& m) {
  report.begin_object();
  report.field("scenario", std::string(name));
  report.field("events", m.events);
  report.field("reps", static_cast<std::size_t>(kReps));
  report.field("interp_events_per_s", m.eps_interp);
  report.field("native_events_per_s", m.eps_plain);
  // Keyed as ledger.cpp expects so `ecsim_flow ledger diff --bench=
  // BENCH_o2.json` can gate local runs against this report too.
  report.field("native_best_events_per_s", m.eps_plain);
  report.field("native_obs_disabled_events_per_s", m.eps_off);
  report.field("native_obs_enabled_events_per_s", m.eps_on);
  report.field("disabled_overhead_pct", m.ovh_off);
  report.field("enabled_overhead_pct", m.ovh_on);
  report.field("retained_speedup_vs_interp", m.retained);
  report.field("traces_identical",
               std::string(m.traces_identical ? "yes" : "NO"));
  report.field("metrics_identical",
               std::string(m.metrics_identical ? "yes" : "NO"));
  report.end_object();
}

int experiment() {
  bench::banner("EXP-O2", "(native-backend observability, ABI v2)",
                "Tracer/metrics riding through the NativeObsTable callback "
                "bridge: bit-identical to the interpreter with obs "
                "attached, near-free when disabled.");

  Scenario chains{"chains_200", blocks::examples::make_chains(200), {}};
  chains.opts.end_time = 1.0;

  Scenario servo{"servo_rk4", blocks::examples::make_servo(), {}};
  servo.opts.end_time = 5.0;
  servo.opts.integrator.kind = sim::IntegratorKind::kRk4;
  servo.opts.integrator.max_step = 2e-4;

  const Measured mc = measure(chains);
  if (!mc.ok) return 1;
  print_scenario(chains.name, mc);
  const Measured ms = measure(servo);
  if (!ms.ok) return 1;
  print_scenario(servo.name, ms);

  const bool identical = mc.traces_identical && mc.metrics_identical &&
                         ms.traces_identical && ms.metrics_identical;
  const bool overhead_ok = mc.ovh_off <= kMaxDisabledOverheadPct;
  const bool retained_ok = ms.retained >= kMinRetainedSpeedup;
  const bool pass = identical && overhead_ok && retained_ok;
  std::printf("guard: chains_200 disabled overhead %.2f%% (<= %.1f%%), "
              "servo_rk4 retained %.2fx interp (>= %.2fx), bit-identity on "
              "both -> %s\n\n",
              mc.ovh_off, kMaxDisabledOverheadPct, ms.retained,
              kMinRetainedSpeedup, pass ? "PASS" : "FAIL");

  bench::JsonReport report("EXP-O2");
  report.model_ir_hash(chains.name, chains.model);
  report.model_ir_hash(servo.name, servo.model);
  report.begin_array("native_obs");
  report_scenario(report, chains.name, mc);
  report_scenario(report, servo.name, ms);
  report.end_array();
  report.begin_array("guard");
  report.begin_object();
  report.field("scenario", std::string(chains.name));
  report.field("max_disabled_overhead_pct", kMaxDisabledOverheadPct);
  report.field("measured_disabled_overhead_pct", mc.ovh_off);
  report.field("pass", std::string(overhead_ok ? "yes" : "NO"));
  report.end_object();
  report.begin_object();
  report.field("scenario", std::string(servo.name));
  report.field("min_retained_speedup", kMinRetainedSpeedup);
  report.field("measured_retained_speedup", ms.retained);
  report.field("pass", std::string(retained_ok ? "yes" : "NO"));
  report.end_object();
  report.begin_object();
  report.field("traces_and_metrics_identical",
               std::string(identical ? "yes" : "NO"));
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
  const obs::NativeObsTable table = obs::make_obs_table(
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
