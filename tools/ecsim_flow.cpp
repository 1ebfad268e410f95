// ecsim_flow — command-line driver for the AAA flow on text specs:
//
//   ecsim_flow schedule  spec.txt   static schedule + makespan/utilization
//   ecsim_flow codegen   spec.txt   generated distributed executives (C-like)
//   ecsim_flow simulate  spec.txt   executive VM run: latencies + conformance
//   ecsim_flow validate  spec.txt   exit 0 iff schedulable within the period
//   ecsim_flow dot-alg   spec.txt   Graphviz DOT of the algorithm graph
//   ecsim_flow dot-arch  spec.txt   Graphviz DOT of the architecture
//   ecsim_flow dot-gantt spec.txt   Graphviz DOT of the schedule
//
// Parallel design-space exploration (src/par, DESIGN.md §3.3):
//   ecsim_flow sweep timing|arch    latency×jitter (or bus×WCET) grid over
//                                   the standard DC-servo loop, evaluated on
//                                   the work-stealing pool; prints a
//                                   control-cost heatmap. Results are
//                                   bit-identical for any --threads.
//   ecsim_flow sweep network        bus-load × scenario (CAN | TDMA) grid:
//                                   each cell measures the actuation-latency
//                                   distribution the arbitrated bus delivers,
//                                   retunes the LQR against it and reports
//                                   the stability margin of the delay-aware
//                                   design (EXP-N1). Bit-identical for any
//                                   --threads and via --connect.
//   ecsim_flow montecarlo spec.txt  Monte Carlo execution-time trials of the
//                                   spec's schedule on the executive VM:
//                                   per-operation latency/jitter
//                                   distributions across decorrelated
//                                   random-execution-time draws.
//
// Robustness evaluation (src/fault, DESIGN.md §3.5):
//   ecsim_flow fault sweep          loss-rate × delivery-delay grid over the
//                                   standard DC-servo loop with deterministic
//                                   fault injection; prints a control-cost
//                                   heatmap plus loss accounting. Same seed
//                                   => bit-identical for any --threads.
//   ecsim_flow fault montecarlo     dropout study: --trials runs (default
//                                   32) at --loss=RATE, each trial
//                                   re-seeding the fault stream; prints the
//                                   cost/IAE distribution.
// Extra flags: --threads=N (0 = hardware), sweep/fault: --csv-out=FILE,
// montecarlo: --trials=N --iterations=N --seed=N, fault: --loss=RATE,
// Monte Carlo: --batch=W. A numeric flag that does not parse exits 2.
//
// Sweep service (src/svc, DESIGN.md §3.9): `ecsim_flow serve
// --socket=PATH [--workers=N --cache-mb=M --ledger=FILE]` runs the daemon
// (SIGTERM drains); --connect=SOCKET on sweep/fault/montecarlo serves the
// verb's svc::Request there, or in-process when it cannot (reason printed
// once) — with the same results.
//
// Observability flags (any command, order-free after the spec):
//   --trace-out=FILE    Chrome trace-event / Perfetto JSON: the adequation
//                       schedule as a proc/medium Gantt, executive-VM runs
//                       (simulate: "wcet/..." and "actual/..." tracks), and
//                       the wall-clock runtime spans of the flow itself.
//                       Load via https://ui.perfetto.dev or chrome://tracing.
//   --metrics-out=FILE  obs::MetricsRegistry snapshot; .csv extension
//                       selects CSV, anything else JSON.
//
// Model IR + execution backend (src/ir, src/backend, DESIGN.md §3.6):
//   ecsim_flow ir dump --example=servo     canonical IR text of a built-in
//                                          example model (servo|chains200) —
//                                          the committed tests/ir/*.ir goldens
//                                          are regenerated from this output.
//   ecsim_flow ir hash --example=servo     its 64-bit FNV-1a hash (0x....),
//                                          the key benches stamp into
//                                          BENCH_*.json.
//   --backend=interp|native (sweep/fault)  execute the co-simulated loops
//                                          through the chosen backend; native
//                                          falls back to the interpreter with
//                                          a recorded reason when ineligible
//                                          (printed, with the model IR hash,
//                                          after the run).
//
// Run ledger (src/obs/ledger.hpp, DESIGN.md §3.7). Every backend::run
// appends one JSONL record to the file named by ECSIM_LEDGER (in-memory
// only when unset):
//   ecsim_flow ledger show                 print the records of a ledger file
//                                          (--ledger=FILE, default
//                                          $ECSIM_LEDGER).
//   ecsim_flow ledger diff                 compare the newest record whose IR
//                                          hash matches the committed
//                                          --bench=FILE (default
//                                          BENCH_p6.json) --scenario=NAME
//                                          (default chains_200) figure; exits
//                                          1 when events/s dropped more than
//                                          --threshold=PCT (default 10)
//                                          below it, 2 when nothing compares.
//
// The spec format is documented in src/io/spec.hpp; see
// examples/specs/*.spec for ready-to-run inputs.
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>

#include "aaa/adequation.hpp"
#include "backend/kind.hpp"
#include "blocks/examples.hpp"
#include "ir/ir.hpp"
#include "sim/build_ir.hpp"
#include "exec/conformance.hpp"
#include "io/dot.hpp"
#include "io/spec.hpp"
#include "latency/latency.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_json.hpp"
#include "obs/tracer.hpp"
#include "par/fault_sweep.hpp"
#include "par/monte_carlo.hpp"
#include "par/network_sweep.hpp"
#include "par/sweep.hpp"
#include "svc/client.hpp"
#include "translate/schedule_export.hpp"

using namespace ecsim;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ecsim_flow <schedule|codegen|simulate|validate|"
               "dot-alg|dot-arch|dot-gantt> <spec-file>\n"
               "                  [--trace-out=FILE] [--metrics-out=FILE]\n"
               "       ecsim_flow sweep <timing|arch|network> [--threads=N] "
               "[--csv-out=FILE] [--backend=interp|native] "
               "[--connect=SOCKET]\n"
               "       ecsim_flow montecarlo <spec-file> [--threads=N] "
               "[--trials=N] [--iterations=N] [--seed=N] [--batch=W] "
               "[--connect=SOCKET]\n"
               "       ecsim_flow fault <sweep|montecarlo> [--threads=N] "
               "[--csv-out=FILE] [--loss=RATE] [--trials=N] [--seed=N] "
               "[--batch=W] [--backend=interp|native] [--connect=SOCKET]\n"
               "       ecsim_flow serve --socket=PATH [--workers=N] "
               "[--cache-mb=M] [--ledger=FILE] [--verbose]\n"
               "       ecsim_flow ir <dump|hash> [--example=servo|chains200]\n"
               "       ecsim_flow ledger <show|diff> [--ledger=FILE] "
               "[--bench=FILE] [--scenario=NAME] [--threshold=PCT] "
               "[--cache]\n");
  return 2;
}

int cmd_schedule(const svc::WarmSpec& f) {
  std::printf("%s", f.sched.to_string(f.spec.algorithm, f.spec.architecture)
                        .c_str());
  const double period = f.spec.algorithm.period();
  if (period > 0.0) {
    std::printf("period %.6g, utilization %.1f%%%s\n", period,
                100.0 * f.sched.makespan() / period,
                f.sched.makespan() > period ? "  ** OVER PERIOD **" : "");
  }
  return 0;
}

int cmd_codegen(const svc::WarmSpec& f) {
  std::printf("%s", f.code.source.c_str());
  return 0;
}

int cmd_simulate(const svc::WarmSpec& f, obs::Tracer* tracer,
                 obs::MetricsRegistry* metrics) {
  const double period = f.spec.algorithm.period() > 0.0
                            ? f.spec.algorithm.period()
                            : f.sched.makespan();
  exec::VmOptions opts;
  opts.iterations = 50;
  opts.period = period;
  opts.branch = exec::BranchChoice::kWorstCase;
  opts.tracer = tracer;
  opts.metrics = metrics;
  opts.track_prefix = "wcet/";
  const exec::VmResult wcet_run = exec::run_executives(
      f.spec.algorithm, f.spec.architecture, f.sched, f.code, opts);
  const exec::ConformanceReport conf = exec::check_wcet_conformance(
      f.spec.algorithm, f.spec.architecture, f.sched, wcet_run, period);
  std::printf("WCET run: deadlock=%s conformance=%s (max error %.2e)\n",
              wcet_run.deadlock ? "YES" : "no", conf.ok ? "exact" : "VIOLATED",
              conf.max_time_error);

  exec::VmOptions rnd = opts;
  rnd.bcet_fraction = 0.5;
  rnd.branch = exec::BranchChoice::kUniform;
  rnd.track_prefix = "actual/";
  const exec::VmResult rnd_run = exec::run_executives(
      f.spec.algorithm, f.spec.architecture, f.sched, f.code, rnd);
  std::printf("random-times run: deadlock=%s, order preserved=%s\n",
              rnd_run.deadlock ? "YES" : "no",
              exec::check_order_preservation(f.spec.algorithm,
                                             f.spec.architecture, f.sched,
                                             rnd_run)
                      .ok
                  ? "yes"
                  : "NO");
  for (aaa::OpId op = 0; op < f.spec.algorithm.num_operations(); ++op) {
    const aaa::Operation& o = f.spec.algorithm.op(op);
    if (o.kind == aaa::OpKind::kCompute) continue;
    const auto series = latency::analyze_instants(
        o.name, rnd_run.completions(op), period);
    std::printf("%-12s %s latency: mean=%.6f max=%.6f jitter=%.6f\n",
                o.name.c_str(),
                o.kind == aaa::OpKind::kSensor ? "sampling " : "actuation",
                series.summary.mean, series.summary.max, series.jitter);
  }
  return 0;
}

int cmd_validate(const svc::WarmSpec& f) {
  const double period = f.spec.algorithm.period();
  if (period > 0.0 && f.sched.makespan() > period) {
    std::printf("INVALID: makespan %.6g exceeds period %.6g\n",
                f.sched.makespan(), period);
    return 1;
  }
  std::printf("OK: makespan %.6g within period %.6g\n", f.sched.makespan(),
              period);
  return 0;
}

/// Write an output file and name it on stderr as `label: path`; 1 (after
/// saying so) when it cannot be written.
int write_output(const char* label, const std::string& path,
                 const std::string& doc) {
  std::FILE* fp = std::fopen(path.c_str(), "w");
  if (fp == nullptr) {
    std::fprintf(stderr, "ecsim_flow: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fputs(doc.c_str(), fp);
  std::fclose(fp);
  std::fprintf(stderr, "%s: %s\n", label, path.c_str());
  return 0;
}

/// `ir dump|hash`: the canonical IR of a built-in example model — the
/// anchor for the committed golden files and for hash provenance in bench
/// reports (same bytes, same hash, in any build of any PR).
int cmd_ir(const std::string& sub, const std::string& example) {
  ir::Model irm;
  if (example == "servo") {
    sim::Model m = blocks::examples::make_servo();
    irm = sim::build_ir(m, "servo");
  } else if (example == "chains200") {
    sim::Model m = blocks::examples::make_chains(200);
    irm = sim::build_ir(m, "chains_200");
  } else {
    std::fprintf(stderr,
                 "ecsim_flow: unknown --example '%s' (servo|chains200)\n",
                 example.c_str());
    return 2;
  }
  if (sub == "dump") {
    std::printf("%s", ir::serialize(irm).c_str());
  } else if (sub == "hash") {
    std::printf("%s\n", ir::hash_hex(irm).c_str());
  } else {
    return usage();
  }
  return 0;
}

/// `ledger show|diff` (DESIGN.md §3.7). The ledger file comes from
/// --ledger=FILE, falling back to $ECSIM_LEDGER.
int cmd_ledger(const std::string& sub, std::string ledger_path,
               const std::string& bench_path, const std::string& scenario,
               double threshold_pct, bool show_cache) {
  if (ledger_path.empty()) {
    const char* env = std::getenv("ECSIM_LEDGER");
    if (env != nullptr) ledger_path = env;
  }
  if (ledger_path.empty()) {
    std::fprintf(stderr,
                 "ecsim_flow ledger: no ledger file (pass --ledger=FILE or "
                 "set ECSIM_LEDGER)\n");
    return 2;
  }
  const std::vector<obs::LedgerRecord> records =
      obs::read_ledger_file(ledger_path);
  if (sub == "show") {
    std::printf("%-16s %-18s %-7s %-22s %8s %12s %14s%s\n", "model",
                "ir_hash", "backend", "fallback", "threads", "events",
                "events/s", show_cache ? "  cache" : "");
    for (const obs::LedgerRecord& r : records) {
      const std::string backend = r.backend_used == r.backend_requested
                                      ? r.backend_used
                                      : r.backend_requested + ">" +
                                            r.backend_used;
      std::string fallback = r.fallback_reason.substr(
          0, r.fallback_reason.find(':'));
      if (fallback.empty()) fallback = "-";
      std::printf("%-16s %-18s %-7s %-22s %8u %12llu %14.6g",
                  (r.model.empty() ? "-" : r.model).c_str(),
                  (r.ir_hash.empty() ? "-" : r.ir_hash).c_str(),
                  backend.c_str(), fallback.c_str(), r.threads,
                  static_cast<unsigned long long>(r.events), r.events_per_s);
      if (show_cache) {
        // Schema v3 column; pre-v3 lines and non-service runs are untagged.
        std::printf("  %s", r.served_from_cache < 0
                                ? "-"
                                : (r.served_from_cache > 0 ? "hit" : "miss"));
      }
      std::printf("\n");
    }
    if (show_cache) {
      const obs::CacheSummary s = obs::summarize_cache(records);
      std::printf("cache: %zu served / %zu computed (hit rate %.1f%%), "
                  "%zu untagged\n",
                  s.served, s.computed, 100.0 * s.hit_rate(), s.untagged);
    }
    std::printf("%zu record(s) in %s\n", records.size(), ledger_path.c_str());
    return 0;
  }
  if (sub == "diff") {
    std::ifstream in(bench_path);
    if (!in) {
      std::fprintf(stderr, "ecsim_flow ledger diff: cannot read %s\n",
                   bench_path.c_str());
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const obs::LedgerDiff d = obs::diff_latest_against_bench(
        records, ss.str(), scenario, threshold_pct);
    std::printf("%s\n", d.message.c_str());
    if (!d.comparable) return 2;
    return d.regression ? 1 : 0;
  }
  return usage();
}

/// Post-run telemetry of an in-process request: per-cell progress and
/// latency quantiles from the shared registry, and — when the native backend
/// was requested — how the backend request resolved (used backend, fallback
/// reason, model IR hash), read from the most recent ledger record.
void print_sweep_telemetry(obs::MetricsRegistry& reg, backend::Kind bk) {
  obs::Histogram& wall = reg.histogram("sweep.cell_wall_us");
  if (wall.count() > 0) {
    std::printf("cell wall time: p50=%.3gms p99=%.3gms (n=%llu)\n",
                wall.quantile(0.5) / 1e3, wall.quantile(0.99) / 1e3,
                static_cast<unsigned long long>(wall.count()));
  }
  if (bk == backend::Kind::kNative) {
    const std::vector<obs::LedgerRecord> recs =
        obs::Ledger::global().records();
    if (!recs.empty()) {
      const obs::LedgerRecord& r = recs.back();
      std::printf("backend: requested=%s used=%s ir_hash=%s\n",
                  r.backend_requested.c_str(), r.backend_used.c_str(),
                  (r.ir_hash.empty() ? "-" : r.ir_hash).c_str());
      if (!r.fallback_reason.empty()) {
        std::printf("backend fallback: %s\n", r.fallback_reason.c_str());
      }
    }
  }
}

/// Report how a --connect request resolved, so scripted runs can tell
/// daemon-served from in-process results.
void print_daemon_meta(const svc::ResponseMeta& meta) {
  std::printf("daemon: %zu/%zu units from cache%s, model %s%s\n",
              meta.cache_hits, meta.cache_units,
              meta.served_from_cache ? " (fully served)" : "",
              meta.model_hash.c_str(),
              meta.redispatches > 0 ? " [worker re-dispatch]" : "");
}

/// Flags of the request verbs (sweep, fault, montecarlo).
struct RequestFlags {
  std::size_t threads = 0;      // 0 = hardware
  std::size_t batch_width = 0;  // trials per task; 0 = kDefaultBatchWidth
  std::string csv_out, connect;
  backend::Kind bk = backend::Kind::kInterp;

  /// "N cells via daemon S" or "N cells on K worker(s)".
  std::string served_by(std::size_t cells, bool remote) const {
    if (remote) {
      return std::to_string(cells) + " cells via daemon " + connect + "\n";
    }
    const std::size_t workers =
        par::BatchRunner({.threads = threads}).threads();
    return std::to_string(cells) + " cells on " + std::to_string(workers) +
           " worker(s)\n";
  }
};

template <class Cell>
std::string csv_of(const std::vector<Cell>& cells) {
  return sweep::to_csv(cells);
}
std::string csv_of(const sweep::FaultMonteCarloResult& r) {
  return sweep::to_csv(r.cells);
}

/// Printed after an in-process Monte Carlo run. Every trial runs on its own
/// scalar loop or executive, so the eviction count is always 0; the line
/// keeps that field so its format stays stable for scripts and the golden
/// transcripts that read it.
template <class Result>
std::string batch_line(const Result& r) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "batch width %zu, 0 evictions, %.4g trials/s (%.3g s)\n",
                r.batch_width, r.trials_per_s, r.wall_s);
  return buf;
}

/// One sweep or fault verb: serve `req` through svc::execute (the daemon
/// when --connect is set, else in-process on --threads), print
/// `print(result, remote)`, then the daemon's cache disposition or the
/// local run's telemetry, and write --csv-out.
template <class Result, class Print>
int run_request(svc::Request req, const RequestFlags& f, Print print) {
  req.backend = std::string(backend::to_string(f.bk));
  obs::MetricsRegistry reg;
  par::BatchOptions batch;
  batch.threads = f.threads;
  batch.metrics = &reg;
  svc::WarmCache warm;
  Result result;
  const std::optional<svc::ResponseMeta> meta =
      svc::execute(req, f.connect, batch, f.batch_width, warm, result);
  std::printf("%s", print(result, meta.has_value()).c_str());
  if (meta) {
    print_daemon_meta(*meta);
  } else {
    print_sweep_telemetry(reg, f.bk);
  }
  return f.csv_out.empty() ? 0
                           : write_output("csv", f.csv_out, csv_of(result));
}

/// `sweep timing|arch|network`. `network` is the EXP-N1 stability-vs-bus-
/// load frontier: CAN and TDMA scenario columns over background-load rows,
/// each cell retuning the LQR against the latency distribution the
/// simulated bus actually delivered.
int cmd_sweep(const std::string& kind, const RequestFlags& f) {
  if (kind == "network") {
    const svc::Request req = svc::canonical_request(svc::Verb::kSweepNetwork);
    return run_request<std::vector<sweep::NetworkCell>>(
        req, f, [&](const std::vector<sweep::NetworkCell>& cells, bool remote) {
          return f.served_by(cells.size(), remote) +
                 "columns: 0 = can (priority arbitration), 1 = tdma (owner "
                 "slots)\n" +
                 sweep::heatmap(
                     cells, req.rows, req.cols, "bus load", "scenario",
                     &sweep::NetworkCell::stability_margin,
                     "delay-aware stability margin (1 - spectral radius)") +
                 sweep::heatmap(cells, req.rows, req.cols, "bus load",
                                "scenario", &sweep::NetworkCell::retuned_iae,
                                "retuned IAE");
        });
  }
  const bool timing = kind == "timing";
  if (!timing && kind != "arch") return usage();
  const svc::Request req = svc::canonical_request(
      timing ? svc::Verb::kSweepTiming : svc::Verb::kSweepArch);
  return run_request<std::vector<sweep::SweepCell>>(
      req, f, [&](const std::vector<sweep::SweepCell>& cells, bool remote) {
        return f.served_by(cells.size(), remote) +
               sweep::heatmap(cells, req.rows, req.cols,
                              timing ? "La/Ts" : "bus bw",
                              timing ? "jitter/Ts" : "WCET scale",
                              &sweep::SweepCell::cost,
                              "control cost (time-averaged quadratic)");
      });
}

/// `fault sweep|montecarlo`.
int cmd_fault(const std::string& kind, const RequestFlags& f, double loss,
              std::size_t trials, std::uint64_t seed) {
  if (kind == "sweep") {
    svc::Request req = svc::canonical_request(svc::Verb::kFaultSweep);
    req.seed = seed;
    return run_request<std::vector<sweep::FaultCell>>(
        req, f, [&](const std::vector<sweep::FaultCell>& cells, bool) {
          std::size_t lost = 0, deferred = 0;
          for (const sweep::FaultCell& c : cells) {
            lost += c.messages_lost;
            deferred += c.messages_deferred;
          }
          return std::to_string(cells.size()) + " cells (seed " +
                 std::to_string(seed) + ")\n" +
                 sweep::heatmap(cells, req.rows, req.cols, "loss rate",
                                "delay (s)", &sweep::FaultCell::cost,
                                "control cost under message faults") +
                 std::to_string(lost) + " frames lost, " +
                 std::to_string(deferred) + " deferred across the grid\n";
        });
  }
  if (kind != "montecarlo") return usage();
  svc::Request req;
  req.verb = svc::Verb::kFaultMc;
  req.loss = loss;
  req.trials = trials;
  req.seed = seed;
  return run_request<sweep::FaultMonteCarloResult>(
      req, f, [](const sweep::FaultMonteCarloResult& r, bool remote) {
        return sweep::to_string(r) + (remote ? "" : batch_line(r));
      });
}

/// Where a spec command records: --trace-out / --metrics-out and the tracer
/// and registry behind them (null when the flag is absent).
struct Observability {
  std::string trace_out, metrics_out;
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;

  obs::Tracer* tr() { return trace_out.empty() ? nullptr : &tracer; }
  obs::MetricsRegistry* mx() {
    return metrics_out.empty() ? nullptr : &metrics;
  }

  /// Write the requested files for a run over `flow`'s schedule; 1 when one
  /// cannot be written.
  int write(const svc::WarmSpec& flow) {
    if (!trace_out.empty()) {
      obs::JsonTraceWriter w;
      // The static schedule Gantt (paper Figs. 3-4) plus whatever the run
      // recorded live (adequation span, VM op/comm instances).
      w.add_slices(translate::schedule_to_timeline(
          flow.spec.algorithm, flow.spec.architecture, flow.sched));
      w.add(tracer);
      if (!w.write(trace_out)) {
        std::fprintf(stderr, "ecsim_flow: cannot write %s\n",
                     trace_out.c_str());
        return 1;
      }
      std::fprintf(stderr, "trace: %s (%zu records)\n", trace_out.c_str(),
                   w.num_events());
    }
    if (metrics_out.empty()) return 0;
    return write_output("metrics", metrics_out,
                        metrics_out.ends_with(".csv") ? metrics.to_csv()
                                                      : metrics.to_json());
  }
};

/// `montecarlo spec.txt`: the spec text travels in the request, so a daemon
/// serves it without this process parsing the spec; an in-process run
/// records into --trace-out / --metrics-out.
int cmd_montecarlo(const std::string& spec_path, const RequestFlags& f,
                   std::size_t trials, std::size_t iterations,
                   std::uint64_t seed, Observability& o) {
  svc::Request req;
  req.verb = svc::Verb::kVmMc;
  req.trials = trials;
  req.iterations = iterations;
  req.seed = seed;
  req.spec_text = io::read_spec_file(spec_path);
  par::BatchOptions batch;
  batch.threads = f.threads;
  batch.tracer = o.tr();
  batch.metrics = o.mx();
  svc::WarmCache warm;
  sweep::MonteCarloResult result;
  const std::optional<svc::ResponseMeta> meta =
      svc::execute(req, f.connect, batch, f.batch_width, warm, result);
  std::printf("%s", sweep::to_string(result).c_str());
  const int rc = result.deadlocks == 0 ? 0 : 1;
  if (meta) {
    print_daemon_meta(*meta);
    return rc;
  }
  std::printf("%s", batch_line(result).c_str());
  const int write_rc = o.write(warm.spec(req.spec_text));
  return write_rc != 0 ? write_rc : rc;
}

/// `arg` is `NAME=TEXT`? Store TEXT in `out`: strings verbatim, numbers
/// through the one checked parser — all of TEXT must fit T, unsigned types
/// take no sign, doubles must be finite — else exit 2 (`bad value for ...`).
template <class T>
bool flag(const std::string& arg, const std::string& name, T& out) {
  if (arg.size() <= name.size() || arg.compare(0, name.size(), name) != 0 ||
      arg[name.size()] != '=') {
    return false;
  }
  const std::string text = arg.substr(name.size() + 1);
  if constexpr (std::is_same_v<T, std::string>) {
    out = text;
  } else {
    T value{};
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    bool ok = ec == std::errc() && end == text.data() + text.size();
    if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
    if (!ok) {
      std::fprintf(stderr, "ecsim_flow: bad value for %s: '%s'\n",
                   name.c_str(), text.c_str());
      std::exit(2);
    }
    out = value;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  const std::string spec_path = argv[2];
  if (command == "serve") {
    svc::ServeOptions sopts;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (flag(arg, "--socket", sopts.socket_path) ||
          flag(arg, "--workers", sopts.workers) ||
          flag(arg, "--cache-mb", sopts.cache_mb) ||
          flag(arg, "--ledger", sopts.ledger_path)) {
        continue;
      }
      if (arg != "--verbose") return usage();
      sopts.verbose = true;
    }
    try {
      return svc::run_server(sopts);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ecsim_flow serve: %s\n", e.what());
      return 1;
    }
  }
  Observability o;
  RequestFlags rf;
  std::string example = "servo";
  std::string ledger_file, bench_file = "BENCH_p6.json";
  std::string scenario = "chains_200";
  bool show_cache = false;
  double threshold_pct = 10.0;
  std::size_t iterations = 50;
  std::optional<std::size_t> trials;  // unset: each verb's own default
  std::size_t explicit_trials = 0;
  std::uint64_t seed = 1;
  double loss = 0.1;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (flag(arg, "--trials", explicit_trials)) {
      trials = explicit_trials;
      continue;
    }
    if (flag(arg, "--threads", rf.threads) ||
        flag(arg, "--batch", rf.batch_width) ||
        flag(arg, "--iterations", iterations) || flag(arg, "--seed", seed) ||
        flag(arg, "--loss", loss) ||
        flag(arg, "--threshold", threshold_pct) ||
        flag(arg, "--csv-out", rf.csv_out) ||
        flag(arg, "--connect", rf.connect) ||
        flag(arg, "--trace-out", o.trace_out) ||
        flag(arg, "--metrics-out", o.metrics_out) ||
        flag(arg, "--example", example) ||
        flag(arg, "--ledger", ledger_file) ||
        flag(arg, "--bench", bench_file) ||
        flag(arg, "--scenario", scenario)) {
      continue;
    }
    if (arg == "--cache") {
      show_cache = true;
    } else if (arg.rfind("--backend=", 0) == 0) {
      try {
        rf.bk = backend::parse_kind(arg.substr(10));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "ecsim_flow: %s\n", e.what());
        return 2;
      }
    } else {
      return usage();
    }
  }
  o.tracer.set_enabled(!o.trace_out.empty());

  try {
    if (command == "ir") return cmd_ir(spec_path, example);
    if (command == "ledger") {
      return cmd_ledger(spec_path, ledger_file, bench_file, scenario,
                        threshold_pct, show_cache);
    }
    if (command == "sweep") return cmd_sweep(spec_path, rf);
    if (command == "fault") {
      // A full co-simulation per trial: default to 32 trials, not the VM
      // Monte Carlo's 200, unless the user asked explicitly.
      return cmd_fault(spec_path, rf, loss, trials.value_or(32), seed);
    }
    if (command == "montecarlo") {
      return cmd_montecarlo(spec_path, rf, trials.value_or(200), iterations,
                            seed, o);
    }
    const svc::WarmSpec flow = svc::prepare_spec(
        io::read_spec_file(spec_path),
        aaa::AdequationOptions{.tracer = o.tr(), .metrics = o.mx()});
    int rc;
    if (command == "schedule") {
      rc = cmd_schedule(flow);
    } else if (command == "codegen") {
      rc = cmd_codegen(flow);
    } else if (command == "simulate") {
      rc = cmd_simulate(flow, o.tr(), o.mx());
    } else if (command == "validate") {
      rc = cmd_validate(flow);
    } else if (command == "dot-alg") {
      std::printf("%s", io::to_dot(flow.spec.algorithm).c_str());
      rc = 0;
    } else if (command == "dot-arch") {
      std::printf("%s", io::to_dot(flow.spec.architecture).c_str());
      rc = 0;
    } else if (command == "dot-gantt") {
      std::printf("%s", io::schedule_to_dot(flow.spec.algorithm,
                                            flow.spec.architecture, flow.sched)
                            .c_str());
      rc = 0;
    } else {
      return usage();
    }
    const int write_rc = o.write(flow);
    return write_rc != 0 ? write_rc : rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ecsim_flow: %s\n", e.what());
    return 1;
  }
}
