#include "backend/backend.hpp"

#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "backend/native_abi.hpp"
#include "backend/native_backend.hpp"
#include "backend/native_codegen.hpp"
#include "obs/ledger.hpp"
#include "obs/obs_table.hpp"
#include "sim/build_ir.hpp"

namespace ecsim::backend {

namespace {

void count(obs::MetricsRegistry* m, const std::string& name) {
  if (m != nullptr) m->counter(name).add();
}

RunResult run_interp(sim::Model& model, const RunOptions& o) {
  sim::Simulator s(model, o.sim);
  s.run();
  RunResult r;
  r.trace = std::move(s.trace());
  r.events_dispatched = s.events_dispatched();
  r.used = Kind::kInterp;
  count(o.metrics, "backend.interp.runs");
  return r;
}

RunResult run_native(const NativeModule& mod, const NativeSource& src,
                     const RunOptions& o) {
  // ABI v2: attached observability rides into the module through the
  // callback table (stack-lifetime — the table only borrows the host's
  // tracer/registry for this one call). A run without obs passes no table
  // and the module's hooks cost one null test each.
  const obs::NativeObsTable table =
      obs::make_obs_table(o.sim.tracer, o.sim.metrics);
  const bool attached = table.tracer != nullptr || table.metrics != nullptr;

  RunResult r;
  // A loaded module failing is a model-semantic error (max_events, a
  // sampler misbehaving, ...) that the interpreter would throw too.
  r.events_dispatched = run_native_module(mod, src.params, o.sim, r.trace,
                                          attached ? &table : nullptr);
  r.used = Kind::kNative;
  count(o.metrics, "backend.native.runs");
  return r;
}

/// The native attempt. Returns the result on success; on any non-semantic
/// obstacle sets `reason` and returns nothing. `ir_hash_out` receives the IR
/// hash whenever lowering succeeded (for the ledger record, even if a later
/// stage fell back).
std::optional<RunResult> try_native(sim::Model& model, const RunOptions& o,
                                    std::string& reason,
                                    std::string& ir_hash_out) {
  ir::Model irm;
  try {
    irm = sim::build_ir(model);
  } catch (const std::exception& ex) {
    reason = std::string("codegen: lowering to IR failed: ") + ex.what();
    return std::nullopt;
  }
  ir_hash_out = ir::hash_hex(irm);
  if (native_disabled()) {
    reason = "disabled: ECSIM_NATIVE_DISABLE is set";
    return std::nullopt;
  }
  if (!ir::fully_described(irm)) {
    reason = "opaque: model contains blocks the IR cannot regenerate";
    return std::nullopt;
  }
  NativeSource source;
  try {
    source = generate_native_source(irm);
  } catch (const std::exception& ex) {
    reason = std::string("codegen: ") + ex.what();
    return std::nullopt;
  }
  const NativeModule* mod = nullptr;
  try {
    mod = &load_native_module(source);
  } catch (const std::exception& ex) {
    reason = std::string("toolchain: ") + ex.what();
    return std::nullopt;
  }
  return run_native(*mod, source, o);
}

std::string category_of(const std::string& reason) {
  const auto colon = reason.find(':');
  return colon == std::string::npos ? reason : reason.substr(0, colon);
}

/// Every run stamps the process ledger (obs/ledger.hpp) — the "why did this
/// run the way it did, and how fast" record the methodology's iteration
/// comparisons read back.
void stamp_ledger(const RunOptions& o, const RunResult& r,
                  const std::string& ir_hash, double wall_s) {
  obs::LedgerRecord rec;
  rec.ir_hash = ir_hash;
  rec.model = o.model_name;
  rec.backend_requested = to_string(o.kind);
  rec.backend_used = to_string(r.used);
  rec.fallback_reason = r.fallback_reason;
  rec.seed = o.sim.seed;
  rec.fault_plan_hash = o.fault_plan_hash;
  rec.threads = o.threads;
  rec.wall_s = wall_s;
  rec.events = r.events_dispatched;
  rec.events_per_s =
      wall_s > 0.0 ? static_cast<double>(r.events_dispatched) / wall_s : 0.0;
  if (o.sim.metrics != nullptr) {
    // The registry's JSON is pretty-printed; a ledger record is one line.
    std::string mj = o.sim.metrics->to_json();
    std::string flat;
    flat.reserve(mj.size());
    for (char c : mj) {
      if (c != '\n' && c != '\r') flat += c;
    }
    rec.metrics_json = std::move(flat);
  }
  obs::Ledger::global().append(rec);
}

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

RunResult run(sim::Model& model, const RunOptions& opts) {
  const Clock::time_point t0 = Clock::now();
  std::string ir_hash;
  if (opts.kind == Kind::kInterp) {
    RunResult r = run_interp(model, opts);
    stamp_ledger(opts, r, ir_hash, seconds_since(t0));
    return r;
  }
  std::string reason;
  if (auto r = try_native(model, opts, reason, ir_hash)) {
    stamp_ledger(opts, *r, ir_hash, seconds_since(t0));
    return std::move(*r);
  }
  count(opts.metrics, "backend.fallback." + category_of(reason));
  RunResult r = run_interp(model, opts);
  r.fallback_reason = reason;
  stamp_ledger(opts, r, ir_hash, seconds_since(t0));
  return r;
}

}  // namespace ecsim::backend
