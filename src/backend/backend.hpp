// Backend dispatcher (DESIGN.md §3.6): one entry point that runs a model on
// the requested backend and *always* produces a result. A native request
// degrades gracefully to the interpreter — never an abort — whenever the
// model or environment cannot take the codegen path, and the result records
// why (also counted as backend.fallback.<category> in a MetricsRegistry).
//
// Fallback categories:
//  - disabled: ECSIM_NATIVE_DISABLE is set;
//  - opaque: the model is not fully described — an EventSelect's condition
//    mapping (the one user closure a block keeps) or an out-of-library
//    block;
//  - codegen: the generator rejected the IR;
//  - toolchain: compile/dlopen/ABI-verify failed (compiler missing, ...).
// Model-semantic errors (e.g. max_events exceeded) are NOT fallbacks: both
// backends throw them identically.
//
// Observability no longer falls back (ABI v2): an attached sim Tracer /
// MetricsRegistry is bridged into the generated module through the
// obs::NativeObsTable callback table (obs/obs_table.hpp) — the table the
// interpreter reports through too, both engines running sim::Driver — so
// the instrumented native run produces the same sim-domain trace records
// and metrics values as the instrumented interpreter.
//
// Every run — either backend, fallback or not — appends a record to the
// process run ledger (obs::Ledger::global(); obs/ledger.hpp): IR hash,
// backend requested/used, fallback reason, seed, fault-plan hash, thread
// count, wall time, events/s and a metrics snapshot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "backend/kind.hpp"
#include "ir/ir.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace ecsim::backend {

struct RunOptions {
  sim::SimOptions sim;
  Kind kind = Kind::kInterp;
  /// Dispatcher-level metrics (fallback counters, backend.<kind>.runs).
  /// Distinct from sim.metrics (which instruments the run itself, on either
  /// backend). Borrowed, may be null.
  obs::MetricsRegistry* metrics = nullptr;
  /// Ledger annotations (obs/ledger.hpp): context the dispatcher cannot
  /// derive on its own, stamped verbatim into the run's ledger record.
  std::string model_name;             ///< label, e.g. the loop/scenario name
  std::uint64_t fault_plan_hash = 0;  ///< fault::hash of the active plan
  unsigned threads = 1;               ///< batch fan-out this run is part of
};

struct RunResult {
  sim::Trace trace;
  std::size_t events_dispatched = 0;
  /// The backend that actually ran (== requested unless a fallback fired).
  Kind used = Kind::kInterp;
  /// Empty when the requested backend ran; otherwise
  /// "<category>: <detail>" explaining the interpreter fallback.
  std::string fallback_reason;
};

/// Runs `model` on the requested backend. The model must stay alive and
/// structurally unchanged for the duration of the call.
RunResult run(sim::Model& model, const RunOptions& opts);

}  // namespace ecsim::backend
