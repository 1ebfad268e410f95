// The contract between the host process and a generated model .so. Both
// sides are compiled from this same header, by the same compiler, with the
// same flags (the build bakes its own toolchain into the backend — see
// src/CMakeLists.txt), so passing sim::Trace across the boundary is layout-
// safe. The ABI is versioned anyway: the host refuses a module whose
// ECSIM_NATIVE_ABI doesn't match, and the hash-keyed .so cache keys on the
// ABI + flags, so stale artifacts are never loaded.
//
// ABI v2 adds obs::NativeObsTable (obs/obs_table.hpp): a C callback table
// through which the generated module emits telemetry (tracer spans/instants,
// counters, gauges, histograms) into the host's obs::Tracer /
// obs::MetricsRegistry without the module linking against the obs library.
// A null table pointer is the zero-cost path.
//
// ABI v3 makes a module depend only on the model's *shape*: every value
// private to a block travels in NativeRunOptions::params, and the cache key
// is the shape hash, so re-parameterised models (a retuned controller, a
// different bus load) reuse one compiled module.
//
// ABI v4 drops NativeRunOptions' event-queue capacity hint: a module drains
// the interpreter's own sim::EventQueue, which sizes itself.
//
// ABI v5 drops NativeRunOptions' trace capacity hints: the trace grows as
// the run records.
//
// ABI v6 drops the run RNG: a module holds no random stream. NoiseHold and
// every sampled EventDelay draw activation k from math::keyed_rng(seed, key,
// k), with the block's key read from the parameter table as two 32-bit
// halves, so NativeRunOptions::seed is the only random state that crosses
// the boundary.
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/obs_table.hpp"

namespace ecsim::backend {

inline constexpr int kNativeAbiVersion = 6;

/// POD mirror of the sim::SimOptions subset the native backend supports
/// (observability rides along through `obs` since ABI v2).
struct NativeRunOptions {
  double end_time = 1.0;
  int integrator_kind = 0;  // sim::IntegratorKind numeric value
  double max_step = 1e-3;
  double rel_tol = 1e-8;
  double abs_tol = 1e-10;
  double min_step = 1e-12;
  std::uint64_t seed = 1;
  std::size_t max_events = 20'000'000;
  int full_refresh = 0;
  /// Observability callback table (borrowed, may be null). Null, or a table
  /// whose tracer/metrics are both null, runs the module with telemetry
  /// compiled to nothing — the guarded ≤2% attached-but-disabled overhead
  /// only concerns a non-null table whose tracer reports disabled.
  const obs::NativeObsTable* obs = nullptr;
  /// Parameter table (borrowed; ABI v3): the model's block-private values
  /// in the order the module reads them (NativeSource::params). The module
  /// fails the run with a message unless it consumes exactly n_params.
  const double* params = nullptr;
  std::size_t n_params = 0;
};

}  // namespace ecsim::backend

extern "C" {

/// ABI version the module was generated against (kNativeAbiVersion).
/// Symbol: resolved with dlsym; a missing symbol means "not an ecsim model".
using EcsimNativeAbiFn = int (*)();

/// Shape hash ("0x%016llx", FNV-1a of the shape-only generated source) of
/// the model the module was generated from. Models that differ only in
/// block-private values share it; the host refuses a module whose shape
/// hash differs from the source in hand.
using EcsimNativeHashFn = const char* (*)();

/// Run the model: `trace` is an ecsim::sim::Trace* the module clears,
/// re-registers block names on and fills; `events_out` receives the
/// dispatched-event count. Returns 0 on success; on failure copies a
/// NUL-terminated message into err (truncated to errcap) and returns
/// nonzero. Exceptions never cross the boundary.
using EcsimNativeRunFn = int (*)(const ecsim::backend::NativeRunOptions* opts,
                                 void* trace, std::size_t* events_out,
                                 char* err, std::size_t errcap);

}  // extern "C"
