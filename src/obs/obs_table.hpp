// The observability callback table both simulation engines report through
// (DESIGN.md §3.7). sim::Driver — the one event loop behind the interpreter
// and every generated model module — latches its telemetry hooks from this
// table: tracer spans/instants, counters, gauges and histograms, each a C
// function pointer that forwards into the host's obs::Tracer /
// obs::MetricsRegistry. A generated module receives the table through
// NativeRunOptions::obs and never links against the obs library itself, so
// this header is dependency-free: modules include it, and make_obs_table
// (obs/obs_table.cpp, part of the obs library) is the only code that knows
// the tracer and registry types behind the opaque pointers.
//
// The struct layout is part of the native module ABI (backend/native_abi.hpp,
// v2 and later): a field added, removed or reordered here needs an ABI bump.
#pragma once

#include <cstdint>

namespace ecsim::obs {

class Tracer;
class MetricsRegistry;

/// Sentinel for "span/instant has no argument" (mirror of obs::kNoArg).
inline constexpr std::uint32_t kNativeObsNoArg = 0xffffffffu;

/// C callback table bridging engine telemetry into the host's obs::Tracer /
/// obs::MetricsRegistry (built by make_obs_table). All function pointers are
/// non-null when the corresponding ctx is non-null; a wholly null member
/// (tracer == nullptr, metrics == nullptr) means that side of observability
/// is absent and the engine must not call through it. Handles returned by
/// the resolvers are stable for the process lifetime (MetricsRegistry owns
/// node-based instruments).
struct NativeObsTable {
  // --- Tracer side ---------------------------------------------------------
  void* tracer = nullptr;  ///< opaque obs::Tracer*; null → no tracer attached
  /// Nonzero when the tracer is compiled in, attached and enabled; the
  /// engine latches this once per run (mirror of obs::active).
  int (*tracer_enabled)(void* tracer) = nullptr;
  /// Intern a NUL-terminated name, returning its stable id.
  std::uint32_t (*intern)(void* tracer, const char* name) = nullptr;
  /// Register a track. `domain` is obs::Domain's numeric value
  /// (0 = wall-clock, 1 = sim-time).
  std::uint32_t (*track)(void* tracer, const char* name, int domain) = nullptr;
  /// Wall-clock timestamp in microseconds (obs::Tracer::now_us).
  double (*now_us)(void* tracer) = nullptr;
  /// Complete span [t0,t1] on `track`; arg_name = 0xffffffff means "no arg".
  void (*span)(void* tracer, std::uint32_t name, std::uint32_t track,
               double t0, double t1, std::uint32_t arg_name,
               double arg) = nullptr;
  /// Instant at `ts` on `track` (sim-domain timestamps via obs::sim_us).
  void (*instant)(void* tracer, std::uint32_t name, std::uint32_t track,
                  double ts, std::uint32_t arg_name, double arg) = nullptr;

  // --- Metrics side --------------------------------------------------------
  void* metrics = nullptr;  ///< opaque obs::MetricsRegistry*; null → absent
  /// Resolve instruments by name; the returned handles are stable pointers.
  void* (*counter)(void* metrics, const char* name) = nullptr;
  void* (*gauge)(void* metrics, const char* name) = nullptr;
  void* (*histogram)(void* metrics, const char* name) = nullptr;
  void (*counter_add)(void* counter, std::uint64_t n) = nullptr;
  void (*gauge_max)(void* gauge, std::uint64_t v) = nullptr;
  void (*histogram_observe)(void* histogram, double v) = nullptr;
};

/// Build the callback table for `tracer`/`metrics` (either may be null; the
/// corresponding table side is then null and the engine skips it). The table
/// only borrows the pointers. Under ECSIM_OBS_DISABLED both sides are always
/// null, so every engine runs with telemetry compiled to nothing.
NativeObsTable make_obs_table(Tracer* tracer, MetricsRegistry* metrics);

}  // namespace ecsim::obs
