// Toolchain half of the native backend (DESIGN.md §3.6): compile a generated
// translation unit with the host C++ compiler into a shared object, cache it
// keyed on (shape hash, ABI version, toolchain fingerprint), dlopen it and
// resolve the C ABI of native_abi.hpp. One module serves every model of the
// same shape; the values that tell those models apart travel in the
// parameter table handed to each run. Modules stay loaded for the process
// lifetime (generated code may be referenced by traces; dlclose buys
// nothing and invites stale-pointer bugs).
//
// Loads are concurrent per key: threads asking for different shapes compile
// at the same time, threads asking for the same shape wait for its one
// compile, and a failed compile hands its error to every waiter and leaves
// no entry behind, so the next call retries.
//
// Environment knobs:
//  - ECSIM_NATIVE_CXX     overrides the compiler baked in at build time;
//  - ECSIM_NATIVE_CACHE   overrides the .so cache directory;
//  - ECSIM_NATIVE_DISABLE nonempty forces the dispatcher's interpreter
//    fallback without ever invoking the toolchain.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "backend/native_abi.hpp"
#include "backend/native_codegen.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace ecsim::backend {

/// A loaded model module: resolved entry points plus the artifact path
/// (useful in tests and diagnostics).
struct NativeModule {
  EcsimNativeAbiFn abi = nullptr;
  EcsimNativeHashFn hash = nullptr;
  EcsimNativeRunFn run = nullptr;
  std::string so_path;
};

/// True when ECSIM_NATIVE_DISABLE is set non-empty: the dispatcher must not
/// attempt generation or compilation at all.
bool native_disabled();

/// Compiles `src.text` and loads it, or hits the cache when an artifact for
/// this (shape hash, ABI, toolchain) tuple already exists. Throws
/// std::runtime_error with a one-line reason on any failure: compiler
/// missing or erroring (the tail of its log is included), dlopen/dlsym
/// failure, or an ABI/shape-hash mismatch in the loaded module. The
/// returned reference stays valid for the process lifetime.
const NativeModule& load_native_module(const NativeSource& src);

/// Runs `mod` on the parameter table `params` (NativeSource::params of the
/// model being run) under the SimOptions subset the native engine supports,
/// recording into `trace`. `obs` is the telemetry table (may be null). The
/// one call path from host code into generated code: the dispatcher and the
/// benches share it. Returns the dispatched-event count; throws
/// std::runtime_error with the module's message when the run fails (a
/// model-semantic error, or a table that does not fit the module's shape).
std::size_t run_native_module(const NativeModule& mod,
                              const std::vector<double>& params,
                              const sim::SimOptions& opts, sim::Trace& trace,
                              const NativeObsTable* obs = nullptr);

}  // namespace ecsim::backend
