// IR -> C++ specialization (DESIGN.md §3.6). generate_native_source() turns
// a finalized, fully-described ir::Model into one translation unit plus a
// parameter table. The unit depends only on the model's *shape*: a Program
// struct whose layout tables are constexpr arrays and whose init/compute/
// on_event/derivatives entry points are switch-dispatched with literal arena
// offsets — no virtual calls, no slice lookups, no opaque closures. Every
// value private to a block (gains, periods, delays, saturation/PID values,
// matrices and their dimensions, initial discrete state, ...) is a Program
// member that load() reads from the parameter table at the start of each
// run. Two models that differ only in such values — a retuned controller, a
// different bus load — therefore emit byte-identical sources and share one
// compiled module. The unit instantiates backend::rt::Engine<Program> and
// exports the C ABI of backend/native_abi.hpp.
//
// Order-sensitive arithmetic is not re-derived: matrix blocks call the same
// math::multiply_into kernels, samplers the same blocks::sample_duration,
// fault gates the same fault::comm_gate_decide — unity-compiled from the
// interpreter's own sources — and every parameter is the same double the
// interpreter holds, so a generated run is bit-identical to the interpreter
// on the same IR.
#pragma once

#include <string>
#include <vector>

#include "ir/ir.hpp"

namespace ecsim::backend {

/// A generated model module: shape-only source plus the values it reads.
struct NativeSource {
  /// The C++ translation unit. Its text is a function of the model's shape.
  std::string text;
  /// Block-private values in the order the module's load() reads them;
  /// passed to every run (NativeRunOptions::params).
  std::vector<double> params;
  /// "0x%016llx" FNV-1a of the source (minus its own hash symbol): what the
  /// module's ecsim_native_hash() returns and what keys the module cache.
  std::string shape_hash;
};

/// Emits the module source and its parameter table in one walk over the
/// blocks. Throws std::invalid_argument naming the offending block when the
/// model is not generatable: an opaque block (user closure), an unknown
/// kind tag, or a missing/mistyped/out-of-range attribute. Requires a
/// finalized layout (ir::finalize()).
NativeSource generate_native_source(const ir::Model& m);

}  // namespace ecsim::backend
