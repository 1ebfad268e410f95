// IR -> diagram regeneration: the inverse of sim::build_ir for every
// describable block kind in this library (DESIGN.md §3.6). to_model() is
// what makes the IR a real interchange format rather than a dump: a model
// serialized, shipped and parsed elsewhere reconstructs into blocks whose
// behaviour — including RNG call sequences — is bit-identical to the
// original. The native code generator leans on the same attribute decoders
// (duration_from_attrs, comm_gate_from_attrs) so both backends read one
// encoding.
#pragma once

#include <memory>

#include "blocks/duration_spec.hpp"
#include "fault/comm_gate.hpp"
#include "ir/ir.hpp"
#include "sim/model.hpp"

namespace ecsim::blocks {

/// Reconstructs the block diagram from a fully-described IR. Throws
/// std::invalid_argument naming the offending block when a block is opaque,
/// its kind is unknown, or a required attribute is missing/mistyped.
/// The caller re-finalizes by compiling (sim::CompiledModel re-derives the
/// layout from the rebuilt model and must agree with irm.layout — guarded
/// by the round-trip property tests).
sim::Model to_model(const ir::Model& irm);

/// Constructs one block from its IR description (the factory behind
/// to_model; exposed for tooling that builds models incrementally).
std::unique_ptr<sim::Block> make_block(const ir::BlockIr& b);

/// Decodes the "dist"-tagged duration attributes written by
/// EventDelay::describe(). Throws std::invalid_argument on an unknown tag
/// or missing attributes.
DurationSpec duration_from_attrs(const ir::BlockIr& b);

/// Decodes the gate attributes written by EventFault::describe().
fault::CommGate comm_gate_from_attrs(const ir::BlockIr& b);

}  // namespace ecsim::blocks
