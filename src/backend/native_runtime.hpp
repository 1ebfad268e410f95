// Shared runtime for generated model modules (DESIGN.md §3.6). A generated
// .cpp defines a `Program` — per-block parameters/state as members, the
// layout tables from ir::LayoutIr as static constexpr arrays (served to the
// driver by Tables<Program>), a load() that fills the parameter members from
// the host's parameter table (ABI v3), and four specialized kernels (init /
// compute / on_event / derivatives with literal arena offsets) — and runs
// it through run_program<Program>.
//
// There is no engine loop and no event queue here: Engine<Program> is
// sim::Driver, the one event loop the interpreter runs too (sim/driver.hpp),
// instantiated over the module's tables, and it drains the interpreter's own
// sim::EventQueue. Telemetry flows through the NativeRunOptions::obs
// callback table into the driver's hooks, the same hooks an instrumented
// interpreter run latches. Everything order-sensitive is therefore shared
// code (the loop, the queue, the same-instant lane, sim::integrate()
// stepping the same workspace, math::keyed_rng and sim::Trace —
// unity-compiled into the module from the interpreter's own sources), and a
// native run is bit-identical to an interpreter run of the same IR
// (asserted by the interp-vs-native property suite).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/native_abi.hpp"
#include "blocks/duration_spec.hpp"
#include "mathlib/matrix.hpp"
#include "mathlib/rng.hpp"
#include "sim/driver.hpp"
#include "sim/port.hpp"
#include "sim/trace.hpp"

namespace ecsim::backend::rt {

/// Cursor over the host's parameter table (ABI v3). A generated module's
/// source depends only on the model's shape; every value private to a block
/// (gains, periods, delays, matrices and their dimensions, initial discrete
/// state, ...) arrives here, and Program::load() reads them back in the
/// order the generator appended them (NativeSource::params). Every read is
/// bounds-checked and run() requires the table to be consumed exactly, so a
/// table built for another shape fails the run with a message instead of
/// being misread.
class ParamReader {
 public:
  ParamReader(const double* p, std::size_t n) : p_(p), n_(p != nullptr ? n : 0) {}

  double real() {
    if (pos_ >= n_) fail("read past its end");
    return p_[pos_++];
  }

  /// A count, index or tag: integral, >= 0 and < `bound`.
  std::size_t index(std::size_t bound = std::size_t{1} << 53) {
    const double v = real();
    if (!(v >= 0.0) || v >= static_cast<double>(bound) || v != std::floor(v)) {
      fail("holds a bad index at slot " + std::to_string(pos_ - 1));
    }
    return static_cast<std::size_t>(v);
  }

  /// A 64-bit value stored as two exact 32-bit halves, high half first.
  std::uint64_t u64() {
    const std::uint64_t hi = index(std::size_t{1} << 32);
    const std::uint64_t lo = index(std::size_t{1} << 32);
    return (hi << 32) | lo;
  }

  /// Exactly N values (N is part of the shape).
  template <std::size_t N>
  void fill(std::array<double, N>& out) {
    for (double& v : out) v = real();
  }

  /// A length-prefixed vector (the length is block-private).
  void vec(std::vector<double>& out) {
    const std::size_t n = index();
    if (n > remaining()) fail("holds a bad vector length");
    out.assign(p_ + pos_, p_ + pos_ + n);
    pos_ += n;
  }

  /// A row-major matrix prefixed by its rows and columns.
  void matrix(math::Matrix& out) {
    const std::size_t rows = index();
    const std::size_t cols = index();
    if (cols != 0 && rows > remaining() / cols) {
      fail("holds an oversized matrix");
    }
    out = math::Matrix(rows, cols);
    std::copy(p_ + pos_, p_ + pos_ + rows * cols, out.data());
    pos_ += rows * cols;
  }

  /// An EventDelay sampler in blocks::duration_params' encoding, rebuilt
  /// through the validated factories blocks::duration_from_attrs calls.
  blocks::DurationSpec duration() {
    try {
      return blocks::duration_from_params({p_, n_}, pos_);
    } catch (const std::invalid_argument& e) {
      fail(std::string("holds a bad duration: ") + e.what());
    }
  }

  /// Called after Program::load(): the table must be consumed exactly.
  void finish() const {
    if (pos_ != n_) {
      fail("has " + std::to_string(n_) + " values but the module reads " +
           std::to_string(pos_));
    }
  }

 private:
  std::size_t remaining() const { return n_ - pos_; }

  [[noreturn]] static void fail(const std::string& why) {
    throw std::runtime_error(
        "native model: parameter table does not fit the module: it " + why);
  }

  const double* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
};

/// The layout half of a generated Program (sim::Driver's `layout()`),
/// served from the constexpr tables the generator emits as static members
/// of `P`: every accessor is a constant-foldable array view.
template <class P>
struct Tables {
  const Tables& layout() const { return *this; }

  static constexpr std::size_t arena_size() { return P::kArenaSize; }
  static constexpr std::size_t total_state() { return P::kTotalState; }
  static std::span<const std::size_t> eval_order() { return P::kEvalOrder; }
  static std::span<const std::size_t> dynamic_cone() {
    return P::kDynamicCone;
  }
  static std::span<const std::size_t> cone(std::size_t block) {
    return {P::kConeBlocks.data() + P::kConeBase[block],
            P::kConeBase[block + 1] - P::kConeBase[block]};
  }
  static std::span<const std::size_t> stateful_blocks() {
    return P::kStatefulBlocks;
  }
  static std::size_t state_offset(std::size_t block) {
    return P::kStateOffset[block];
  }
  static std::span<const sim::PortRef> event_sinks(std::size_t block,
                                                   std::size_t event_out) {
    const std::size_t slot = P::kSinkBase[block] + event_out;
    return {P::kSinks.data() + P::kSinkPtr[slot],
            P::kSinkPtr[slot + 1] - P::kSinkPtr[slot]};
  }
  static std::span<const char* const> block_names() { return P::kBlockNames; }
};

/// The engine of a generated module: the one sim::Driver loop over the
/// module's tables and kernels.
template <class Program>
using Engine = sim::Driver<Program>;

/// A module's whole run (what ecsim_native_run calls): read the block-
/// private values — a table that does not fit this module's shape fails the
/// run before anything is simulated — then drive the program once. Returns
/// the number of dispatched events.
template <class Program>
std::size_t run_program(const NativeRunOptions& o, sim::Trace& trace) {
  Program prog;
  ParamReader params(o.params, o.n_params);
  prog.load(params);
  params.finish();

  sim::SimOptions so;
  so.end_time = o.end_time;
  so.integrator.kind = static_cast<sim::IntegratorKind>(o.integrator_kind);
  so.integrator.max_step = o.max_step;
  so.integrator.rel_tol = o.rel_tol;
  so.integrator.abs_tol = o.abs_tol;
  so.integrator.min_step = o.min_step;
  so.seed = o.seed;
  so.max_events = o.max_events;
  so.full_refresh = o.full_refresh != 0;

  Engine<Program> engine(prog);
  engine.bind_trace(&trace);
  engine.init_obs(o.obs);
  engine.run(so);
  return engine.events_dispatched();
}

}  // namespace ecsim::backend::rt
