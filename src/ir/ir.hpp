// Model IR (DESIGN.md §3.6): the versioned, canonically-serialized, hashable
// compile artifact sitting between the front ends (block-diagram assembly,
// io::spec parsing + adequation) and the back ends (the interpreting
// Simulator, the native code generator, the executive VM).
//
// An ir::Model captures everything a backend needs and nothing it must
// re-derive:
//  - the block table: one BlockIr per block, with the structural contract
//    (port widths, event arity, continuous-state size, feedthrough flags,
//    time dependence) and — for blocks that describe() themselves — the kind
//    tag and the full parameter set as typed attributes. Blocks whose
//    behaviour lives in user closures stay `opaque`: structurally complete
//    (the interpreter can still lay them out and run them) but not
//    regenerable, so code generation refuses them and falls back.
//  - the wire lists (data + event), exactly as authored;
//  - the derived LayoutIr: arena offsets, input-resolution table, packed
//    state layout, event fan-out CSR, feedthrough topological order and
//    re-evaluation cones. finalize() derives it with the exact algorithms
//    the interpreter used to own, so every backend agrees on layout;
//  - optionally the AAA ScheduleIr: the executive VM's precompiled program
//    (instruction streams with WCETs resolved against processor types).
//
// Determinism contract: serialize() is canonical — the same Model value
// always produces the same bytes (doubles in hexfloat, fixed field order,
// no locale, no pointers, no timestamps) — and parse(serialize(m)) == m.
// hash() is FNV-1a 64 over those bytes, so it is stable across processes,
// platforms with IEEE-754 doubles, and thread counts, and changes whenever
// any semantic field (a parameter, a WCET, a wire) changes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ecsim::ir {

inline constexpr int kIrVersion = 1;

/// One typed block parameter. The tag says which payload field is live.
struct Attr {
  enum class Kind { kInt, kReal, kRealVec, kMatrix, kString };

  std::string key;
  Kind kind = Kind::kInt;
  long long i = 0;            // kInt
  double r = 0.0;             // kReal
  std::vector<double> vec;    // kRealVec, kMatrix (row-major)
  std::size_t rows = 0;       // kMatrix
  std::size_t cols = 0;       // kMatrix
  std::string s;              // kString

  static Attr of_int(std::string key, long long v);
  static Attr of_real(std::string key, double v);
  static Attr of_vec(std::string key, std::vector<double> v);
  static Attr of_matrix(std::string key, std::size_t rows, std::size_t cols,
                        std::vector<double> row_major);
  static Attr of_string(std::string key, std::string v);

  bool operator==(const Attr&) const = default;
};

/// One block: structural contract + (when not opaque) the parameters needed
/// to regenerate its behaviour.
struct BlockIr {
  std::string kind;   // block type tag ("Gain", "EventDelay", ...); "" opaque
  std::string name;
  std::vector<std::size_t> in_widths;
  std::vector<std::size_t> out_widths;
  std::size_t n_event_in = 0;
  std::size_t n_event_out = 0;
  std::size_t state_size = 0;
  std::vector<bool> feedthrough;  // per data input
  bool time_dependent = false;
  /// True when the block's behaviour is not reconstructible from `attrs`
  /// (a user closure: EventSelect's condition mapping, or a block kind from
  /// outside the library).
  bool opaque = false;
  std::vector<Attr> attrs;

  const Attr* find(const std::string& key) const;
  bool operator==(const BlockIr&) const = default;
};

struct PortRefIr {
  std::size_t block = 0;
  std::size_t port = 0;
  bool operator==(const PortRefIr&) const = default;
};

struct SliceIr {
  std::size_t offset = 0;
  std::size_t width = 0;
  bool operator==(const SliceIr&) const = default;
};

struct WireIr {
  PortRefIr from;
  PortRefIr to;
  bool operator==(const WireIr&) const = default;
};

/// Derived layout tables (finalize()). Mirrors what the interpreter's
/// CompiledModel exposes; every backend adopts these instead of re-deriving.
struct LayoutIr {
  std::size_t arena_size = 0;
  std::vector<std::size_t> out_base;   // [num_blocks + 1]
  std::vector<SliceIr> out_slices;     // out_base[b] + port
  std::vector<std::size_t> in_base;    // [num_blocks + 1]
  std::vector<SliceIr> in_slices;      // in_base[b] + port
  std::vector<std::size_t> state_offset;  // [num_blocks]
  std::size_t total_state = 0;
  std::vector<std::size_t> stateful_blocks;
  std::vector<std::size_t> eval_order;  // full feedthrough topo order
  std::vector<std::size_t> topo_pos;    // inverse of eval_order
  std::vector<std::size_t> cone_base;   // [num_blocks + 1]
  std::vector<std::size_t> cone_blocks;
  std::vector<std::size_t> dynamic_cone;
  std::vector<std::size_t> sink_base;   // [num_blocks + 1]
  std::vector<std::size_t> sink_ptr;    // CSR over event_sinks
  std::vector<PortRefIr> event_sinks;

  bool operator==(const LayoutIr&) const = default;
};

// --- AAA schedule side (the executive VM's precompiled program) -------------

inline constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

/// One executive instruction with its timing resolved: mirrors
/// aaa::Instr plus the per-host-type WCET lookups the VM used to do at
/// compile_programs() time.
struct InstrIr {
  enum class Kind { kCompute, kSend, kRecv };
  Kind kind = Kind::kCompute;
  std::size_t op = kNoIndex;    // kCompute: operation id
  std::size_t comm = kNoIndex;  // kSend/kRecv: index into the comm list
  std::string label;
  bool release_gated = false;   // sensor or multirate release offset
  double release = 0.0;
  double wcet = 0.0;                 // unconditional ops
  std::vector<double> branch_wcets;  // conditional ops (empty otherwise)

  bool operator==(const InstrIr&) const = default;
};

/// Statically ordered program of one processor.
struct ExecutiveIr {
  std::size_t proc = 0;
  std::string resource;  // processor name
  std::vector<InstrIr> instrs;
  bool operator==(const ExecutiveIr&) const = default;
};

/// Transfer sequence of one medium.
struct CommunicatorIr {
  std::size_t medium = 0;
  std::string resource;  // medium name
  std::vector<std::size_t> comms;  // comm indices, in schedule order
  bool operator==(const CommunicatorIr&) const = default;
};

struct ScheduleIr {
  double period = 0.0;
  double makespan = 0.0;
  std::vector<ExecutiveIr> executives;
  std::vector<CommunicatorIr> communicators;
  bool operator==(const ScheduleIr&) const = default;
};

// --- the model --------------------------------------------------------------

struct Model {
  int version = kIrVersion;
  std::string name;

  // Block-diagram side (may be empty for schedule-only IRs).
  std::vector<BlockIr> blocks;
  std::vector<WireIr> data_wires;
  std::vector<WireIr> event_wires;
  LayoutIr layout;

  // AAA side (present when the model came through the adequation).
  bool has_schedule = false;
  ScheduleIr schedule;

  std::size_t num_blocks() const { return blocks.size(); }
  bool operator==(const Model&) const = default;
};

/// (Re)derives `m.layout` from blocks + wires: arena layout, input
/// resolution (throws std::invalid_argument on width mismatches), packed
/// states, event fan-out CSR, feedthrough topological order (throws
/// std::runtime_error on algebraic loops) and the re-evaluation cones.
/// These are the exact algorithms the interpreter executes — backends adopt
/// the result instead of re-deriving it.
void finalize(Model& m);

/// True when every block carries a kind tag and no block is opaque — i.e.
/// the model's behaviour is fully regenerable from the IR (code generation
/// and blocks::to_model() require this).
bool fully_described(const Model& m);

/// Canonical text form. Deterministic: field order fixed, doubles printed
/// as hexfloats, strings quoted/escaped. parse(serialize(m)) == m and
/// serialize(parse(text)) == text for any serialize()-produced text.
std::string serialize(const Model& m);

/// Parses the canonical text form; throws std::runtime_error with a line
/// context on malformed input or an unsupported version.
Model parse(const std::string& text);

/// FNV-1a 64 over serialize(m): stable across processes and platforms.
std::uint64_t hash(const Model& m);
/// hash() in fixed "0x%016llx" form — the spelling used by `ecsim_flow ir
/// hash`, BENCH_*.json stamps and the native-backend cache key.
std::string hash_hex(const Model& m);

}  // namespace ecsim::ir
