// Algorithm graph of the AAA (Algorithm-Architecture Adequation) methodology:
// a dataflow graph of operations (sensors, computations, actuators) with
// sized data dependencies, WCETs per processor type, optional conditional
// branches (paper §3.2.2) and optional placement constraints (sensors and
// actuators are physically wired to specific processors).
#pragma once

#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace ecsim::aaa {

using OpId = std::size_t;
using Time = double;

inline constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

enum class OpKind {
  kSensor,    // acquires a measure (its completion instant is I_j(k), eq. 1)
  kCompute,   // internal computation
  kActuator,  // applies a control (its completion instant is O_j(k), eq. 2)
};

/// One alternative of a conditional operation (if..then..else, §3.2.2).
struct Branch {
  std::string name;
  /// WCET per processor type.
  std::map<std::string, Time> wcet;
};

struct Operation {
  std::string name;
  OpKind kind = OpKind::kCompute;
  /// WCET per processor type; an op can only run on types listed here.
  std::map<std::string, Time> wcet;
  /// Non-empty => conditional operation: at run time exactly one branch
  /// executes, chosen by the condition value; the static schedule reserves
  /// max over branches.
  std::vector<Branch> branches;
  /// Optional processor-name placement constraint (I/O binding).
  std::optional<std::string> bound_processor;
  /// Earliest start within each period (release offset). Used by the
  /// multirate hyperperiod expansion: the i-th instance of a slow operation
  /// releases at i * base_period inside the hyperperiod. Honoured by the
  /// adequation, the executive VM and the graph of delays alike.
  Time release = 0.0;

  bool is_conditional() const { return !branches.empty(); }
  /// WCET on a processor type: plain WCET, or max over branches.
  Time wcet_on(const std::string& proc_type) const;
  /// True if this op can execute on the given processor type.
  bool runs_on(const std::string& proc_type) const;
};

/// Sized data dependency: `from` produces `size` data units consumed by `to`.
struct DataDep {
  OpId from = 0;
  OpId to = 0;
  double size = 1.0;
  /// Message priority for arbitrated media: lower value = higher priority
  /// (CAN identifier order). Under owner-slot TDMA it selects the owner
  /// slot (priority % slots); under kCanPriority the schedule's static
  /// frame order governs and the priority moves no instant. kNone =
  /// "unset": consumers fall back to the dependency's index in the graph,
  /// so declaration order is the default priority order and existing
  /// graphs keep their behavior.
  std::size_t priority = kNone;
};

/// Dependency indices grouped per operation in compressed sparse rows, each
/// row in ascending dependency-index order: row `op` is
/// dep[offsets[op], offsets[op + 1]).
struct DepRows {
  std::vector<std::size_t> offsets;
  std::vector<std::size_t> dep;

  std::span<const std::size_t> row(std::size_t op) const {
    return {dep.data() + offsets[op], dep.data() + offsets[op + 1]};
  }
};

class AlgorithmGraph {
 public:
  explicit AlgorithmGraph(std::string name = "algorithm", Time period = 0.0)
      : name_(std::move(name)), period_(period) {}

  OpId add_operation(Operation op);
  /// Convenience: uniform WCET on a single default processor type "cpu".
  OpId add_simple(std::string name, OpKind kind, Time wcet,
                  std::optional<std::string> bound_processor = std::nullopt);
  void add_dependency(OpId from, OpId to, double size = 1.0,
                      std::size_t priority = kNone);
  /// Effective message priority of dependency `dep_index`: the explicit
  /// DataDep::priority when set, else the dependency index itself.
  std::size_t dep_priority(std::size_t dep_index) const;

  std::size_t num_operations() const { return ops_.size(); }
  const Operation& op(OpId id) const { return ops_.at(id); }
  Operation& op(OpId id) { return ops_.at(id); }
  const std::vector<DataDep>& dependencies() const { return deps_; }
  const std::string& name() const { return name_; }
  Time period() const { return period_; }
  void set_period(Time t) { period_ = t; }

  /// Dependencies consumed (in_rows) / produced (out_rows) by each op, as
  /// one O(|V| + |E|) index for loops that would otherwise rescan the
  /// dependency list per op.
  DepRows in_rows() const;
  DepRows out_rows() const;

  std::vector<OpId> predecessors(OpId id) const;
  std::vector<OpId> successors(OpId id) const;
  std::vector<OpId> sensors() const;
  std::vector<OpId> actuators() const;

  /// Topological order; throws std::runtime_error if the graph is cyclic.
  std::vector<OpId> topological_order() const;

  /// Find op id by name; throws std::out_of_range if absent.
  OpId find(const std::string& name) const;

  /// Critical-path length per op (longest path from op to any sink, using
  /// max WCET across processor types, plus optional per-unit comm weight on
  /// edges). Used as the urgency metric of the adequation heuristic.
  std::vector<Time> tail_levels(double comm_weight = 0.0) const;

 private:
  std::string name_;
  Time period_;
  std::vector<Operation> ops_;
  std::vector<DataDep> deps_;
};

}  // namespace ecsim::aaa
