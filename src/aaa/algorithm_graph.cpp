#include "aaa/algorithm_graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace ecsim::aaa {

Time Operation::wcet_on(const std::string& proc_type) const {
  if (!is_conditional()) {
    const auto it = wcet.find(proc_type);
    if (it == wcet.end()) {
      throw std::invalid_argument("Operation '" + name +
                                  "' cannot run on type '" + proc_type + "'");
    }
    return it->second;
  }
  Time best = -1.0;
  for (const Branch& br : branches) {
    const auto it = br.wcet.find(proc_type);
    if (it == br.wcet.end()) {
      throw std::invalid_argument("Branch '" + br.name + "' of '" + name +
                                  "' cannot run on type '" + proc_type + "'");
    }
    best = std::max(best, it->second);
  }
  return best;
}

bool Operation::runs_on(const std::string& proc_type) const {
  if (!is_conditional()) return wcet.count(proc_type) > 0;
  return std::all_of(branches.begin(), branches.end(), [&](const Branch& br) {
    return br.wcet.count(proc_type) > 0;
  });
}

OpId AlgorithmGraph::add_operation(Operation op) {
  if (op.name.empty()) {
    throw std::invalid_argument("add_operation: operation needs a name");
  }
  for (const Operation& existing : ops_) {
    if (existing.name == op.name) {
      throw std::invalid_argument("add_operation: duplicate name '" + op.name +
                                  "'");
    }
  }
  if (op.wcet.empty() && op.branches.empty()) {
    throw std::invalid_argument("add_operation: '" + op.name +
                                "' has no WCET entry");
  }
  for (const auto& [type, t] : op.wcet) {
    if (t < 0.0) throw std::invalid_argument("add_operation: negative WCET");
  }
  for (const Branch& br : op.branches) {
    for (const auto& [type, t] : br.wcet) {
      if (t < 0.0) throw std::invalid_argument("add_operation: negative WCET");
    }
  }
  ops_.push_back(std::move(op));
  return ops_.size() - 1;
}

OpId AlgorithmGraph::add_simple(std::string name, OpKind kind, Time wcet,
                                std::optional<std::string> bound_processor) {
  Operation op;
  op.name = std::move(name);
  op.kind = kind;
  op.wcet["cpu"] = wcet;
  op.bound_processor = std::move(bound_processor);
  return add_operation(std::move(op));
}

void AlgorithmGraph::add_dependency(OpId from, OpId to, double size,
                                    std::size_t priority) {
  if (from >= ops_.size() || to >= ops_.size()) {
    throw std::out_of_range("add_dependency: op id out of range");
  }
  if (from == to) throw std::invalid_argument("add_dependency: self-loop");
  if (size < 0.0) throw std::invalid_argument("add_dependency: negative size");
  deps_.push_back(DataDep{from, to, size, priority});
}

std::size_t AlgorithmGraph::dep_priority(std::size_t dep_index) const {
  const DataDep& d = deps_.at(dep_index);
  return d.priority != kNone ? d.priority : dep_index;
}

std::vector<OpId> AlgorithmGraph::predecessors(OpId id) const {
  std::vector<OpId> out;
  for (const DataDep& d : deps_) {
    if (d.to == id) out.push_back(d.from);
  }
  return out;
}

std::vector<OpId> AlgorithmGraph::successors(OpId id) const {
  std::vector<OpId> out;
  for (const DataDep& d : deps_) {
    if (d.from == id) out.push_back(d.to);
  }
  return out;
}

std::vector<OpId> AlgorithmGraph::sensors() const {
  std::vector<OpId> out;
  for (OpId i = 0; i < ops_.size(); ++i) {
    if (ops_[i].kind == OpKind::kSensor) out.push_back(i);
  }
  return out;
}

std::vector<OpId> AlgorithmGraph::actuators() const {
  std::vector<OpId> out;
  for (OpId i = 0; i < ops_.size(); ++i) {
    if (ops_[i].kind == OpKind::kActuator) out.push_back(i);
  }
  return out;
}

namespace {

/// Counting sort of dependency indices by `op_of(dep)`; stable, so each row
/// keeps ascending dependency order.
template <typename OpOf>
DepRows group_deps(std::size_t n_ops, const std::vector<DataDep>& deps,
                   OpOf&& op_of) {
  DepRows rows;
  rows.offsets.assign(n_ops + 1, 0);
  for (const DataDep& d : deps) ++rows.offsets[op_of(d) + 1];
  for (std::size_t i = 0; i < n_ops; ++i) {
    rows.offsets[i + 1] += rows.offsets[i];
  }
  rows.dep.resize(deps.size());
  std::vector<std::size_t> fill(rows.offsets.begin(), rows.offsets.end() - 1);
  for (std::size_t di = 0; di < deps.size(); ++di) {
    rows.dep[fill[op_of(deps[di])]++] = di;
  }
  return rows;
}

}  // namespace

DepRows AlgorithmGraph::in_rows() const {
  return group_deps(ops_.size(), deps_, [](const DataDep& d) { return d.to; });
}

DepRows AlgorithmGraph::out_rows() const {
  return group_deps(ops_.size(), deps_,
                    [](const DataDep& d) { return d.from; });
}

std::vector<OpId> AlgorithmGraph::topological_order() const {
  const std::size_t n = ops_.size();
  std::vector<std::size_t> indeg(n, 0);
  for (const DataDep& d : deps_) ++indeg[d.to];
  const DepRows out = out_rows();
  std::vector<OpId> order;
  order.reserve(n);
  std::vector<OpId> ready;
  for (OpId i = 0; i < n; ++i) {
    if (indeg[i] == 0) ready.push_back(i);
  }
  while (!ready.empty()) {
    const OpId id = ready.back();
    ready.pop_back();
    order.push_back(id);
    for (const std::size_t di : out.row(id)) {
      if (--indeg[deps_[di].to] == 0) ready.push_back(deps_[di].to);
    }
  }
  if (order.size() != n) {
    throw std::runtime_error("AlgorithmGraph: cycle detected in '" + name_ + "'");
  }
  return order;
}

OpId AlgorithmGraph::find(const std::string& name) const {
  for (OpId i = 0; i < ops_.size(); ++i) {
    if (ops_[i].name == name) return i;
  }
  throw std::out_of_range("AlgorithmGraph::find: no op named '" + name + "'");
}

std::vector<Time> AlgorithmGraph::tail_levels(double comm_weight) const {
  // max WCET across all processor types an op supports.
  auto max_wcet = [](const Operation& op) {
    Time best = 0.0;
    if (!op.is_conditional()) {
      for (const auto& [type, t] : op.wcet) best = std::max(best, t);
    } else {
      for (const Branch& br : op.branches) {
        for (const auto& [type, t] : br.wcet) best = std::max(best, t);
      }
    }
    return best;
  };
  const std::vector<OpId> order = topological_order();
  const DepRows out = out_rows();
  std::vector<Time> level(ops_.size(), 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const OpId id = *it;
    Time tail = 0.0;
    for (const std::size_t di : out.row(id)) {
      const DataDep& d = deps_[di];
      tail = std::max(tail, level[d.to] + comm_weight * d.size);
    }
    level[id] = max_wcet(ops_[id]) + tail;
  }
  return level;
}

}  // namespace ecsim::aaa
