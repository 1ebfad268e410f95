#include "fault/fault_plan.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "fault/comm_gate.hpp"

namespace ecsim::fault {

namespace {

const char* kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kMessageLoss: return "message-loss";
    case FaultKind::kMessageDelay: return "message-delay";
    case FaultKind::kMessageDuplicate: return "message-duplicate";
    case FaultKind::kOpOverrun: return "op-overrun";
    case FaultKind::kNodeStop: return "node-stop";
  }
  return "?";
}

}  // namespace

FaultPlan& FaultPlan::message_loss(std::string medium, double p) {
  FaultSpec f;
  f.kind = FaultKind::kMessageLoss;
  f.target = std::move(medium);
  f.probability = p;
  faults.push_back(std::move(f));
  return *this;
}

FaultPlan& FaultPlan::message_delay(std::string medium, double p, Time delay) {
  FaultSpec f;
  f.kind = FaultKind::kMessageDelay;
  f.target = std::move(medium);
  f.probability = p;
  f.delay = delay;
  faults.push_back(std::move(f));
  return *this;
}

FaultPlan& FaultPlan::message_duplicate(std::string medium, double p,
                                        std::size_t extra_copies) {
  FaultSpec f;
  f.kind = FaultKind::kMessageDuplicate;
  f.target = std::move(medium);
  f.probability = p;
  f.extra_copies = extra_copies;
  faults.push_back(std::move(f));
  return *this;
}

FaultPlan& FaultPlan::op_overrun(std::string op, double p, double factor) {
  FaultSpec f;
  f.kind = FaultKind::kOpOverrun;
  f.target = std::move(op);
  f.probability = p;
  f.overrun_factor = factor;
  faults.push_back(std::move(f));
  return *this;
}

FaultPlan& FaultPlan::node_stop(std::string proc, Time t_start, Time t_stop) {
  FaultSpec f;
  f.kind = FaultKind::kNodeStop;
  f.target = std::move(proc);
  f.t_start = t_start;
  f.t_stop = t_stop;
  faults.push_back(std::move(f));
  return *this;
}

FaultPlan& FaultPlan::window(Time t_start, Time t_stop) {
  if (faults.empty()) {
    throw std::logic_error("FaultPlan::window: no fault to restrict");
  }
  faults.back().t_start = t_start;
  faults.back().t_stop = t_stop;
  return *this;
}

ArmedFaultPlan::ArmedFaultPlan(const FaultPlan& plan,
                               const aaa::AlgorithmGraph& alg,
                               const aaa::ArchitectureGraph& arch,
                               const aaa::Schedule& sched)
    : seed_(plan.seed), faults_(plan.faults) {
  period_ = alg.period() > 0.0 ? alg.period() : sched.makespan();
  comm_faults_.resize(sched.comms().size());
  op_faults_.resize(alg.num_operations());
  node_faults_.resize(arch.num_processors());

  for (std::size_t fi = 0; fi < faults_.size(); ++fi) {
    const FaultSpec& f = faults_[fi];
    if (f.probability < 0.0 || f.probability > 1.0) {
      throw std::invalid_argument("FaultPlan: probability outside [0,1]");
    }
    if (f.delay < 0.0) {
      throw std::invalid_argument("FaultPlan: negative delay");
    }
    if (f.overrun_factor < 1.0) {
      throw std::invalid_argument("FaultPlan: overrun_factor < 1");
    }
    if (!(f.t_stop > f.t_start)) {
      throw std::invalid_argument("FaultPlan: empty window (t_stop <= t_start)");
    }
    switch (f.kind) {
      case FaultKind::kMessageLoss:
      case FaultKind::kMessageDelay:
      case FaultKind::kMessageDuplicate: {
        if (f.kind == FaultKind::kMessageDuplicate && f.extra_copies == 0) {
          throw std::invalid_argument("FaultPlan: extra_copies == 0");
        }
        // Resolve against the media actually carrying scheduled transfers.
        // find_medium throws on an unknown name — typos fail loudly.
        const aaa::MediumId target =
            f.target.empty() ? aaa::kNone : arch.find_medium(f.target);
        bool matched = f.target.empty();
        for (std::size_t ci = 0; ci < sched.comms().size(); ++ci) {
          const aaa::MediumId m = sched.comms()[ci].hop.medium;
          if (f.target.empty() || m == target) {
            comm_faults_[ci].push_back(fi);
            matched = true;
          }
        }
        (void)matched;  // a medium without scheduled traffic is legal
        break;
      }
      case FaultKind::kOpOverrun: {
        if (f.target.empty()) {
          for (auto& list : op_faults_) list.push_back(fi);
        } else {
          op_faults_.at(alg.find(f.target)).push_back(fi);
        }
        break;
      }
      case FaultKind::kNodeStop: {
        if (f.target.empty()) {
          for (auto& list : node_faults_) list.push_back(fi);
        } else {
          node_faults_.at(arch.find_processor(f.target)).push_back(fi);
        }
        break;
      }
    }
  }
}

bool ArmedFaultPlan::in_window(const FaultSpec& f,
                               std::size_t iteration) const {
  const Time nominal = static_cast<Time>(iteration) * period_;
  return nominal >= f.t_start && nominal < f.t_stop;
}

ArmedFaultPlan::CommEffect ArmedFaultPlan::comm_effect(
    std::size_t comm_index, std::size_t iteration) const {
  CommEffect e;
  if (comm_index >= comm_faults_.size()) return e;
  for (const std::size_t fi : comm_faults_[comm_index]) {
    const FaultSpec& f = faults_[fi];
    if (!in_window(f, iteration)) continue;
    if (fault_draw(seed_, fi, comm_index, iteration) >= f.probability) {
      continue;
    }
    switch (f.kind) {
      case FaultKind::kMessageLoss:
        if (!e.lost) {
          e.lost = true;
          e.loss_fault = fi;
        }
        break;
      case FaultKind::kMessageDelay:
        e.extra_delay += f.delay;
        if (e.delay_fault == kNone) e.delay_fault = fi;
        break;
      case FaultKind::kMessageDuplicate:
        e.extra_copies += f.extra_copies;
        if (e.dup_fault == kNone) e.dup_fault = fi;
        break;
      default:
        break;
    }
  }
  return e;
}

CommGate ArmedFaultPlan::comm_gate(std::size_t comm_index,
                                   Time transfer_duration) const {
  CommGate gate;
  gate.seed = seed_;
  gate.period = period_;
  gate.comm_index = comm_index;
  gate.transfer_duration = transfer_duration;
  if (comm_index >= comm_faults_.size()) return gate;
  for (const std::size_t fi : comm_faults_[comm_index]) {
    const FaultSpec& f = faults_[fi];
    CommGateEntry e;
    e.fault = fi;
    switch (f.kind) {
      case FaultKind::kMessageLoss:
        e.kind = CommGateEntry::Kind::kLoss;
        break;
      case FaultKind::kMessageDelay:
        e.kind = CommGateEntry::Kind::kDelay;
        break;
      case FaultKind::kMessageDuplicate:
        e.kind = CommGateEntry::Kind::kDuplicate;
        break;
      default:
        continue;  // comm_faults_ only holds message kinds
    }
    e.probability = f.probability;
    e.delay = f.delay;
    e.extra_copies = f.extra_copies;
    e.t_start = f.t_start;
    e.t_stop = f.t_stop;
    gate.entries.push_back(e);
  }
  return gate;
}

double ArmedFaultPlan::op_factor(OpId op, std::size_t iteration,
                                 std::size_t* fault_out) const {
  if (fault_out != nullptr) *fault_out = kNone;
  if (op >= op_faults_.size()) return 1.0;
  double factor = 1.0;
  for (const std::size_t fi : op_faults_[op]) {
    const FaultSpec& f = faults_[fi];
    if (!in_window(f, iteration)) continue;
    if (fault_draw(seed_, fi, op, iteration) >= f.probability) continue;
    factor *= f.overrun_factor;
    if (fault_out != nullptr && *fault_out == kNone) *fault_out = fi;
  }
  return factor;
}

bool ArmedFaultPlan::node_has_outages(ProcId proc) const {
  return proc < node_faults_.size() && !node_faults_[proc].empty();
}

Time ArmedFaultPlan::node_release(ProcId proc, Time t) const {
  if (proc >= node_faults_.size()) return t;
  // Windows may abut or nest; iterate to a fixed point (bounded by the
  // number of outage faults on this processor).
  bool moved = true;
  while (moved) {
    moved = false;
    for (const std::size_t fi : node_faults_[proc]) {
      const FaultSpec& f = faults_[fi];
      if (t >= f.t_start && t < f.t_stop) {
        t = f.t_stop;
        moved = true;
      }
    }
  }
  return t;
}

std::string to_string(const FaultPlan& plan) {
  std::string out =
      "fault plan (seed " + std::to_string(plan.seed) + "):\n";
  if (plan.faults.empty()) return out + "  (empty — fault-free)\n";
  char buf[160];
  for (const FaultSpec& f : plan.faults) {
    const std::string target = f.target.empty() ? "*" : f.target;
    std::snprintf(buf, sizeof buf, "  %-17s %-10s p=%.3g", kind_name(f.kind),
                  target.c_str(), f.probability);
    out += buf;
    if (f.kind == FaultKind::kMessageDelay) {
      std::snprintf(buf, sizeof buf, " delay=%.3gs", f.delay);
      out += buf;
    }
    if (f.kind == FaultKind::kMessageDuplicate) {
      std::snprintf(buf, sizeof buf, " copies=+%zu", f.extra_copies);
      out += buf;
    }
    if (f.kind == FaultKind::kOpOverrun) {
      std::snprintf(buf, sizeof buf, " x%.3g", f.overrun_factor);
      out += buf;
    }
    if (std::isfinite(f.t_stop) || f.t_start > 0.0) {
      std::snprintf(buf, sizeof buf, " window=[%.3g,%.3g)", f.t_start,
                    f.t_stop);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

std::uint64_t hash(const FaultPlan& plan) {
  if (plan.empty()) return 0;
  // FNV-1a over a canonical serialization (hexfloat doubles are exact), the
  // same construction ir::hash uses: equal plans hash equal on any host.
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
    h ^= 0xff;  // field separator
    h *= 1099511628211ULL;
  };
  const auto mix_f = [&](double v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    mix(buf);
  };
  mix(std::to_string(plan.seed));
  for (const FaultSpec& f : plan.faults) {
    mix(std::to_string(static_cast<int>(f.kind)));
    mix(f.target);
    mix_f(f.probability);
    mix_f(f.delay);
    mix(std::to_string(f.extra_copies));
    mix_f(f.overrun_factor);
    mix_f(f.t_start);
    mix_f(f.t_stop);
  }
  return h;
}

}  // namespace ecsim::fault
