#include "io/spec.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <vector>

#include "aaa/multirate.hpp"

namespace ecsim::io {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    if (tok[0] == '#') break;  // comment to end of line
    tokens.push_back(tok);
  }
  return tokens;
}

double parse_number(const std::string& tok, std::size_t line,
                    const char* what) {
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(tok, &consumed);
  } catch (const std::exception&) {
    throw SpecParseError(line, std::string("expected a number for ") + what +
                                   ", got '" + tok + "'");
  }
  if (consumed != tok.size()) {
    throw SpecParseError(line, std::string("trailing characters in ") + what +
                                   ": '" + tok + "'");
  }
  return value;
}

aaa::OpKind parse_kind(const std::string& tok, std::size_t line) {
  if (tok == "sensor") return aaa::OpKind::kSensor;
  if (tok == "compute") return aaa::OpKind::kCompute;
  if (tok == "actuator") return aaa::OpKind::kActuator;
  throw SpecParseError(line, "unknown operation kind '" + tok +
                                 "' (sensor|compute|actuator)");
}

struct RawOp {
  std::string name;
  aaa::OpKind kind = aaa::OpKind::kCompute;
  double wcet = -1.0;  // < 0: conditional (branches set instead)
  std::vector<aaa::Branch> branches;
  std::optional<std::string> bound;
  std::size_t rate = 1;
};

struct RawDep {
  std::string from, to;
  double size = 1.0;
  std::size_t priority = aaa::kNone;  // kNone = declaration-order default
};

}  // namespace

ParsedSpec parse_spec(const std::string& text) {
  enum class Section { kNone, kAlgorithm, kArchitecture };
  Section section = Section::kNone;

  std::string alg_name = "algorithm";
  double period = 0.0;
  std::vector<RawOp> ops;
  std::vector<RawDep> deps;

  std::string arch_name = "architecture";
  struct RawProc {
    std::string name, type;
  };
  struct RawBus {
    std::string name;
    double bandwidth = 0.0, latency = 0.0;
    std::vector<std::string> procs;
    double tdma_slot = 0.0;
    std::size_t tdma_slots = 1;
    bool can = false;
    double can_blocking = 0.0;
    double background_load = 0.0;
  };
  std::vector<RawProc> procs;
  std::vector<RawBus> buses;

  std::istringstream stream(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    const std::vector<std::string> t = tokenize(line);
    if (t.empty()) continue;
    if (t[0] == "[algorithm]") {
      section = Section::kAlgorithm;
      continue;
    }
    if (t[0] == "[architecture]") {
      section = Section::kArchitecture;
      continue;
    }
    if (t[0].front() == '[') {
      throw SpecParseError(line_no, "unknown section " + t[0]);
    }
    if (section == Section::kAlgorithm) {
      if (t[0] == "name" && t.size() == 2) {
        alg_name = t[1];
      } else if (t[0] == "period" && t.size() == 2) {
        period = parse_number(t[1], line_no, "period");
      } else if (t[0] == "op") {
        if (t.size() < 4) {
          throw SpecParseError(line_no, "op needs: name kind wcet|branches");
        }
        RawOp op;
        op.name = t[1];
        op.kind = parse_kind(t[2], line_no);
        std::size_t i = 3;
        if (t[i] == "branch") {
          while (i < t.size() && t[i] == "branch") {
            if (i + 2 >= t.size()) {
              throw SpecParseError(line_no, "branch needs: name wcet");
            }
            aaa::Branch br;
            br.name = t[i + 1];
            br.wcet["cpu"] = parse_number(t[i + 2], line_no, "branch wcet");
            op.branches.push_back(std::move(br));
            i += 3;
          }
        } else {
          op.wcet = parse_number(t[i], line_no, "wcet");
          ++i;
        }
        if (i < t.size()) {
          if (t[i].size() < 2 || t[i][0] != '@') {
            throw SpecParseError(line_no, "expected @processor, got '" + t[i] +
                                              "'");
          }
          op.bound = t[i].substr(1);
          ++i;
        }
        if (i != t.size()) {
          throw SpecParseError(line_no, "trailing tokens after op");
        }
        ops.push_back(std::move(op));
      } else if (t[0] == "dep" &&
                 (t.size() == 3 || t.size() == 4 || t.size() == 6)) {
        RawDep d;
        d.from = t[1];
        d.to = t[2];
        if (t.size() >= 4) d.size = parse_number(t[3], line_no, "dep size");
        if (t.size() == 6) {
          if (t[4] != "prio") {
            throw SpecParseError(line_no,
                                 "expected 'prio', got '" + t[4] + "'");
          }
          const double p = parse_number(t[5], line_no, "dep priority");
          if (p < 0.0 || p != std::floor(p)) {
            throw SpecParseError(line_no,
                                 "dep priority must be a non-negative "
                                 "integer");
          }
          d.priority = static_cast<std::size_t>(p);
        }
        deps.push_back(std::move(d));
      } else if (t[0] == "rate" && t.size() == 3) {
        const double r = parse_number(t[2], line_no, "rate divisor");
        if (r < 1.0 || r != static_cast<std::size_t>(r)) {
          throw SpecParseError(line_no, "rate divisor must be a positive "
                                        "integer");
        }
        bool found = false;
        for (RawOp& op : ops) {
          if (op.name == t[1]) {
            op.rate = static_cast<std::size_t>(r);
            found = true;
          }
        }
        if (!found) {
          throw SpecParseError(line_no, "rate for unknown op '" + t[1] + "'");
        }
      } else {
        throw SpecParseError(line_no, "unknown algorithm directive '" + t[0] +
                                          "'");
      }
    } else if (section == Section::kArchitecture) {
      if (t[0] == "name" && t.size() == 2) {
        arch_name = t[1];
      } else if (t[0] == "proc" && (t.size() == 2 || t.size() == 3)) {
        procs.push_back(RawProc{t[1], t.size() == 3 ? t[2] : "cpu"});
      } else if (t[0] == "bus" && t.size() >= 5) {
        RawBus bus;
        bus.name = t[1];
        bus.bandwidth = parse_number(t[2], line_no, "bus bandwidth");
        bus.latency = parse_number(t[3], line_no, "bus latency");
        bus.procs.assign(t.begin() + 4, t.end());
        buses.push_back(std::move(bus));
      } else if (t[0] == "tdma" && (t.size() == 3 || t.size() == 4)) {
        bool found = false;
        for (RawBus& bus : buses) {
          if (bus.name == t[1]) {
            bus.tdma_slot = parse_number(t[2], line_no, "tdma slot");
            if (t.size() == 4) {
              const double n = parse_number(t[3], line_no, "tdma slot count");
              if (n < 1.0 || n != std::floor(n)) {
                throw SpecParseError(line_no,
                                     "tdma slot count must be a positive "
                                     "integer");
              }
              bus.tdma_slots = static_cast<std::size_t>(n);
            }
            found = true;
          }
        }
        if (!found) {
          throw SpecParseError(line_no, "tdma for unknown bus '" + t[1] + "'");
        }
      } else if (t[0] == "can" && (t.size() == 2 || t.size() == 3)) {
        bool found = false;
        for (RawBus& bus : buses) {
          if (bus.name == t[1]) {
            bus.can = true;
            if (t.size() == 3) {
              bus.can_blocking = parse_number(t[2], line_no, "can blocking");
            }
            found = true;
          }
        }
        if (!found) {
          throw SpecParseError(line_no, "can for unknown bus '" + t[1] + "'");
        }
      } else if (t[0] == "load" && t.size() == 3) {
        bool found = false;
        for (RawBus& bus : buses) {
          if (bus.name == t[1]) {
            bus.background_load = parse_number(t[2], line_no, "bus load");
            found = true;
          }
        }
        if (!found) {
          throw SpecParseError(line_no, "load for unknown bus '" + t[1] + "'");
        }
      } else {
        throw SpecParseError(line_no, "unknown architecture directive '" +
                                          t[0] + "'");
      }
    } else {
      throw SpecParseError(line_no, "directive outside any section");
    }
  }

  ParsedSpec result;
  // ---- build the algorithm -------------------------------------------------
  if (!ops.empty()) {
    const bool multirate = std::any_of(ops.begin(), ops.end(),
                                       [](const RawOp& o) { return o.rate > 1; });
    if (multirate) {
      aaa::MultirateSpec spec;
      spec.name = alg_name;
      spec.base_period = period;
      for (const RawOp& op : ops) {
        if (!op.branches.empty()) {
          throw SpecParseError(0, "conditional ops are not supported together "
                                  "with rate directives");
        }
        spec.add_op(aaa::MultirateOp{op.name, op.kind,
                                     {{"cpu", op.wcet}}, op.rate, op.bound});
      }
      auto index_of = [&](const std::string& name) {
        for (std::size_t i = 0; i < ops.size(); ++i) {
          if (ops[i].name == name) return i;
        }
        throw SpecParseError(0, "dep references unknown op '" + name + "'");
      };
      for (const RawDep& d : deps) {
        if (d.priority != aaa::kNone) {
          throw SpecParseError(0, "dep priorities are not supported together "
                                  "with rate directives");
        }
        spec.add_dep(index_of(d.from), index_of(d.to), d.size);
      }
      result.algorithm = aaa::expand_hyperperiod(spec);
    } else {
      aaa::AlgorithmGraph alg(alg_name, period);
      for (const RawOp& op : ops) {
        aaa::Operation out;
        out.name = op.name;
        out.kind = op.kind;
        if (op.branches.empty()) {
          out.wcet["cpu"] = op.wcet;
        } else {
          out.branches = op.branches;
        }
        out.bound_processor = op.bound;
        alg.add_operation(std::move(out));
      }
      for (const RawDep& d : deps) {
        alg.add_dependency(alg.find(d.from), alg.find(d.to), d.size,
                           d.priority);
      }
      result.algorithm = std::move(alg);
    }
    result.has_algorithm = true;
  }
  // ---- build the architecture ----------------------------------------------
  if (!procs.empty()) {
    aaa::ArchitectureGraph arch(arch_name);
    for (const RawProc& p : procs) arch.add_processor(p.name, p.type);
    for (const RawBus& bus : buses) {
      const aaa::MediumId m =
          arch.add_medium(bus.name, bus.bandwidth, bus.latency);
      for (const std::string& p : bus.procs) {
        arch.attach(arch.find_processor(p), m);
      }
      if (bus.can && bus.tdma_slot > 0.0) {
        throw SpecParseError(0, "bus '" + bus.name +
                                    "' cannot be both tdma and can");
      }
      if (bus.tdma_slot > 0.0) {
        arch.set_tdma(m, bus.tdma_slot, bus.tdma_slots);
      }
      if (bus.can) arch.set_can(m, bus.can_blocking);
      if (bus.background_load != 0.0) {
        arch.set_background_load(m, bus.background_load);
      }
    }
    result.architecture = std::move(arch);
    result.has_architecture = true;
  }
  return result;
}

std::string read_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_spec: cannot read '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

ParsedSpec load_spec(const std::string& path) {
  return parse_spec(read_spec_file(path));
}

}  // namespace ecsim::io
