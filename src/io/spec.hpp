// Plain-text specification format for the AAA flow — the loadable artifact a
// command-line user writes instead of C++. Line-oriented, '#' comments:
//
//   [algorithm]
//   name   servo-loop
//   period 0.01
//   op  sense sensor   2e-4 @P0      # name kind wcet [@processor]
//   op  ctrl  compute  1e-3
//   op  mode  compute  branch fast 1e-4 branch slow 3e-3
//   op  act   actuator 2e-4 @P0
//   dep sense ctrl 8                 # producer consumer [size]
//   dep ctrl  act  8 prio 1          # optional message priority (lower wins)
//   rate ctrl 4                      # multirate: runs every 4th period
//
//   [architecture]
//   name  two-ecu
//   proc  P0 cpu
//   proc  P1 cpu
//   bus   can 4e4 1e-4 P0 P1         # name bandwidth latency procs...
//   tdma  can 1e-3                   # optional slot grid
//   tdma  can 1e-3 4                 # ... or 4 owner slots per round
//   can   can 2e-3                   # CAN arbitration, worst-case blocking
//   load  can 0.4                    # background-traffic load in [0, 1)
//
// Rate lines turn the algorithm into a MultirateSpec expanded over the
// hyperperiod (see aaa/multirate.hpp); without them the graph is used as-is.
#pragma once

#include <stdexcept>
#include <string>

#include "aaa/algorithm_graph.hpp"
#include "aaa/architecture_graph.hpp"

namespace ecsim::io {

struct SpecParseError : std::runtime_error {
  SpecParseError(std::size_t line, const std::string& message)
      : std::runtime_error("spec line " + std::to_string(line) + ": " +
                           message),
        line_number(line) {}
  std::size_t line_number;
};

struct ParsedSpec {
  aaa::AlgorithmGraph algorithm{"", 0.0};
  aaa::ArchitectureGraph architecture;
  bool has_algorithm = false;
  bool has_architecture = false;
};

/// Parse the text of a spec file. Throws SpecParseError with the offending
/// line number on malformed input.
ParsedSpec parse_spec(const std::string& text);

/// Read a spec file's text. Throws std::runtime_error when the file cannot
/// be read.
std::string read_spec_file(const std::string& path);

/// Convenience: read the file and parse (read_spec_file + parse_spec).
ParsedSpec load_spec(const std::string& path);

}  // namespace ecsim::io
