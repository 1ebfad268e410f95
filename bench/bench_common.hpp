// Shared scaffolding for the experiment benches: each binary prints its
// experiment tables (the reproduction of a paper figure) and then runs the
// registered google-benchmark cases on the underlying kernels.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "control/c2d.hpp"
#include "control/delay_compensation.hpp"
#include "control/lqr.hpp"
#include "ir/ir.hpp"
#include "plants/dc_servo.hpp"
#include "latency/latency.hpp"
#include "par/sweep.hpp"
#include "sim/build_ir.hpp"
#include "support/alloc_counter.hpp"
#include "translate/cosim.hpp"

namespace ecsim::bench {

/// Standard workload: LQR state feedback on the Cervin DC servo
/// G(s) = 1000/(s(s+1)) at Ts = 10 ms, unit position step over 1 s.
/// (Shared with the sweep engine — sweep grids and serial benches must
/// measure the exact same loop.)
inline translate::LoopSpec servo_loop(double ts = 0.01, double t_end = 1.0) {
  return sweep::servo_loop(ts, t_end);
}

/// Format a performance metric, collapsing diverged (unstable-loop) values
/// to a readable marker instead of astronomical numbers.
inline std::string metric(double v, const char* fmt = "%10.5f",
                          double unstable_above = sweep::kUnstableIae) {
  char buf[64];
  if (!(v < unstable_above)) return "  unstable";
  std::snprintf(buf, sizeof buf, fmt, v);
  return std::string(buf);
}

/// Header banner for the experiment output.
inline void banner(const char* exp_id, const char* paper_anchor,
                   const char* description) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n%s\n", exp_id, paper_anchor, description);
  std::printf("================================================================\n\n");
}

/// Minimal machine-readable perf report: written as BENCH_<id>.json next to
/// the bench binary's working directory so the perf trajectory of an
/// experiment can be diffed across PRs. Usage:
///   JsonReport r("EXP-P1");
///   r.begin_array("event_dispatch");
///   r.begin_object(); r.field("chains", 200); ...; r.end_object();
///   r.end_array();
///   r.write("BENCH_p1.json");
class JsonReport {
 public:
  explicit JsonReport(const std::string& experiment) {
    // Sequential += throughout this class: GCC 12's -Wrestrict misfires on
    // chained std::string operator+ in inlined contexts.
    out_ = "{\n  \"experiment\": \"";
    out_ += experiment;
    out_ += "\"";
    // Perf numbers are meaningless without the machine that produced them:
    // stamp every report with host, core count and compiler. Allocation
    // counts are only live under -DECSIM_ALLOC_GUARD=ON; the stamp lets a
    // reader tell "0 allocs" apart from "not counted".
    raw_top_field("host", quoted(hostname()));
    raw_top_field("hardware_concurrency",
                  std::to_string(std::thread::hardware_concurrency()));
    raw_top_field("compiler", quoted(compiler()));
    raw_top_field("alloc_counting",
                  testing::alloc_guard_enabled() ? "\"on\"" : "\"off\"");
  }
  /// Stamp the canonical Model-IR hash (DESIGN.md §3.6) of a workload model
  /// so the report names the exact model its numbers were measured on —
  /// comparable across PRs as long as the hash is unchanged. Call before the
  /// first begin_array().
  void model_ir_hash(const std::string& name, const std::string& hash_hex) {
    std::string key = "model_ir_hash_";
    key += name;
    raw_top_field(key, quoted(hash_hex));
  }
  void model_ir_hash(const std::string& name, sim::Model& m) {
    model_ir_hash(name, ir::hash_hex(sim::build_ir(m, name)));
  }

  void begin_array(const std::string& name) {
    out_ += ",\n  \"" + name + "\": [";
    first_in_array_ = true;
  }
  void begin_object() {
    out_ += first_in_array_ ? "\n    {" : ",\n    {";
    first_in_array_ = false;
    first_in_object_ = true;
  }
  void field(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    raw_field(key, buf);
  }
  void field(const std::string& key, std::size_t v) {
    raw_field(key, std::to_string(v));
  }
  void field(const std::string& key, const std::string& v) {
    raw_field(key, quoted(v));  // keys/values must not need escaping
  }
  void end_object() { out_ += "}"; }
  void end_array() { out_ += "\n  ]"; }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs(out_.c_str(), f);
    std::fputs("\n}\n", f);
    std::fclose(f);
    std::printf("wrote %s\n\n", path.c_str());
    return true;
  }

  static std::string hostname() {
#if defined(__unix__) || defined(__APPLE__)
    char buf[256] = {};
    if (gethostname(buf, sizeof buf - 1) == 0 && buf[0] != '\0') return buf;
#endif
    return "unknown";
  }

  static std::string compiler() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
  }

 private:
  static std::string quoted(const std::string& s) {
    std::string q = "\"";
    q += s;
    q += "\"";
    return q;
  }

  void raw_top_field(const std::string& key, const std::string& value) {
    out_ += ",\n  \"";
    out_ += key;
    out_ += "\": ";
    out_ += value;
  }

  void raw_field(const std::string& key, const std::string& value) {
    out_ += first_in_object_ ? "\"" : ", \"";
    first_in_object_ = false;
    out_ += key;
    out_ += "\": ";
    out_ += value;
  }

  std::string out_;
  bool first_in_array_ = true;
  bool first_in_object_ = true;
};

/// Emit a measured phase's allocation counts next to its timing fields so
/// BENCH_*.json files track allocs/event across PRs. `probe` brackets the
/// phase (testing::AllocProbe); counts read 0 in ordinary builds — check the
/// report's top-level "alloc_counting" stamp before interpreting them.
inline void alloc_fields(JsonReport& r, const testing::AllocProbe& probe,
                         std::size_t events) {
  r.field("allocs", probe.allocations());
  r.field("allocs_per_event",
          events > 0
              ? static_cast<double>(probe.allocations()) /
                    static_cast<double>(events)
              : 0.0);
}

/// Print the table, then hand over to google-benchmark.
inline int run_benchmarks(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace ecsim::bench
