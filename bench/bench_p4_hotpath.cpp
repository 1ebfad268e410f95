// EXP-P4: zero-allocation steady-state hot path (DESIGN.md §3.4). Reports
// the absolute steady-state throughput of the interpreter's hot path —
// integrator workspaces + function_ref dispatch, the lane event queue
// drained an instant at a time, preallocated block/matrix scratch — and its
// steady-state allocation counts, on the 200-chain event workload and the
// RK4 servo loop.
//
// GUARD: determinism of the hot path — two consecutive runs of one
// Simulator give identical traces and the expected event counts (601 000 on
// chains_200, 25 000 on servo_rk4). The guard runs via `ctest -C bench`
// (bench_p4_hotpath_guard); the process exits nonzero on failure.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "blocks/continuous.hpp"
#include "blocks/discrete.hpp"
#include "blocks/event_blocks.hpp"
#include "blocks/math_blocks.hpp"
#include "blocks/probe.hpp"
#include "blocks/sample_hold.hpp"
#include "blocks/sources.hpp"
#include "sim/compiled_model.hpp"
#include "sim/simulator.hpp"

using namespace ecsim;

namespace {

/// The EXP-P1/EXP-P4 event workload: one clock fanning out to `chains`
/// delay chains (clock -> d1 -> d2 -> counter), 1 ms tick. Large
/// simultaneous batches, no continuous state: isolates queue + dispatch.
sim::Model make_chains(std::size_t chains) {
  sim::Model m;
  auto& clk = m.add<blocks::Clock>("clk", 1e-3);
  for (std::size_t c = 0; c < chains; ++c) {
    auto& d1 = m.add<blocks::EventDelay>("d1_" + std::to_string(c), 1e-4);
    auto& d2 = m.add<blocks::EventDelay>("d2_" + std::to_string(c), 2e-4);
    auto& n = m.add<blocks::EventCounter>("n_" + std::to_string(c));
    m.connect_event(clk, 0, d1, d1.event_in());
    m.connect_event(d1, d1.event_out(), d2, d2.event_in());
    m.connect_event(d2, d2.event_out(), n, 0);
  }
  return m;
}

/// Sampled-data servo loop (continuous plant + S/H + discrete controller +
/// probe): integration-dominated, exercises the workspace/function_ref path
/// and the trace signal pool.
sim::Model make_servo() {
  sim::Model m;
  auto& plant = m.add<blocks::StateSpaceCont>(
      "plant", math::Matrix{{0.0, 1.0}, {-4.0, -1.2}},
      math::Matrix{{0.0}, {4.0}}, math::Matrix{{1.0, 0.0}},
      math::Matrix{{0.0}});
  auto& ref = m.add<blocks::Step>("ref", 0.0, 1.0, 0.0);
  auto& sense = m.add<blocks::SampleHold>("sense", 1);
  m.connect(plant, 0, sense, 0);
  auto& err = m.add<blocks::Sum>("err", std::vector<double>{1.0, -1.0}, 1);
  m.connect(ref, 0, err, 0);
  m.connect(sense, 0, err, 1);
  auto& ctrl = m.add<blocks::StateSpaceDisc>(
      "ctrl", math::Matrix{{1.0}}, math::Matrix{{0.02}}, math::Matrix{{1.0}},
      math::Matrix{{1.8}});
  m.connect(err, 0, ctrl, 0);
  auto& act = m.add<blocks::SampleHold>("act", 1);
  m.connect(ctrl, 0, act, 0);
  m.connect(act, 0, plant, 0);
  auto& probe_y = m.add<blocks::Probe>("probe_y", 1, 1e-3);
  m.connect(plant, 0, probe_y, 0);
  auto& clock = m.add<blocks::Clock>("clock", 1e-3);
  m.connect_event(clock, clock.event_out(), sense, sense.event_in());
  m.connect_event(sense, sense.done_event_out(), ctrl, ctrl.event_in());
  m.connect_event(ctrl, ctrl.done_event_out(), act, act.event_in());
  return m;
}

struct ScenarioStats {
  std::size_t events = 0;
  double best_events_per_s = 0.0;
  std::size_t allocs_steady = 0;  // one post-warm-up run, ECSIM_ALLOC_GUARD
  bool traces_identical = false;  // two consecutive runs, operator==
};

double timed_events_per_s(sim::Simulator& s) {
  const auto t0 = std::chrono::steady_clock::now();
  s.run();
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return static_cast<double>(s.events_dispatched()) / secs;
}

/// Two consecutive runs must agree bit for bit (the second reuses every
/// warmed buffer); the third is the allocation probe; then best-of-`reps`.
ScenarioStats measure(sim::Model& m, const sim::SimOptions& opts, int reps) {
  ScenarioStats st;
  sim::Simulator s(sim::CompiledModel(m), opts);
  const sim::Trace first = s.run();  // copy: the next run() reuses the trace
  st.traces_identical = s.run() == first;
  st.events = s.events_dispatched();
  {
    testing::AllocProbe probe;
    s.run();
    st.allocs_steady = probe.allocations();
  }
  for (int r = 0; r < reps; ++r) {
    st.best_events_per_s =
        std::max(st.best_events_per_s, timed_events_per_s(s));
  }
  return st;
}

int experiment() {
  bench::banner("EXP-P4", "(hot-path memory discipline, DESIGN.md §3.4)",
                "Steady-state throughput of the workspace integrator + lane "
                "event queue, and allocations per steady-state run.");
  bench::JsonReport report("EXP-P4");
  struct Scenario {
    const char* name;
    sim::Model model;
    sim::SimOptions opts;
    std::size_t expected_events;
  };
  std::vector<Scenario> scenarios;
  {
    sim::SimOptions opts;
    opts.end_time = 1.0;
    scenarios.push_back({"chains_200", make_chains(200), opts, 601'000});
  }
  {
    sim::SimOptions opts;
    opts.end_time = 5.0;
    opts.integrator.kind = sim::IntegratorKind::kRk4;
    opts.integrator.max_step = 2e-4;
    scenarios.push_back({"servo_rk4", make_servo(), opts, 25'000});
  }
  for (Scenario& sc : scenarios) report.model_ir_hash(sc.name, sc.model);

  constexpr int kReps = 7;
  bool pass = true;
  report.begin_array("hot_path");
  std::printf("%-12s %10s %10s %15s %10s %12s\n", "scenario", "events",
              "expected", "best [ev/s]", "traces", "allocs/run");
  for (Scenario& sc : scenarios) {
    const ScenarioStats st = measure(sc.model, sc.opts, kReps);
    const bool ok = st.traces_identical && st.events == sc.expected_events;
    pass = pass && ok;
    std::printf("%-12s %10zu %10zu %15.0f %10s %12zu\n", sc.name, st.events,
                sc.expected_events, st.best_events_per_s,
                st.traces_identical ? "identical" : "DIVERGED",
                st.allocs_steady);
    report.begin_object();
    report.field("scenario", std::string(sc.name));
    report.field("events", st.events);
    report.field("expected_events", sc.expected_events);
    report.field("traces_identical",
                 std::string(st.traces_identical ? "yes" : "NO"));
    report.field("best_events_per_s", st.best_events_per_s);
    report.field("allocs_steady_state_run", st.allocs_steady);
    report.field("allocs_per_event",
                 st.events > 0 ? static_cast<double>(st.allocs_steady) /
                                     static_cast<double>(st.events)
                               : 0.0);
    report.field("pass", std::string(ok ? "yes" : "NO"));
    report.end_object();
  }
  report.end_array();
  std::printf("\nguard: identical consecutive traces + expected event counts "
              "— %s\n\n",
              pass ? "PASS" : "FAIL");
  report.write("BENCH_p4.json");
  return pass ? 0 : 1;
}

void BM_SteadyStateRun(benchmark::State& state) {
  sim::Model m = make_chains(static_cast<std::size_t>(state.range(0)));
  sim::SimOptions opts;
  opts.end_time = 1.0;
  sim::Simulator s(sim::CompiledModel(m), opts);
  s.run();  // warm capacities out of the measurement
  for (auto _ : state) {
    s.run();
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(s.events_dispatched() * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SteadyStateRun)
    ->Arg(16)
    ->Arg(200)
    ->ArgName("chains")
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const int guard = experiment();
  const int bench_rc = bench::run_benchmarks(argc, argv);
  return guard != 0 ? guard : bench_rc;
}
