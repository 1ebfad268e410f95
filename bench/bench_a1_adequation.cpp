// EXP-A1 (Section 1: "best matching ... exploring the possible
// implementations"): quality of the adequation heuristic. (a) Makespan and
// speedup vs processor count on parallel workloads; (b) ablation of the
// communication-aware selection metric on communication-heavy workloads.
// Expected shape: speedup > 1 until comm-bound; comm-aware dominates
// comm-blind. (f) Cost of the heuristic itself: wall time and nanoseconds
// per considered candidate (op, proc) — evaluated, or reused from a cached
// evaluation — on 100-800-op random DAGs over immediate, CAN and TDMA buses. (g) Cost of checking its schedules: the
// executive VM's WCET run on the same DAGs and buses, in nanoseconds per
// executed instance (ops + comms).
//
// GUARD: on the immediate, CAN and TDMA buses, ns per considered candidate
// at 800 ops is at most 2x that at 100 ops (a candidate costs O(in-degree x
// route hops), not O(|E|), and a commit re-evaluates only the ready ops it
// can affect), and every run of a graph gives the same makespan and
// candidate counts. On the CAN bus, VM ns per instance at 800 ops is at most 2x that
// at 100 ops (every communicator, CAN included, steps through its static
// transfer order, so a bus commit is O(1)); on every bus, two VM runs of a
// graph give identical instances and reproduce the schedule
// (check_wcet_conformance). Runs via
// `ctest -C bench` (bench_a1_adequation_guard); the process exits nonzero
// on failure and writes BENCH_a1.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <vector>

#include "aaa/adequation.hpp"
#include "aaa/codegen.hpp"
#include "bench_common.hpp"
#include "exec/conformance.hpp"
#include "exec/executive_vm.hpp"
#include "mathlib/rng.hpp"
#include "obs/metrics.hpp"
#include "properties/random_graphs.hpp"

using namespace ecsim;

namespace {

/// Layered fork-join workload: `width` parallel pipelines of `depth` stages
/// between one sensor and one actuator.
aaa::AlgorithmGraph fork_join(std::size_t width, std::size_t depth,
                              double wcet, double data_size) {
  aaa::AlgorithmGraph alg("forkjoin", 1.0);
  const aaa::OpId src = alg.add_simple("src", aaa::OpKind::kSensor, wcet / 10.0);
  const aaa::OpId sink =
      alg.add_simple("sink", aaa::OpKind::kActuator, wcet / 10.0);
  for (std::size_t w = 0; w < width; ++w) {
    aaa::OpId prev = src;
    for (std::size_t d = 0; d < depth; ++d) {
      std::string name = "f";
      name += std::to_string(w);
      name += '_';
      name += std::to_string(d);
      const aaa::OpId op =
          alg.add_simple(name, aaa::OpKind::kCompute, wcet);
      alg.add_dependency(prev, op, data_size);
      prev = op;
    }
    alg.add_dependency(prev, sink, data_size);
  }
  return alg;
}

enum class Bus { kImmediate, kCan, kTdma };

const char* bus_name(Bus b) {
  return b == Bus::kImmediate ? "immediate" : b == Bus::kCan ? "can" : "tdma";
}

/// The buses of perfbench's schedule_large workload: 4 procs on a 1e5
/// units/s bus (CAN: 0.5 ms blocking, 30 % background load), or 6 procs on
/// a TDMA bus with 6 owner slots of 2^-10 s.
aaa::ArchitectureGraph scaling_bus(Bus b) {
  auto arch = aaa::ArchitectureGraph::bus_architecture(
      b == Bus::kTdma ? 6 : 4, 1e5, 1e-5);
  if (b == Bus::kCan) {
    arch.set_can(0, 5e-4);
    arch.set_background_load(0, 0.3);
  }
  if (b == Bus::kTdma) arch.set_tdma(0, 0.0009765625, 6);
  return arch;
}

constexpr std::size_t kSizes[] = {100, 200, 400, 800};
constexpr int kReps = 15;
constexpr double kMaxGrowth = 2.0;

/// The random DAGs of sections (f) and (g), one per entry of kSizes.
std::vector<aaa::AlgorithmGraph> scaling_graphs() {
  std::vector<aaa::AlgorithmGraph> graphs;
  for (const std::size_t n : kSizes) {
    math::Rng rng(1000 + n);
    graphs.push_back(testing::random_dag(rng, n));
  }
  return graphs;
}

struct ScalingPoint {
  double best_ms = std::numeric_limits<double>::infinity();
  std::uint64_t candidates = 0;  // considered: evaluated + reused
  std::uint64_t reused = 0;
  double makespan = 0.0;
  bool deterministic = true;  // every run gave the same makespan and counts
};

/// Makespan and candidate counts of `alg`, from two counted runs.
ScalingPoint count_runs(const aaa::AlgorithmGraph& alg,
                        const aaa::ArchitectureGraph& arch) {
  ScalingPoint pt;
  for (int r = 0; r < 2; ++r) {
    obs::MetricsRegistry metrics;
    aaa::AdequationOptions counted;
    counted.metrics = &metrics;
    const double makespan = aaa::adequate(alg, arch, counted).makespan();
    const std::uint64_t reused =
        metrics.counter("aaa.candidates_reused").value();
    const std::uint64_t n =
        metrics.counter("aaa.candidates_evaluated").value() + reused;
    if (r == 0) {
      pt.makespan = makespan;
      pt.candidates = n;
      pt.reused = reused;
    }
    pt.deterministic = pt.deterministic && makespan == pt.makespan &&
                       n == pt.candidates && reused == pt.reused;
  }
  return pt;
}

/// One timed run without metrics, folded into `pt`.
void time_run(const aaa::AlgorithmGraph& alg,
              const aaa::ArchitectureGraph& arch, ScalingPoint& pt) {
  const auto t0 = std::chrono::steady_clock::now();
  const double makespan = aaa::adequate(alg, arch).makespan();
  pt.best_ms = std::min(pt.best_ms, std::chrono::duration<double, std::milli>(
                                        std::chrono::steady_clock::now() - t0)
                                        .count());
  pt.deterministic = pt.deterministic && makespan == pt.makespan;
}

/// Section (f) and its guard. Returns true when the guard passes.
bool scaling(bench::JsonReport& report) {
  std::printf("(f) adequation cost vs graph size (random DAGs, best of %d)\n",
              kReps);
  std::printf("%10s %6s %12s %12s %12s %14s %12s\n", "bus", "ops",
              "best [ms]", "candidates", "reused", "ns/candidate", "makespan");
  report.begin_array("scaling");
  bool pass = true;
  const std::vector<aaa::AlgorithmGraph> graphs = scaling_graphs();
  for (const Bus bus : {Bus::kImmediate, Bus::kCan, Bus::kTdma}) {
    const aaa::ArchitectureGraph arch = scaling_bus(bus);
    std::vector<ScalingPoint> points;
    for (const aaa::AlgorithmGraph& alg : graphs) {
      points.push_back(count_runs(alg, arch));
    }
    // Sizes take turns within each repetition, so a burst of host noise
    // lands on all of them rather than on one point of the ratio.
    for (int r = 0; r < kReps; ++r) {
      for (std::size_t k = 0; k < graphs.size(); ++k) {
        time_run(graphs[k], arch, points[k]);
      }
    }
    std::vector<double> ns(graphs.size());
    for (std::size_t k = 0; k < graphs.size(); ++k) {
      const ScalingPoint& pt = points[k];
      ns[k] = 1e6 * pt.best_ms / static_cast<double>(pt.candidates);
      pass = pass && pt.deterministic;
      std::printf("%10s %6zu %12.3f %12llu %12llu %14.1f %12.6f%s\n",
                  bus_name(bus), kSizes[k], pt.best_ms,
                  static_cast<unsigned long long>(pt.candidates),
                  static_cast<unsigned long long>(pt.reused), ns[k],
                  pt.makespan, pt.deterministic ? "" : "  DIVERGED");
      report.begin_object();
      report.field("bus", std::string(bus_name(bus)));
      report.field("ops", kSizes[k]);
      report.field("best_ms", pt.best_ms);
      report.field("candidates", static_cast<std::size_t>(pt.candidates));
      report.field("reused", static_cast<std::size_t>(pt.reused));
      report.field("ns_per_candidate", ns[k]);
      report.field("makespan", pt.makespan);
      report.field("deterministic",
                   std::string(pt.deterministic ? "yes" : "NO"));
      report.end_object();
    }
    const double growth = ns.back() / ns.front();
    const bool ok = growth <= kMaxGrowth;
    pass = pass && ok;
    std::printf("%10s ns/candidate %zu ops / %zu ops = %.2fx%s\n",
                bus_name(bus), kSizes[3], kSizes[0], growth,
                ok ? " (<= 2x: ok)" : " (> 2x: FAIL)");
  }
  report.end_array();
  std::printf("\nguard: ns/candidate growth <= %.0fx on immediate, CAN and "
              "TDMA, identical makespans and counts across runs — %s\n\n",
              kMaxGrowth, pass ? "PASS" : "FAIL");
  return pass;
}

/// One graph of section (g): its schedule and executives on one bus.
struct VmCase {
  const aaa::AlgorithmGraph* alg = nullptr;
  aaa::Schedule sched{0, 0};
  aaa::GeneratedCode code;
};

struct VmPoint {
  double best_ms = std::numeric_limits<double>::infinity();
  std::size_t instances = 0;  // op + comm instances of one run
  bool deterministic = true;  // two runs gave identical instances
  bool conforms = true;       // the run reproduced the schedule
};

constexpr double kVmPeriod = 12.0;

/// The run section (g) times: schedule_large's WCET check, 20 iterations at
/// a 12 s period.
exec::VmResult wcet_run(const VmCase& c, const aaa::ArchitectureGraph& arch) {
  exec::VmOptions opts;
  opts.iterations = 20;
  opts.period = kVmPeriod;
  return exec::run_executives(*c.alg, arch, c.sched, c.code, opts);
}

bool same_instances(const exec::VmResult& a, const exec::VmResult& b) {
  const auto same_op = [](const exec::OpInstance& x,
                          const exec::OpInstance& y) {
    return x.op == y.op && x.iteration == y.iteration && x.proc == y.proc &&
           x.start == y.start && x.end == y.end && x.branch == y.branch;
  };
  const auto same_comm = [](const exec::CommInstance& x,
                            const exec::CommInstance& y) {
    return x.comm == y.comm && x.iteration == y.iteration &&
           x.start == y.start && x.end == y.end;
  };
  return a.deadlock == b.deadlock &&
         std::equal(a.ops.begin(), a.ops.end(), b.ops.begin(), b.ops.end(),
                    same_op) &&
         std::equal(a.comms.begin(), a.comms.end(), b.comms.begin(),
                    b.comms.end(), same_comm);
}

/// Section (g) and its guard. Returns true when the guard passes.
bool vm_scaling(bench::JsonReport& report) {
  std::printf("(g) executive VM cost vs graph size (WCET run, 20 iterations, "
              "best of %d)\n",
              kReps);
  std::printf("%10s %6s %12s %12s %14s\n", "bus", "ops", "best [ms]",
              "instances", "ns/instance");
  report.begin_array("vm_scaling");
  bool pass = true;
  const std::vector<aaa::AlgorithmGraph> graphs = scaling_graphs();
  for (const Bus bus : {Bus::kImmediate, Bus::kCan, Bus::kTdma}) {
    const aaa::ArchitectureGraph arch = scaling_bus(bus);
    std::vector<VmCase> cases(graphs.size());
    std::vector<VmPoint> points(graphs.size());
    for (std::size_t k = 0; k < graphs.size(); ++k) {
      VmCase& c = cases[k];
      c.alg = &graphs[k];
      c.sched = aaa::adequate(graphs[k], arch);
      c.code = aaa::generate_executives(graphs[k], arch, c.sched);
      const exec::VmResult first = wcet_run(c, arch);
      points[k].instances = first.ops.size() + first.comms.size();
      points[k].deterministic =
          !first.deadlock && same_instances(first, wcet_run(c, arch));
      points[k].conforms =
          exec::check_wcet_conformance(*c.alg, arch, c.sched, first, kVmPeriod)
              .ok;
    }
    // Sizes take turns within each repetition, as in (f).
    for (int r = 0; r < kReps; ++r) {
      for (std::size_t k = 0; k < cases.size(); ++k) {
        const auto t0 = std::chrono::steady_clock::now();
        const exec::VmResult vm = wcet_run(cases[k], arch);
        points[k].best_ms = std::min(
            points[k].best_ms, std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count());
        benchmark::DoNotOptimize(vm);
      }
    }
    std::vector<double> ns(cases.size());
    for (std::size_t k = 0; k < cases.size(); ++k) {
      const VmPoint& pt = points[k];
      ns[k] = 1e6 * pt.best_ms / static_cast<double>(pt.instances);
      pass = pass && pt.deterministic && pt.conforms;
      std::printf("%10s %6zu %12.3f %12zu %14.1f%s%s\n", bus_name(bus),
                  kSizes[k], pt.best_ms, pt.instances, ns[k],
                  pt.deterministic ? "" : "  DIVERGED",
                  pt.conforms ? "" : "  NONCONFORMING");
      report.begin_object();
      report.field("bus", std::string(bus_name(bus)));
      report.field("ops", kSizes[k]);
      report.field("best_ms", pt.best_ms);
      report.field("instances", pt.instances);
      report.field("ns_per_instance", ns[k]);
      report.field("deterministic",
                   std::string(pt.deterministic ? "yes" : "NO"));
      report.field("conforms", std::string(pt.conforms ? "yes" : "NO"));
      report.end_object();
    }
    const double growth = ns.back() / ns.front();
    const bool gated = bus == Bus::kCan;
    const bool ok = !gated || growth <= kMaxGrowth;
    pass = pass && ok;
    std::printf("%10s ns/instance %zu ops / %zu ops = %.2fx%s\n",
                bus_name(bus), kSizes[3], kSizes[0], growth,
                gated ? (ok ? " (<= 2x: ok)" : " (> 2x: FAIL)") : "");
  }
  report.end_array();
  std::printf("\nguard: VM ns/instance growth <= %.0fx on CAN, identical "
              "instances across runs and WCET conformance on every bus — "
              "%s\n\n",
              kMaxGrowth, pass ? "PASS" : "FAIL");
  return pass;
}

int experiment() {
  bench::banner("EXP-A1", "Section 1 (adequation)",
                "Adequation quality: speedup vs processor count and the "
                "comm-aware vs comm-blind ablation.");
  std::printf("(a) fork-join workload (8 pipelines x 3 stages, cheap comms)\n");
  std::printf("%8s %14s %10s %12s\n", "procs", "makespan [ms]", "speedup",
              "efficiency");
  const aaa::AlgorithmGraph wide = fork_join(8, 3, 1e-3, 1.0);
  double m1 = 0.0;
  for (const std::size_t n : {1u, 2u, 3u, 4u, 6u, 8u}) {
    const auto arch = aaa::ArchitectureGraph::bus_architecture(n, 1e6, 1e-6);
    const double ms = aaa::adequate(wide, arch).makespan();
    if (n == 1) m1 = ms;
    std::printf("%8zu %14.3f %10.2f %12.2f\n", n, 1e3 * ms, m1 / ms,
                m1 / ms / static_cast<double>(n));
  }

  std::printf("\n(b) same workload, expensive comms (comm-bound regime)\n");
  std::printf("%8s %14s %10s\n", "procs", "makespan [ms]", "speedup");
  for (const std::size_t n : {1u, 2u, 4u, 8u}) {
    const auto arch = aaa::ArchitectureGraph::bus_architecture(n, 2e3, 5e-4);
    const double ms = aaa::adequate(wide, arch).makespan();
    std::printf("%8zu %14.3f %10.2f\n", n, 1e3 * ms, m1 / ms);
  }

  std::printf("\n(c) ablation: comm-aware vs comm-blind selection metric\n");
  std::printf("%10s %18s %18s %10s\n", "seed", "aware makespan", "blind makespan",
              "blind/aware");
  math::Rng rng(1234);
  double worst = 1.0, geo = 0.0;
  const int trials = 12;
  for (int t = 0; t < trials; ++t) {
    // Comm-heavy random fan-out graph.
    aaa::AlgorithmGraph alg("fan", 1.0);
    const aaa::OpId src = alg.add_simple("src", aaa::OpKind::kSensor, 1e-4);
    const int n_tasks = 10;
    for (int i = 0; i < n_tasks; ++i) {
      std::string name = "f";
      name += std::to_string(i);
      const aaa::OpId f = alg.add_simple(name, aaa::OpKind::kCompute,
                                         rng.uniform(1e-4, 8e-4));
      alg.add_dependency(src, f, rng.uniform(10.0, 80.0));
    }
    const auto arch = aaa::ArchitectureGraph::bus_architecture(4, 1e5, 2e-4);
    const double aware =
        aaa::adequate(alg, arch, {.comm_aware = true}).makespan();
    const double blind =
        aaa::adequate(alg, arch, {.comm_aware = false}).makespan();
    std::printf("%10d %18.4f %18.4f %10.3f\n", t, 1e3 * aware, 1e3 * blind,
                blind / aware);
    worst = std::max(worst, blind / aware);
    geo += std::log(blind / aware);
  }
  std::printf("geometric mean blind/aware = %.3f, worst = %.3f\n\n",
              std::exp(geo / trials), worst);

  std::printf("(d) selection-rule ablation: schedule pressure vs greedy EFT\n");
  std::printf("%10s %18s %18s %14s\n", "seed", "pressure makespan",
              "greedy makespan", "greedy/press");
  math::Rng rng2(777);
  for (int t = 0; t < 6; ++t) {
    aaa::AlgorithmGraph alg("mix", 1.0);
    const aaa::OpId src = alg.add_simple("src", aaa::OpKind::kSensor, 1e-4);
    aaa::OpId prev = src;
    for (int i = 0; i < 5; ++i) {  // a critical chain
      std::string name = "c";
      name += std::to_string(i);
      const aaa::OpId op = alg.add_simple(name, aaa::OpKind::kCompute,
                                          rng2.uniform(5e-4, 2e-3));
      alg.add_dependency(prev, op, 1.0);
      prev = op;
    }
    for (int i = 0; i < 8; ++i) {  // independent filler
      std::string name = "s";
      name += std::to_string(i);
      alg.add_simple(name, aaa::OpKind::kCompute, rng2.uniform(1e-4, 4e-4));
    }
    aaa::AdequationOptions greedy;
    greedy.rule = aaa::SelectionRule::kEarliestFinish;
    const auto arch = aaa::ArchitectureGraph::bus_architecture(2, 1e6, 1e-6);
    const double mp = aaa::adequate(alg, arch).makespan();
    const double mg = aaa::adequate(alg, arch, greedy).makespan();
    std::printf("%10d %18.4f %18.4f %14.3f\n", t, 1e3 * mp, 1e3 * mg, mg / mp);
  }

  std::printf("\n(e) TDMA bus vs immediate arbitration (fork-join, 4 procs)\n");
  std::printf("%16s %16s\n", "slot [ms]", "makespan [ms]");
  const aaa::AlgorithmGraph fj = fork_join(6, 2, 1e-3, 8.0);
  {
    const auto arch = aaa::ArchitectureGraph::bus_architecture(4, 1e4, 1e-5);
    std::printf("%16s %16.3f\n", "immediate",
                1e3 * aaa::adequate(fj, arch).makespan());
  }
  for (const double slot_ms : {0.25, 0.5, 1.0, 2.0}) {
    auto arch = aaa::ArchitectureGraph::bus_architecture(4, 1e4, 1e-5);
    arch.set_tdma(0, slot_ms * 1e-3);
    std::printf("%16.2f %16.3f\n", slot_ms,
                1e3 * aaa::adequate(fj, arch).makespan());
  }
  std::printf("\nCoarser TDMA slots add waiting before every transfer and "
              "stretch the schedule; a fine grid can occasionally steer the "
              "greedy placement to a different (even slightly better) "
              "mapping, which is itself an argument for exploring "
              "arbitration policies during the adequation.\n\n");
  bench::JsonReport report("EXP-A1");
  const bool adequation_ok = scaling(report);
  const bool vm_ok = vm_scaling(report);
  report.write("BENCH_a1.json");
  return adequation_ok && vm_ok ? 0 : 1;
}

void BM_Adequation(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  const aaa::AlgorithmGraph alg = fork_join(width, 3, 1e-3, 4.0);
  const auto arch = aaa::ArchitectureGraph::bus_architecture(4, 1e5, 1e-5);
  for (auto _ : state) {
    auto sched = aaa::adequate(alg, arch);
    benchmark::DoNotOptimize(sched);
  }
  state.SetComplexityN(static_cast<int64_t>(width * 3 + 2));
}
BENCHMARK(BM_Adequation)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Complexity();

}  // namespace

int main(int argc, char** argv) {
  const int guard = experiment();
  const int bench_rc = bench::run_benchmarks(argc, argv);
  return guard != 0 ? guard : bench_rc;
}
