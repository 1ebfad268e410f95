#include "exec/executive_vm.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "aaa/adequation.hpp"
#include "exec/conformance.hpp"
#include "mathlib/rng.hpp"
#include "obs/tracer.hpp"
#include "properties/random_graphs.hpp"
#include "support/fnv.hpp"

namespace ecsim::exec {
namespace {

struct DistributedChain {
  AlgorithmGraph alg{"chain", 0.01};
  ArchitectureGraph arch{
      aaa::ArchitectureGraph::bus_architecture(2, 1e4, 1e-5)};
  Schedule sched{0, 0};
  GeneratedCode code;

  DistributedChain() {
    const aaa::OpId s = alg.add_simple("sense", aaa::OpKind::kSensor, 1e-4, "P0");
    const aaa::OpId c = alg.add_simple("ctrl", aaa::OpKind::kCompute, 5e-4, "P1");
    const aaa::OpId a = alg.add_simple("act", aaa::OpKind::kActuator, 1e-4, "P0");
    alg.add_dependency(s, c, 8.0);
    alg.add_dependency(c, a, 8.0);
    sched = aaa::adequate(alg, arch);
    code = aaa::generate_executives(alg, arch, sched);
  }
};

// Digests of the generated executives and of a WCET VM run over multi-hop
// routes (store-and-forward through P1 and P3, CAN on the last link). The
// executives' digest was re-captured once each recv moved to just before its
// consumer and each send to just after its producer (DESIGN.md §3.11); the
// WCET run's digest, captured once CAN ran its communicator sequence in
// static order, did not move with it. Pins the last-hop recv placement in
// generate_executives and the previous-hop wiring of the VM's
// communicators.
TEST(ExecutiveVm, MultiHopExecutivesAndRunMatchCapturedDigests) {
  math::Rng rng(9);
  const AlgorithmGraph alg = testing::random_dag(rng, 120);
  ArchitectureGraph arch("chain");
  for (int p = 0; p < 5; ++p) arch.add_processor("P" + std::to_string(p));
  const aaa::MediumId a = arch.add_medium("a", 1e5, 1e-5);
  const aaa::MediumId b = arch.add_medium("b", 5e4, 2e-5);
  const aaa::MediumId c = arch.add_medium("c", 2e5, 1e-5);
  arch.set_can(c, 1e-4);
  arch.attach(0, a);
  arch.attach(1, a);
  arch.attach(1, b);
  arch.attach(2, b);
  arch.attach(3, b);
  arch.attach(3, c);
  arch.attach(4, c);
  const Schedule sched = aaa::adequate(alg, arch);
  ASSERT_TRUE(std::any_of(
      sched.comms().begin(), sched.comms().end(),
      [](const aaa::ScheduledComm& sc) { return sc.hop_index >= 2; }));
  const GeneratedCode code = aaa::generate_executives(alg, arch, sched);
  testing::Fnv1a src;
  src.add(code.source);

  VmOptions opts;
  opts.iterations = 4;
  opts.period = 4.0 * sched.makespan();
  const VmResult vm = run_executives(alg, arch, sched, code, opts);
  const ConformanceReport rep =
      check_wcet_conformance(alg, arch, sched, vm, opts.period);
  ASSERT_TRUE(rep.ok) << rep.violations;
  testing::Fnv1a run;
  for (const OpInstance& oi : vm.ops) {
    run.add(static_cast<std::uint64_t>(oi.op));
    run.add(oi.start);
    run.add(oi.end);
  }
  for (const CommInstance& ci : vm.comms) {
    run.add(static_cast<std::uint64_t>(ci.comm));
    run.add(ci.start);
    run.add(ci.end);
  }
  EXPECT_EQ(src.value(), 0x5c2993264319922full);
  EXPECT_EQ(run.value(), 0xa9583ffb0aa6f262ull);
}

/// Folds everything a VM run reports: op and comm instances, injections,
/// fault counters and the deadlock text.
void add_run(testing::Fnv1a& h, const VmResult& vm) {
  for (const OpInstance& oi : vm.ops) {
    h.add(static_cast<std::uint64_t>(oi.op));
    h.add(static_cast<std::uint64_t>(oi.iteration));
    h.add(static_cast<std::uint64_t>(oi.proc));
    h.add(oi.start);
    h.add(oi.end);
    h.add(static_cast<std::uint64_t>(oi.branch));
  }
  for (const CommInstance& ci : vm.comms) {
    h.add(static_cast<std::uint64_t>(ci.comm));
    h.add(static_cast<std::uint64_t>(ci.iteration));
    h.add(ci.start);
    h.add(ci.end);
  }
  for (const fault::Injection& in : vm.injections) {
    h.add(static_cast<std::uint64_t>(in.kind));
    h.add(static_cast<std::uint64_t>(in.fault));
    h.add(static_cast<std::uint64_t>(in.comm));
    h.add(static_cast<std::uint64_t>(in.op));
    h.add(static_cast<std::uint64_t>(in.iteration));
    h.add(in.at);
  }
  for (const std::size_t n :
       {vm.messages_lost, vm.messages_delayed, vm.messages_duplicated,
        vm.op_overruns, vm.node_stalls, vm.stale_reads, vm.cycles_skipped}) {
    h.add(static_cast<std::uint64_t>(n));
  }
  h.add(static_cast<std::uint64_t>(vm.deadlock));
  h.add(vm.deadlock_info);
}

/// Runs the executives, checks the run is live and keeps every processor's
/// order, and folds it into `h`.
void run_and_fold(testing::Fnv1a& h, const AlgorithmGraph& alg,
                  const ArchitectureGraph& arch, const Schedule& sched,
                  const GeneratedCode& code, const VmOptions& opts) {
  const VmResult vm = run_executives(alg, arch, sched, code, opts);
  ASSERT_FALSE(vm.deadlock) << vm.deadlock_info;
  const ConformanceReport order =
      check_order_preservation(alg, arch, sched, vm);
  ASSERT_TRUE(order.ok) << order.violations;
  add_run(h, vm);
}

/// The same for an exact-WCET run, which must also reproduce the schedule.
void run_wcet_and_fold(testing::Fnv1a& h, const AlgorithmGraph& alg,
                       const ArchitectureGraph& arch, const Schedule& sched,
                       const GeneratedCode& code, const VmOptions& opts) {
  const VmResult vm = run_executives(alg, arch, sched, code, opts);
  const ConformanceReport rep =
      check_wcet_conformance(alg, arch, sched, vm, opts.period);
  ASSERT_TRUE(rep.ok) << rep.violations;
  add_run(h, vm);
}

// Digests of VM runs over CAN buses. The WCET runs have their own digest,
// captured once CAN ran its communicator sequences in the schedule's static
// order (DESIGN.md §3.10); the runs below WCET were re-captured once every
// execution time and CAN blocking wait became a keyed draw (DESIGN.md
// §3.11). They pin the CAN blocking charge before each start, background
// load, loss propagation across CAN hops and the tracks a traced run writes.
TEST(ExecutiveVm, CanStaticOrderMatchesCapturedDigests) {
  struct Bus {
    double blocking;
    double load;
    std::uint64_t wcet;
    std::uint64_t below_wcet;
  };
  const Bus buses[] = {
      {0.0, 0.0, 0x1f655b4b967a1b8aull, 0xaed6aff1b419b933ull},
      {0.0, 0.3, 0xabb51f22e9a88bb2ull, 0x0e5b35f59bbea214ull},
      {5e-4, 0.0, 0x10fdacb79710e3e1ull, 0xcdb1af51beaf86bdull},
      {5e-4, 0.3, 0xbec07e5b64623b64ull, 0x2f5cdd5046b0966aull}};
  for (const Bus& bus : buses) {
    auto arch = aaa::ArchitectureGraph::bus_architecture(4, 1e5, 1e-5);
    arch.set_can(0, bus.blocking);
    arch.set_background_load(0, bus.load);
    testing::Fnv1a wcet;
    testing::Fnv1a below;
    for (const std::size_t n : {8u, 24u, 64u, 150u, 400u}) {
      math::Rng rng(500 + n);
      const AlgorithmGraph alg = testing::random_dag(rng, n);
      const Schedule sched = aaa::adequate(alg, arch);
      const GeneratedCode code = aaa::generate_executives(alg, arch, sched);
      VmOptions opts;
      opts.iterations = 4;
      opts.period = sched.makespan();
      run_wcet_and_fold(wcet, alg, arch, sched, code, opts);
      // Shorter than the makespan: iterations overlap, so frames of the
      // next iteration are signalled while the bus still serves this one.
      opts.period = 0.75 * sched.makespan();
      opts.bcet_fraction = 0.3;
      opts.seed = n;
      run_and_fold(below, alg, arch, sched, code, opts);
    }
    EXPECT_EQ(wcet.value(), bus.wcet)
        << "blocking " << bus.blocking << " load " << bus.load;
    EXPECT_EQ(below.value(), bus.below_wcet)
        << "blocking " << bus.blocking << " load " << bus.load;
  }

  // Multi-hop routes with CAN on the middle and last links, under message
  // loss, delay and duplication, overruns and a node outage.
  math::Rng rng(9);
  const AlgorithmGraph alg = testing::random_dag(rng, 120);
  ArchitectureGraph arch("chain");
  for (int p = 0; p < 5; ++p) arch.add_processor("P" + std::to_string(p));
  const aaa::MediumId a = arch.add_medium("a", 1e5, 1e-5);
  const aaa::MediumId b = arch.add_medium("b", 5e4, 2e-5);
  const aaa::MediumId c = arch.add_medium("c", 2e5, 1e-5);
  arch.set_can(b, 5e-5);
  arch.set_can(c, 1e-4);
  arch.attach(0, a);
  arch.attach(1, a);
  arch.attach(1, b);
  arch.attach(2, b);
  arch.attach(3, b);
  arch.attach(3, c);
  arch.attach(4, c);
  const Schedule sched = aaa::adequate(alg, arch);
  const GeneratedCode code = aaa::generate_executives(alg, arch, sched);
  VmOptions opts;
  opts.iterations = 6;
  opts.period = sched.makespan();
  opts.bcet_fraction = 0.3;
  opts.seed = 11;
  opts.fault_plan.message_loss("a", 0.1)
      .message_loss("b", 0.15)
      .message_loss("c", 0.1)
      .message_delay("b", 0.2, 2e-4)
      .message_duplicate("c", 0.2)
      .op_overrun("op7", 0.5, 2.0)
      .node_stop("P3", 0.2 * sched.makespan(), 0.4 * sched.makespan());
  const std::pair<fault::DegradationPolicy, std::uint64_t> policies[] = {
      {fault::DegradationPolicy::kHoldLastSample, 0x8e72592103b988a0ull},
      {fault::DegradationPolicy::kSkipCycle, 0x303af28fc697533aull}};
  for (const auto& [policy, expected] : policies) {
    opts.fault_policy = policy;
    testing::Fnv1a h;
    run_and_fold(h, alg, arch, sched, code, opts);
    EXPECT_EQ(h.value(), expected) << "policy " << static_cast<int>(policy);
  }

  // One traced run: every sim-domain event, by name and track name.
  {
    auto can = aaa::ArchitectureGraph::bus_architecture(4, 1e5, 1e-5);
    can.set_can(0, 5e-4);
    math::Rng g(77);
    const AlgorithmGraph dag = testing::random_dag(g, 60);
    const Schedule s = aaa::adequate(dag, can);
    const GeneratedCode gc = aaa::generate_executives(dag, can, s);
    obs::Tracer tracer;
    VmOptions traced;
    traced.iterations = 3;
    traced.period = s.makespan();
    traced.bcet_fraction = 0.3;
    traced.tracer = &tracer;
    testing::Fnv1a h;
    run_and_fold(h, dag, can, s, gc, traced);
    for (const obs::TraceEvent& e : tracer.snapshot()) {
      if (tracer.track_domain(e.track) != obs::Domain::kSim) continue;
      h.add(tracer.name(e.name));
      h.add(tracer.track_name(e.track));
      h.add(static_cast<std::uint64_t>(e.phase));
      h.add(e.ts);
      h.add(e.dur);
      h.add(e.arg);
    }
    EXPECT_EQ(tracer.dropped(), 0u);
    EXPECT_EQ(h.value(), 0x18b340dc5745e0a8ull);
  }
}

TEST(ExecutiveVm, CanBlockingIsChargedInFullAtWcetAndDrawnBelow) {
  // sense -> ctrl -> act over one CAN bus without background load: each
  // frame starts once the blocking behind background traffic has passed —
  // all of it at WCET, the keyed draw aaa::can_wait_key(comm) below.
  DistributedChain f;
  const double blocking = 3e-4;
  f.arch.set_can(0, blocking);
  const Schedule sched = aaa::adequate(f.alg, f.arch);
  const GeneratedCode code = aaa::generate_executives(f.alg, f.arch, sched);
  for (const double fraction : {1.0, 0.5}) {
    VmOptions opts;
    opts.iterations = 6;
    opts.period = f.alg.period();
    opts.seed = 23;
    opts.bcet_fraction = fraction;
    const VmResult vm = run_executives(f.alg, f.arch, sched, code, opts);
    ASSERT_FALSE(vm.deadlock) << vm.deadlock_info;
    ASSERT_EQ(vm.comms.size(), 2 * opts.iterations);
    for (const CommInstance& ci : vm.comms) {
      const OpId from =
          f.alg.dependencies()[sched.comms()[ci.comm].dep_index].from;
      const double sent = vm.completions(from).at(ci.iteration);
      const double wait =
          fraction < 1.0
              ? aaa::draw_exec_time(std::vector<double>{blocking}, 0.0,
                                    BranchChoice::kFirst, opts.seed,
                                    aaa::can_wait_key(ci.comm), ci.iteration)
                    .duration
              : blocking;
      EXPECT_NEAR(ci.start, sent + wait, 1e-12)
          << "comm " << ci.comm << " iteration " << ci.iteration;
    }
  }
}

TEST(ExecutiveVm, SingleIterationMatchesScheduleUnderWcet) {
  DistributedChain f;
  VmOptions opts;
  opts.iterations = 1;
  opts.period = f.alg.period();
  const VmResult vm = run_executives(f.alg, f.arch, f.sched, f.code, opts);
  ASSERT_FALSE(vm.deadlock) << vm.deadlock_info;
  ASSERT_EQ(vm.ops.size(), 3u);
  for (const OpInstance& oi : vm.ops) {
    const aaa::ScheduledOp& so = f.sched.of_op(oi.op);
    EXPECT_NEAR(oi.start, so.start, 1e-12) << f.alg.op(oi.op).name;
    EXPECT_NEAR(oi.end, so.end, 1e-12) << f.alg.op(oi.op).name;
  }
}

TEST(ExecutiveVm, PeriodicIterationsShiftByPeriod) {
  DistributedChain f;
  VmOptions opts;
  opts.iterations = 5;
  opts.period = f.alg.period();
  const VmResult vm = run_executives(f.alg, f.arch, f.sched, f.code, opts);
  ASSERT_FALSE(vm.deadlock);
  const auto ends = vm.completions(f.alg.find("act"));
  ASSERT_EQ(ends.size(), 5u);
  const aaa::Time first = f.sched.of_op(f.alg.find("act")).end;
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_NEAR(ends[k], first + 0.01 * static_cast<double>(k), 1e-12);
  }
}

TEST(ExecutiveVm, ShorterExecutionTimesNeverLater) {
  DistributedChain f;
  VmOptions wcet_opts;
  wcet_opts.iterations = 10;
  wcet_opts.period = f.alg.period();
  const VmResult wcet = run_executives(f.alg, f.arch, f.sched, f.code, wcet_opts);
  VmOptions fast_opts = wcet_opts;
  fast_opts.bcet_fraction = 0.3;
  fast_opts.seed = 42;
  const VmResult fast = run_executives(f.alg, f.arch, f.sched, f.code, fast_opts);
  ASSERT_FALSE(fast.deadlock);
  const auto w = wcet.completions(f.alg.find("act"));
  const auto q = fast.completions(f.alg.find("act"));
  ASSERT_EQ(w.size(), q.size());
  for (std::size_t k = 0; k < w.size(); ++k) {
    EXPECT_LE(q[k], w[k] + 1e-12);  // WCET prediction is an upper bound
  }
}

TEST(ExecutiveVm, SensorWaitsForPeriodRelease) {
  DistributedChain f;
  VmOptions opts;
  opts.iterations = 3;
  opts.period = 0.01;
  opts.bcet_fraction = 0.1;  // lots of slack
  const VmResult vm = run_executives(f.alg, f.arch, f.sched, f.code, opts);
  const auto starts = vm.starts(f.alg.find("sense"));
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_NEAR(starts[0], 0.00, 1e-12);
  EXPECT_NEAR(starts[1], 0.01, 1e-12);
  EXPECT_NEAR(starts[2], 0.02, 1e-12);
}

TEST(ExecutiveVm, FreeRunningWithoutPeriodPipelines) {
  DistributedChain f;
  VmOptions opts;
  opts.iterations = 3;
  opts.period = 0.0;  // no release gating
  const VmResult vm = run_executives(f.alg, f.arch, f.sched, f.code, opts);
  ASSERT_FALSE(vm.deadlock);
  const auto ends = vm.completions(f.alg.find("act"));
  // Iterations back-to-back: total < 3 periods of the gated case.
  EXPECT_LT(ends.back(), 0.01);
}

TEST(ExecutiveVm, ConditionalBranchesChangeDuration) {
  AlgorithmGraph alg("cond", 0.01);
  aaa::Operation s;
  s.name = "sense";
  s.kind = aaa::OpKind::kSensor;
  s.wcet["cpu"] = 1e-4;
  const aaa::OpId sid = alg.add_operation(std::move(s));
  aaa::Operation mode;
  mode.name = "mode";
  mode.kind = aaa::OpKind::kCompute;
  mode.branches = {aaa::Branch{"fast", {{"cpu", 1e-4}}},
                   aaa::Branch{"slow", {{"cpu", 4e-3}}}};
  const aaa::OpId mid = alg.add_operation(std::move(mode));
  alg.add_dependency(sid, mid, 1.0);
  const auto arch = aaa::ArchitectureGraph::bus_architecture(1, 1.0);
  const Schedule sched = aaa::adequate(alg, arch);
  const GeneratedCode code = aaa::generate_executives(alg, arch, sched);

  VmOptions opts;
  opts.iterations = 200;
  opts.period = 0.01;
  opts.branch = BranchChoice::kUniform;
  opts.seed = 3;
  const VmResult vm = run_executives(alg, arch, sched, code, opts);
  ASSERT_FALSE(vm.deadlock);
  // Some iterations fast, some slow: completion latitude varies.
  double min_d = 1e9, max_d = -1e9;
  for (const OpInstance& oi : vm.ops) {
    if (oi.op != mid) continue;
    min_d = std::min(min_d, oi.end - oi.start);
    max_d = std::max(max_d, oi.end - oi.start);
  }
  EXPECT_NEAR(min_d, 1e-4, 1e-12);
  EXPECT_NEAR(max_d, 4e-3, 1e-12);
}

TEST(ExecutiveVm, CompletionsAndStartsFilterByOp) {
  DistributedChain f;
  VmOptions opts;
  opts.iterations = 2;
  opts.period = 0.01;
  const VmResult vm = run_executives(f.alg, f.arch, f.sched, f.code, opts);
  EXPECT_EQ(vm.completions(f.alg.find("ctrl")).size(), 2u);
  EXPECT_EQ(vm.starts(f.alg.find("sense")).size(), 2u);
  EXPECT_TRUE(vm.completions(99).empty());
}

TEST(ExecutiveVm, DetectsDeadlockInCorruptedCode) {
  DistributedChain f;
  GeneratedCode bad = f.code;
  // Remove the send from P0's program: P1 waits forever for y.
  for (auto& prog : bad.programs) {
    std::erase_if(prog.instrs, [](const aaa::Instr& ins) {
      return ins.kind == aaa::InstrKind::kSend;
    });
  }
  VmOptions opts;
  opts.iterations = 1;
  opts.period = 0.01;
  const VmResult vm = run_executives(f.alg, f.arch, f.sched, bad, opts);
  EXPECT_TRUE(vm.deadlock);
  EXPECT_FALSE(vm.deadlock_info.empty());
}

}  // namespace
}  // namespace ecsim::exec
