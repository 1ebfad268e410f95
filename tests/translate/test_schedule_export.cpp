#include "translate/schedule_export.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "aaa/adequation.hpp"
#include "aaa/codegen.hpp"
#include "exec/executive_vm.hpp"

namespace ecsim::translate {
namespace {

struct DistributedChain {
  aaa::AlgorithmGraph alg{"chain", 0.01};
  aaa::ArchitectureGraph arch{
      aaa::ArchitectureGraph::bus_architecture(2, 1e4, 1e-5)};
  aaa::Schedule sched{0, 0};

  DistributedChain() {
    const aaa::OpId s = alg.add_simple("sense", aaa::OpKind::kSensor, 1e-4, "P0");
    const aaa::OpId c = alg.add_simple("ctrl", aaa::OpKind::kCompute, 5e-4, "P1");
    const aaa::OpId a = alg.add_simple("act", aaa::OpKind::kActuator, 1e-4, "P0");
    alg.add_dependency(s, c, 8.0);
    alg.add_dependency(c, a, 8.0);
    sched = aaa::adequate(alg, arch);
  }
};

const obs::TimelineSlice* find_slice(const std::vector<obs::TimelineSlice>& v,
                                     const std::string& name) {
  const auto it = std::find_if(v.begin(), v.end(), [&](const auto& s) {
    return s.name == name;
  });
  return it == v.end() ? nullptr : &*it;
}

TEST(ScheduleExport, ScheduleSlicesMirrorTheGantt) {
  DistributedChain f;
  const auto slices = schedule_to_timeline(f.alg, f.arch, f.sched);
  // Three ops + two cross-processor communications.
  EXPECT_EQ(slices.size(), f.sched.ops().size() + f.sched.comms().size());

  const obs::TimelineSlice* ctrl = find_slice(slices, "ctrl");
  ASSERT_NE(ctrl, nullptr);
  EXPECT_EQ(ctrl->track, "proc/P1");
  const aaa::ScheduledOp& so = f.sched.of_op(f.alg.find("ctrl"));
  EXPECT_DOUBLE_EQ(ctrl->start, so.start);
  EXPECT_DOUBLE_EQ(ctrl->end, so.end);
  ASSERT_FALSE(ctrl->args.empty());
  EXPECT_EQ(ctrl->args[0].first, "op");

  // Communication slices carry the producer->consumer label on the medium
  // track with hop/size args.
  const obs::TimelineSlice* comm = find_slice(slices, "sense->ctrl");
  ASSERT_NE(comm, nullptr);
  EXPECT_EQ(comm->track.rfind("medium/", 0), 0u);
  EXPECT_LT(comm->start, comm->end);
  EXPECT_EQ(comm->args.size(), 2u);
  EXPECT_EQ(comm->args[0].first, "hop");
  EXPECT_EQ(comm->args[1].first, "size");
  EXPECT_DOUBLE_EQ(comm->args[1].second, 8.0);
}

TEST(ScheduleExport, VmSlicesCarryIterationsAndPrefix) {
  DistributedChain f;
  const aaa::GeneratedCode code =
      aaa::generate_executives(f.alg, f.arch, f.sched);
  obs::Tracer tracer;
  tracer.set_enabled(true);
  exec::VmOptions opts;
  opts.iterations = 3;
  opts.period = f.alg.period();
  opts.tracer = &tracer;
  opts.track_prefix = "wcet/";
  const exec::VmResult vm =
      exec::run_executives(f.alg, f.arch, f.sched, code, opts);
  ASSERT_FALSE(vm.deadlock);

  // Every instance lands as a sim-domain span on a prefixed proc/ or
  // medium/ track, with its iteration as the span's argument.
  std::size_t spans = 0;
  std::vector<double> iters;
  for (const obs::TraceEvent& e : tracer.snapshot()) {
    if (e.phase != obs::Phase::kSpan ||
        tracer.track_domain(e.track) != obs::Domain::kSim) {
      continue;
    }
    ++spans;
    const std::string& track = tracer.track_name(e.track);
    EXPECT_TRUE(track.rfind("wcet/proc/", 0) == 0 ||
                track.rfind("wcet/medium/", 0) == 0)
        << track;
    ASSERT_NE(e.arg_name, obs::kNoArg);
    EXPECT_EQ(tracer.name(e.arg_name), "iteration");
    if (tracer.name(e.name) == "act") iters.push_back(e.arg);
  }
  EXPECT_EQ(spans, vm.ops.size() + vm.comms.size());
  // 3 iterations of "act" -> three spans with iterations 0, 1, 2.
  std::sort(iters.begin(), iters.end());
  EXPECT_EQ(iters, (std::vector<double>{0.0, 1.0, 2.0}));
}

TEST(ScheduleExport, JsonFormsAreLoadableTraceDocuments) {
  DistributedChain f;
  obs::JsonTraceWriter sched_writer;
  sched_writer.add_slices(schedule_to_timeline(f.alg, f.arch, f.sched));
  const std::string sched_doc = sched_writer.str();
  EXPECT_NE(sched_doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(sched_doc.find("proc/P0"), std::string::npos);
  EXPECT_NE(sched_doc.find("\"ph\": \"X\""), std::string::npos);

  // A VM run records the same tracks live through its tracer.
  const aaa::GeneratedCode code =
      aaa::generate_executives(f.alg, f.arch, f.sched);
  obs::Tracer tracer;
  tracer.set_enabled(true);
  exec::VmOptions opts;
  opts.iterations = 1;
  opts.period = f.alg.period();
  opts.tracer = &tracer;
  const exec::VmResult vm =
      exec::run_executives(f.alg, f.arch, f.sched, code, opts);
  ASSERT_FALSE(vm.deadlock);
  obs::JsonTraceWriter vm_writer;
  vm_writer.add(tracer);
  const std::string vm_doc = vm_writer.str();
  EXPECT_NE(vm_doc.find("\"name\": \"ctrl\""), std::string::npos);
  EXPECT_NE(vm_doc.find("sense->ctrl"), std::string::npos);
  EXPECT_NE(vm_doc.find("\"iteration\""), std::string::npos);
}

TEST(ScheduleExport, VmTracerHooksRecordOpAndCommSpans) {
  DistributedChain f;
  const aaa::GeneratedCode code =
      aaa::generate_executives(f.alg, f.arch, f.sched);
  obs::Tracer tracer;
  tracer.set_enabled(true);
  obs::MetricsRegistry metrics;
  exec::VmOptions opts;
  opts.iterations = 2;
  opts.period = f.alg.period();
  opts.tracer = &tracer;
  opts.metrics = &metrics;
  opts.track_prefix = "wcet/";
  const exec::VmResult vm =
      exec::run_executives(f.alg, f.arch, f.sched, code, opts);
  ASSERT_FALSE(vm.deadlock);

  // Sim-domain spans: one per op instance + one per comm instance; plus the
  // wall-clock vm.run span.
  const auto snap = tracer.snapshot();
  std::size_t sim_spans = 0;
  for (const obs::TraceEvent& e : snap) {
    if (e.phase == obs::Phase::kSpan &&
        tracer.track_domain(e.track) == obs::Domain::kSim) {
      ++sim_spans;
      EXPECT_EQ(tracer.track_name(e.track).rfind("wcet/", 0), 0u);
    }
  }
  EXPECT_EQ(sim_spans, vm.ops.size() + vm.comms.size());
  EXPECT_EQ(metrics.counter("exec.ops_executed").value(), vm.ops.size());
  EXPECT_EQ(metrics.counter("exec.comms_executed").value(), vm.comms.size());
  EXPECT_GT(metrics.counter("exec.wcet_lookups").value(), 0u);
}

}  // namespace
}  // namespace ecsim::translate
