// FaultPlan / ArmedFaultPlan: builder semantics, arming-time validation,
// the pure-function determinism contract and its subset-coupling corollary
// (DESIGN.md §3.5).
#include <gtest/gtest.h>

#include "aaa/adequation.hpp"
#include "fault/comm_gate.hpp"
#include "fault/fault_plan.hpp"

namespace ecsim::fault {
namespace {

struct Fixture {
  aaa::AlgorithmGraph alg{"t", 0.01};
  aaa::ArchitectureGraph arch{aaa::ArchitectureGraph::bus_architecture(2, 1e5)};
  aaa::Schedule sched{0, 0};

  Fixture() {
    aaa::Operation sense;
    sense.name = "sense";
    sense.kind = aaa::OpKind::kSensor;
    sense.wcet["cpu"] = 2e-4;
    sense.bound_processor = "P0";
    const aaa::OpId s = alg.add_operation(std::move(sense));
    aaa::Operation ctrl;
    ctrl.name = "ctrl";
    ctrl.kind = aaa::OpKind::kCompute;
    ctrl.wcet["cpu"] = 1e-3;
    ctrl.bound_processor = "P1";
    const aaa::OpId c = alg.add_operation(std::move(ctrl));
    aaa::Operation act;
    act.name = "act";
    act.kind = aaa::OpKind::kActuator;
    act.wcet["cpu"] = 2e-4;
    act.bound_processor = "P0";
    const aaa::OpId a = alg.add_operation(std::move(act));
    alg.add_dependency(s, c, 8.0);
    alg.add_dependency(c, a, 8.0);
    sched = aaa::adequate(alg, arch);
  }
};

TEST(FaultPlan, BuilderChainsAndWindowAppliesToLastFault) {
  FaultPlan plan;
  plan.message_loss("bus", 0.1)
      .message_delay("bus", 0.5, 0.002)
      .window(0.1, 0.3);
  ASSERT_EQ(plan.faults.size(), 2u);
  EXPECT_EQ(plan.faults[0].t_start, 0.0);  // loss: unrestricted
  EXPECT_EQ(plan.faults[1].t_start, 0.1);  // delay: windowed
  EXPECT_EQ(plan.faults[1].t_stop, 0.3);
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(FaultPlan{}.empty());
}

TEST(FaultPlan, WindowWithoutFaultThrows) {
  FaultPlan plan;
  EXPECT_THROW(plan.window(0.0, 1.0), std::logic_error);
}

TEST(FaultPlan, ArmingValidatesParameters) {
  Fixture f;
  {
    FaultPlan p;
    p.message_loss("bus", 1.5);  // probability out of range
    EXPECT_THROW(ArmedFaultPlan(p, f.alg, f.arch, f.sched),
                 std::invalid_argument);
  }
  {
    FaultPlan p;
    p.message_delay("bus", 0.5, -1e-3);  // negative delay
    EXPECT_THROW(ArmedFaultPlan(p, f.alg, f.arch, f.sched),
                 std::invalid_argument);
  }
  {
    FaultPlan p;
    p.op_overrun("ctrl", 0.5, 0.5);  // factor < 1
    EXPECT_THROW(ArmedFaultPlan(p, f.alg, f.arch, f.sched),
                 std::invalid_argument);
  }
  {
    FaultPlan p;
    p.message_duplicate("bus", 0.5, 0);  // zero copies
    EXPECT_THROW(ArmedFaultPlan(p, f.alg, f.arch, f.sched),
                 std::invalid_argument);
  }
  {
    FaultPlan p;
    p.message_loss("bus", 0.1).window(0.5, 0.5);  // empty window
    EXPECT_THROW(ArmedFaultPlan(p, f.alg, f.arch, f.sched),
                 std::invalid_argument);
  }
}

TEST(FaultPlan, UnknownTargetNamesThrowAtArming) {
  Fixture f;
  {
    FaultPlan p;
    p.message_loss("no-such-medium", 0.1);
    EXPECT_THROW(ArmedFaultPlan(p, f.alg, f.arch, f.sched), std::exception);
  }
  {
    FaultPlan p;
    p.op_overrun("no-such-op", 0.1, 2.0);
    EXPECT_THROW(ArmedFaultPlan(p, f.alg, f.arch, f.sched), std::exception);
  }
  {
    FaultPlan p;
    p.node_stop("no-such-proc", 0.0, 0.1);
    EXPECT_THROW(ArmedFaultPlan(p, f.alg, f.arch, f.sched), std::exception);
  }
}

TEST(FaultPlan, DecisionsArePureFunctionsOfCoordinates) {
  Fixture f;
  FaultPlan p;
  p.seed = 42;
  p.message_loss("bus", 0.3);
  const ArmedFaultPlan a(p, f.alg, f.arch, f.sched);
  const ArmedFaultPlan b(p, f.alg, f.arch, f.sched);
  ASSERT_GE(f.sched.comms().size(), 2u);
  // Query `a` forward and `b` backward over both comms: coordinate-wise the
  // answers must agree regardless of query order or interleaving.
  std::vector<bool> fwd, bwd(2 * 64);
  for (std::size_t it = 0; it < 64; ++it) {
    fwd.push_back(a.comm_effect(0, it).lost);
    fwd.push_back(a.comm_effect(1, it).lost);
  }
  for (std::size_t it = 64; it-- > 0;) {
    bwd[2 * it + 1] = b.comm_effect(1, it).lost;
    bwd[2 * it] = b.comm_effect(0, it).lost;
  }
  EXPECT_EQ(fwd, bwd);
}

TEST(CommGate, DecisionsMatchCapturedBits) {
  // One loss and one delay entry over 64 iterations. The bit masks were
  // captured before the decision stream became math::keyed_rng; every
  // engine replays them, so they must never move.
  CommGate g;
  g.seed = 0x9e3779b97f4a7c15ULL;
  g.period = 0.01;
  g.comm_index = 3;
  g.transfer_duration = 1e-4;
  CommGateEntry loss;
  loss.fault = 0;
  loss.kind = CommGateEntry::Kind::kLoss;
  loss.probability = 0.3;
  CommGateEntry delay;
  delay.fault = 2;
  delay.kind = CommGateEntry::Kind::kDelay;
  delay.probability = 0.5;
  delay.delay = 1e-3;
  g.entries = {loss, delay};
  std::uint64_t lost = 0;
  std::uint64_t deferred = 0;
  for (std::size_t k = 0; k < 64; ++k) {
    const CommGateAction a = comm_gate_decide(g, k);
    if (a.drop) lost |= std::uint64_t{1} << k;
    if (a.defer > 0.0) deferred |= std::uint64_t{1} << k;
  }
  EXPECT_EQ(lost, 0x0400054620dc1026ull);
  EXPECT_EQ(deferred, 0x52db6a1940234510ull);
}

TEST(FaultPlan, SubsetCouplingAcrossProbabilities) {
  // Same seed: every instance lost at p=0.05 must also be lost at p=0.3.
  Fixture f;
  FaultPlan lo, hi;
  lo.seed = hi.seed = 7;
  lo.message_loss("bus", 0.05);
  hi.message_loss("bus", 0.3);
  const ArmedFaultPlan alo(lo, f.alg, f.arch, f.sched);
  const ArmedFaultPlan ahi(hi, f.alg, f.arch, f.sched);
  std::size_t lost_lo = 0, lost_hi = 0;
  for (std::size_t ci = 0; ci < f.sched.comms().size(); ++ci) {
    for (std::size_t it = 0; it < 256; ++it) {
      const bool l = alo.comm_effect(ci, it).lost;
      const bool h = ahi.comm_effect(ci, it).lost;
      if (l) {
        EXPECT_TRUE(h) << "comm " << ci << " iter " << it;
      }
      lost_lo += l;
      lost_hi += h;
    }
  }
  EXPECT_GT(lost_lo, 0u);
  EXPECT_GT(lost_hi, lost_lo);
}

TEST(FaultPlan, WindowsUseNominalIterationInstants) {
  Fixture f;  // period 0.01
  FaultPlan p;
  p.message_loss("bus", 1.0).window(0.05, 0.08);  // iterations 5,6,7
  const ArmedFaultPlan armed(p, f.alg, f.arch, f.sched);
  for (std::size_t it = 0; it < 12; ++it) {
    EXPECT_EQ(armed.comm_effect(0, it).lost, it >= 5 && it < 8) << it;
  }
}

TEST(FaultPlan, EmptyTargetMatchesEveryEntity) {
  Fixture f;
  FaultPlan p;
  p.message_loss("", 1.0);
  const ArmedFaultPlan armed(p, f.alg, f.arch, f.sched);
  for (std::size_t ci = 0; ci < f.sched.comms().size(); ++ci) {
    EXPECT_TRUE(armed.comm_effect(ci, 0).lost);
  }
}

TEST(FaultPlan, OpOverrunFactorsMultiply) {
  Fixture f;
  FaultPlan p;
  p.op_overrun("ctrl", 1.0, 2.0);
  p.op_overrun("ctrl", 1.0, 3.0);
  const ArmedFaultPlan armed(p, f.alg, f.arch, f.sched);
  std::size_t fi = aaa::kNone;
  EXPECT_DOUBLE_EQ(armed.op_factor(f.alg.find("ctrl"), 0, &fi), 6.0);
  EXPECT_EQ(fi, 0u);
  EXPECT_DOUBLE_EQ(armed.op_factor(f.alg.find("sense"), 0), 1.0);
}

TEST(FaultPlan, NodeReleaseSkipsOutageWindowsToAFixedPoint) {
  Fixture f;
  FaultPlan p;
  p.node_stop("P1", 0.02, 0.03);
  p.node_stop("P1", 0.03, 0.05);  // abutting window: must chain through
  const ArmedFaultPlan armed(p, f.alg, f.arch, f.sched);
  const aaa::ProcId p1 = f.arch.find_processor("P1");
  EXPECT_TRUE(armed.node_has_outages(p1));
  EXPECT_FALSE(armed.node_has_outages(f.arch.find_processor("P0")));
  EXPECT_DOUBLE_EQ(armed.node_release(p1, 0.01), 0.01);  // before outage
  EXPECT_DOUBLE_EQ(armed.node_release(p1, 0.025), 0.05);  // chained
  EXPECT_DOUBLE_EQ(armed.node_release(p1, 0.05), 0.05);   // at restart
}

TEST(FaultPlan, ToStringRendersEveryKind) {
  FaultPlan p;
  p.message_loss("bus", 0.1)
      .message_delay("bus", 0.2, 0.001)
      .message_duplicate("bus", 0.3, 2)
      .op_overrun("ctrl", 0.4, 2.5)
      .node_stop("P1", 0.1, 0.2);
  const std::string s = to_string(p);
  EXPECT_NE(s.find("message-loss"), std::string::npos);
  EXPECT_NE(s.find("message-delay"), std::string::npos);
  EXPECT_NE(s.find("message-duplicate"), std::string::npos);
  EXPECT_NE(s.find("op-overrun"), std::string::npos);
  EXPECT_NE(s.find("node-stop"), std::string::npos);
  EXPECT_NE(to_string(FaultPlan{}).find("fault-free"), std::string::npos);
}

// Canonical plan hash (the ledger's fault_plan_hash annotation): stable
// under recomputation, zero for the empty plan, sensitive to every field.
TEST(FaultPlan, HashIsCanonicalAndFieldSensitive) {
  EXPECT_EQ(hash(FaultPlan{}), 0u);

  auto base = [] {
    FaultPlan p;
    p.seed = 42;
    p.message_loss("bus", 0.1).message_delay("bus", 0.2, 0.001);
    return p;
  };
  const std::uint64_t h = hash(base());
  EXPECT_NE(h, 0u);
  EXPECT_EQ(hash(base()), h);  // pure function of the plan

  {
    FaultPlan p = base();
    p.seed = 43;
    EXPECT_NE(hash(p), h);
  }
  {
    FaultPlan p = base();
    p.faults[0].probability = 0.11;
    EXPECT_NE(hash(p), h);
  }
  {
    FaultPlan p = base();
    p.faults[1].delay = 0.002;
    EXPECT_NE(hash(p), h);
  }
  {
    FaultPlan p = base();
    p.faults[0].target = "net";
    EXPECT_NE(hash(p), h);
  }
  // Order matters (the plan is an ordered program of faults).
  {
    FaultPlan p;
    p.seed = 42;
    p.message_delay("bus", 0.2, 0.001).message_loss("bus", 0.1);
    EXPECT_NE(hash(p), h);
  }
}

}  // namespace
}  // namespace ecsim::fault
