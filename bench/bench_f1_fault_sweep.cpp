// EXP-FT1: robustness of the servo loop under deterministic fault injection
// (DESIGN.md §3.5). Three claims are asserted, not just printed:
//   (1) zero-fault transparency — the sweep's (loss 0, delay 0) cell is
//       bit-identical to a fault-free run_distributed_loop, and an armed
//       plan whose faults all have probability 0 leaves the executive VM
//       trace bit-identical to a run with no plan at all;
//   (2) monotone degradation — down the delay=0 column, control cost and
//       the number of lost frames never decrease with the loss rate (the
//       subset-coupling property of fault_plan.hpp: one seed, nested loss
//       sets);
//   (3) determinism — the whole grid is bit-identical at 1 and 4 threads.
// The measured grid and the dropout study go to BENCH_f1.json.
#include <cstring>

#include "aaa/codegen.hpp"
#include "bench_common.hpp"
#include "exec/executive_vm.hpp"
#include "par/fault_sweep.hpp"

using namespace ecsim;

namespace {

translate::DistributedSpec dist_spec() {
  translate::DistributedSpec dist;
  dist.bind_ctrl = "P1";  // controller across the bus: real message traffic
  return dist;
}

sweep::FaultGrid workload() {
  sweep::FaultGrid grid;
  grid.loop = bench::servo_loop();
  grid.dist = dist_spec();
  grid.loss_rates = {0.0, 0.05, 0.1, 0.2, 0.4};
  grid.delays = {0.0, 0.001, 0.002};
  grid.fault_seed = 1;
  return grid;
}

bool vm_traces_identical(const exec::VmResult& a, const exec::VmResult& b) {
  if (a.ops.size() != b.ops.size() || a.comms.size() != b.comms.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    if (std::memcmp(&a.ops[i], &b.ops[i], sizeof(exec::OpInstance)) != 0) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.comms.size(); ++i) {
    if (std::memcmp(&a.comms[i], &b.comms[i], sizeof(exec::CommInstance)) !=
        0) {
      return false;
    }
  }
  return true;
}

bool cells_identical(const std::vector<sweep::FaultCell>& a,
                     const std::vector<sweep::FaultCell>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].cost != b[i].cost || a[i].iae != b[i].iae ||
        a[i].messages_lost != b[i].messages_lost ||
        a[i].messages_deferred != b[i].messages_deferred ||
        a[i].stable != b[i].stable) {
      return false;
    }
  }
  return true;
}

/// Claim (1b): a probability-0 plan arms every hook yet must not perturb a
/// single bit of the VM trace.
bool check_vm_transparency() {
  const translate::LoopSpec loop = bench::servo_loop();
  const translate::DistributedSpec dist = dist_spec();
  const aaa::AlgorithmGraph alg = translate::make_loop_algorithm(loop, dist);
  const aaa::Schedule sched = aaa::adequate(alg, dist.arch, dist.adequation);
  const aaa::GeneratedCode code =
      aaa::generate_executives(alg, dist.arch, sched);

  exec::VmOptions opts;
  opts.iterations = 50;
  opts.period = loop.ts;
  opts.bcet_fraction = 0.5;
  const exec::VmResult plain =
      exec::run_executives(alg, dist.arch, sched, code, opts);

  exec::VmOptions armed = opts;
  armed.fault_plan.message_loss("", 0.0);
  armed.fault_plan.message_delay("", 0.0, 0.005);
  armed.fault_plan.op_overrun("", 0.0, 4.0);
  const exec::VmResult faulted =
      exec::run_executives(alg, dist.arch, sched, code, armed);
  return vm_traces_identical(plain, faulted) && faulted.injections.empty();
}

int experiment() {
  bench::banner("EXP-FT1", "DESIGN.md §3.5",
                "Fault-injection robustness sweep of the DC-servo loop: "
                "loss-rate × delivery-delay grid, zero-fault transparency, "
                "monotone degradation, thread-count determinism.");
  const sweep::FaultGrid grid = workload();

  par::BatchOptions serial;
  serial.threads = 1;
  const std::vector<sweep::FaultCell> cells =
      sweep::run_fault_sweep(grid, serial);
  std::printf("%s\n",
              sweep::heatmap(cells, grid.loss_rates, grid.delays, "loss rate",
                             "delay (s)", &sweep::FaultCell::cost,
                             "control cost under message faults")
                  .c_str());

  // Claim (1): zero-fault transparency.
  const translate::CosimOutcome clean =
      translate::run_distributed_loop(grid.loop, grid.dist);
  const sweep::FaultCell& zero = cells[0];
  const bool cosim_transparent =
      zero.cost == clean.cost && zero.iae == clean.iae &&
      zero.ise == clean.ise && zero.itae == clean.itae &&
      zero.messages_lost == 0 && zero.messages_deferred == 0;
  const bool vm_transparent = check_vm_transparency();
  std::printf("zero-fault cell == fault-free co-simulation: %s\n",
              cosim_transparent ? "yes" : "NO");
  std::printf("p=0 plan leaves VM trace bit-identical:      %s\n",
              vm_transparent ? "yes" : "NO");

  // Claim (2): monotone degradation down the delay=0 column.
  bool monotone = true;
  const std::size_t cols = grid.delays.size();
  for (std::size_t r = 1; r < grid.loss_rates.size(); ++r) {
    const sweep::FaultCell& prev = cells[(r - 1) * cols];
    const sweep::FaultCell& cur = cells[r * cols];
    const double prev_cost = prev.stable ? prev.cost : 1e300;
    const double cur_cost = cur.stable ? cur.cost : 1e300;
    if (cur_cost < prev_cost || cur.messages_lost < prev.messages_lost) {
      monotone = false;
      std::printf("** NON-MONOTONE at loss %.3g -> %.3g **\n",
                  prev.loss_rate, cur.loss_rate);
    }
  }
  std::printf("cost and losses monotone in the loss rate:   %s\n",
              monotone ? "yes" : "NO");

  // Claim (3): thread-count determinism of the whole grid.
  par::BatchOptions four;
  four.threads = 4;
  const bool deterministic =
      cells_identical(cells, sweep::run_fault_sweep(grid, four));
  std::printf("grid bit-identical at 1 and 4 threads:       %s\n\n",
              deterministic ? "yes" : "NO");

  // Dropout distribution at a fixed rate (the Monte Carlo face of §3.5).
  sweep::FaultMonteCarloSpec mc;
  mc.loop = grid.loop;
  mc.dist = grid.dist;
  mc.loss_rate = 0.2;
  mc.trials = 16;
  const sweep::FaultMonteCarloResult dropout =
      sweep::run_fault_monte_carlo(mc, serial);
  std::printf("%s\n", sweep::to_string(dropout).c_str());

  bench::JsonReport report("EXP-FT1");
  report.model_ir_hash("servo_loop",
                       ir::hash_hex(translate::loop_ir(grid.loop)));
  report.begin_array("fault_sweep");
  for (const sweep::FaultCell& c : cells) {
    report.begin_object();
    report.field("loss_rate", c.loss_rate);
    report.field("delay", c.delay);
    report.field("cost", c.cost);
    report.field("iae", c.iae);
    report.field("messages_lost", c.messages_lost);
    report.field("messages_deferred", c.messages_deferred);
    report.field("stable", std::string(c.stable ? "true" : "false"));
    report.end_object();
  }
  report.end_array();
  report.begin_array("dropout_study");
  report.begin_object();
  report.field("loss_rate", dropout.loss_rate);
  report.field("trials", dropout.trials);
  report.field("cost_mean", dropout.cost.mean);
  report.field("cost_stddev", dropout.cost.stddev);
  report.field("cost_max", dropout.cost.max);
  report.field("iae_mean", dropout.iae.mean);
  report.field("messages_lost_mean", dropout.messages_lost.mean);
  report.field("unstable_trials", dropout.unstable_trials);
  report.end_object();
  report.end_array();
  report.begin_array("checks");
  report.begin_object();
  report.field("zero_fault_cosim_identical",
               std::string(cosim_transparent ? "true" : "false"));
  report.field("zero_fault_vm_identical",
               std::string(vm_transparent ? "true" : "false"));
  report.field("monotone_degradation",
               std::string(monotone ? "true" : "false"));
  report.field("thread_deterministic",
               std::string(deterministic ? "true" : "false"));
  report.end_object();
  report.end_array();
  report.write("BENCH_f1.json");

  return cosim_transparent && vm_transparent && monotone && deterministic
             ? 0
             : 1;
}

void BM_FaultSweepCell(benchmark::State& state) {
  sweep::FaultGrid grid = workload();
  grid.loop.t_end = 0.2;
  grid.loss_rates = {static_cast<double>(state.range(0)) / 100.0};
  grid.delays = {0.0};
  par::BatchOptions serial;
  serial.threads = 1;
  for (auto _ : state) {
    auto cells = sweep::run_fault_sweep(grid, serial);
    benchmark::DoNotOptimize(cells);
  }
}
BENCHMARK(BM_FaultSweepCell)->Arg(0)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_ArmedPlanDecisions(benchmark::State& state) {
  const translate::LoopSpec loop = bench::servo_loop();
  const translate::DistributedSpec dist = dist_spec();
  const aaa::AlgorithmGraph alg = translate::make_loop_algorithm(loop, dist);
  const aaa::Schedule sched = aaa::adequate(alg, dist.arch, dist.adequation);
  fault::FaultPlan plan;
  plan.message_loss("", 0.1);
  plan.message_delay("", 0.1, 0.001);
  const fault::ArmedFaultPlan armed(plan, alg, dist.arch, sched);
  std::size_t iter = 0;
  for (auto _ : state) {
    auto eff = armed.comm_effect(iter % sched.comms().size(), iter);
    benchmark::DoNotOptimize(eff);
    ++iter;
  }
}
BENCHMARK(BM_ArmedPlanDecisions);

}  // namespace

int main(int argc, char** argv) {
  const int rc = experiment();
  if (rc != 0) return rc;
  return bench::run_benchmarks(argc, argv);
}
