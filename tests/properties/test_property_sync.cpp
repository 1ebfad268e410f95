// Property sweep of the Synchronization block (EXP-S1): for every input
// arity and many random event interleavings, the block must fire exactly
// when a reference AND-join model says it should, and reset afterwards.
#include <gtest/gtest.h>

#include <vector>

#include "blocks/discrete.hpp"
#include "blocks/event_blocks.hpp"
#include "blocks/sources.hpp"
#include "blocks/synchronization.hpp"
#include "mathlib/rng.hpp"
#include "sim/simulator.hpp"

namespace ecsim::blocks {
namespace {

class SyncProperty : public ::testing::TestWithParam<std::size_t> {};

// Drive a Synchronization block with randomized per-input event trains and
// compare its firing count/instants against a scalar reference model.
TEST_P(SyncProperty, MatchesReferenceAndJoin) {
  const std::size_t n = GetParam();
  math::Rng rng(1000 + n);
  for (int trial = 0; trial < 10; ++trial) {
    // Random event instants per input.
    std::vector<std::vector<sim::Time>> trains(n);
    std::vector<std::pair<sim::Time, std::size_t>> all;
    for (std::size_t i = 0; i < n; ++i) {
      const int count = static_cast<int>(rng.uniform_int(1, 6));
      sim::Time t = 0.0;
      for (int k = 0; k < count; ++k) {
        t += rng.uniform(0.01, 0.5);
        trains[i].push_back(t);
        all.emplace_back(t, i);
      }
    }
    // Reference: process events in time order, fire when all flags set.
    std::sort(all.begin(), all.end());
    std::vector<bool> flags(n, false);
    std::vector<sim::Time> expected_fires;
    for (const auto& [t, i] : all) {
      flags[i] = true;
      if (std::all_of(flags.begin(), flags.end(), [](bool b) { return b; })) {
        expected_fires.push_back(t);
        std::fill(flags.begin(), flags.end(), false);
      }
    }

    // Simulated: one TimetableClock-like EventDelay chain per input is
    // overkill; use one Clock per event via per-input TimetableClock.
    sim::Model m;
    auto& sync = m.add<Synchronization>("sync", n);
    auto& counter = m.add<EventCounter>("fires");
    m.connect_event(sync, sync.event_out(), counter, 0);
    for (std::size_t i = 0; i < n; ++i) {
      // Feed each train through chained EventDelays anchored at t=0.
      const sim::Block* prev = nullptr;
      sim::Time prev_t = 0.0;
      for (sim::Time t : trains[i]) {
        std::string name = "d";
        name += std::to_string(i);
        name += '_';
        name += std::to_string(trial);
        name += '_';
        name += std::to_string(t);
        auto& d = m.add<EventDelay>(name, t - prev_t);
        if (prev == nullptr) {
          // Kick off with a one-shot: a clock with huge period fires at 0.
          auto& kick = m.add<Clock>("kick" + d.name(), 1e9);
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
    const auto fired = s.trace().activation_times_by_name("fires");
    ASSERT_EQ(fired.size(), expected_fires.size())
        << "n=" << n << " trial=" << trial;
    for (std::size_t k = 0; k < fired.size(); ++k) {
      EXPECT_NEAR(fired[k], expected_fires[k], 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Arity, SyncProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u, 8u));

}  // namespace
}  // namespace ecsim::blocks
