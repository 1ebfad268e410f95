// Property: every random draw is keyed by (run seed, block key, activation
// index), so a block's draws depend on neither the event interleaving nor
// the other random blocks in the model (DESIGN.md §3.11). On random hybrid
// diagrams, adding unrelated random blocks — a NoiseHold and a jittered
// EventDelay with fresh keys, both hung off existing event sources and
// feeding nothing — leaves every other block's trace bit-identical, on the
// interpreter and on the native backend alike.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "aaa/exec_time.hpp"
#include "backend/backend.hpp"
#include "blocks/event_blocks.hpp"
#include "blocks/sources.hpp"
#include "blocks/to_model.hpp"
#include "random_graphs.hpp"
#include "sim/build_ir.hpp"

namespace ecsim {
namespace {

backend::RunResult run(sim::Model& m, backend::Kind kind, std::uint64_t seed) {
  backend::RunOptions o;
  o.kind = kind;
  o.sim.end_time = 0.5;
  o.sim.seed = seed;
  backend::RunResult r = backend::run(m, o);
  EXPECT_EQ(r.used, kind) << "fell back: " << r.fallback_reason;
  return r;
}

/// `base` plus a NoiseHold driven by the first clock and a jittered
/// EventDelay driven by the last event-emitting block, both keyed outside
/// the keys random_block_model hands out. Appended, so every existing block
/// keeps its index.
sim::Model with_unrelated_draws(const sim::Model& base) {
  sim::Model m = blocks::to_model(sim::build_ir(base, "base"));
  const std::size_t n = m.num_blocks();
  std::size_t clock = n;
  std::size_t emitter = n;
  for (std::size_t i = 0; i < n; ++i) {
    const sim::Block& b = m.block(i);
    if (clock == n && dynamic_cast<const blocks::Clock*>(&b) != nullptr) {
      clock = i;
    }
    if (b.num_event_outputs() > 0 && i != clock) emitter = i;
  }
  EXPECT_LT(clock, n);
  EXPECT_LT(emitter, n);
  auto& noise = m.add<blocks::NoiseHold>("extra_noise", 0.5, 2.0,
                                         aaa::block_key(1000));
  m.connect_event(m.block(clock), 0, noise, noise.event_in());
  auto& delay = m.add<blocks::EventDelay>(
      "extra_delay", blocks::shifted_uniform_duration(
                         0.01, 0.02, aaa::block_key(1001)));
  m.connect_event(m.block(emitter), 0, delay, delay.event_in());
  return m;
}

/// The records of blocks [0, n): the trace a model without the appended
/// blocks would record.
sim::Trace first_blocks(const sim::Trace& t, std::size_t n) {
  sim::Trace out;
  for (const sim::EventRecord& e : t.events()) {
    if (e.block < n) out.record_event(e.time, e.block, e.event_in);
  }
  for (const sim::SignalRecord& s : t.signals()) {
    if (s.block < n) out.record_signal(s.time, s.block, s.values);
  }
  return out;
}

void expect_unrelated_draws_change_nothing(backend::Kind kind,
                                           std::uint64_t seeds) {
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    math::Rng rng(seed);
    sim::Model base = testing::random_block_model(rng);
    sim::Model more = with_unrelated_draws(base);
    const std::size_t n = base.num_blocks();
    const backend::RunResult a = run(base, kind, seed);
    const backend::RunResult b = run(more, kind, seed);
    // The added blocks did draw.
    std::size_t extra = 0;
    for (const sim::EventRecord& e : b.trace.events()) extra += e.block >= n;
    EXPECT_GT(extra, 0u);
    const sim::Trace kept = first_blocks(b.trace, n);
    EXPECT_EQ(kept.events(), a.trace.events());
    EXPECT_EQ(kept.signals(), a.trace.signals());
  }
}

TEST(PropertyKeyedDraws, UnrelatedRandomBlocksLeaveOtherTracesBitIdentical) {
  expect_unrelated_draws_change_nothing(backend::Kind::kInterp, 16);
}

TEST(PropertyKeyedDraws, UnrelatedRandomBlocksLeaveOtherTracesNative) {
  expect_unrelated_draws_change_nothing(backend::Kind::kNative, 3);
}

}  // namespace
}  // namespace ecsim
