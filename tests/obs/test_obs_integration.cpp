// Integration of the obs layer with the simulation engine: the tracer's
// sim-domain instants and the metrics counters must agree exactly with the
// simulator's own event accounting, and attaching observability must not
// change the simulated behaviour (trace-identity oracle).
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "blocks/discrete.hpp"
#include "blocks/event_blocks.hpp"
#include "blocks/sources.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/compiled_model.hpp"
#include "sim/simulator.hpp"

namespace ecsim {
namespace {

sim::Model small_chain() {
  sim::Model m;
  auto& clk = m.add<blocks::Clock>("clk", 0.01);
  auto& d = m.add<blocks::EventDelay>("d", 0.001);
  auto& n = m.add<blocks::EventCounter>("n");
  m.connect_event(clk, 0, d, d.event_in());
  m.connect_event(d, d.event_out(), n, 0);
  return m;
}

TEST(ObsIntegration, InstantsAndCountersMatchDispatchCount) {
  sim::Model m = small_chain();
  obs::Tracer tracer(1u << 14);
  tracer.set_enabled(true);
  obs::MetricsRegistry metrics;
  sim::SimOptions opts{.end_time = 0.1};
  opts.tracer = &tracer;
  opts.metrics = &metrics;
  sim::Simulator s(sim::CompiledModel(m), opts);
  s.run();
  ASSERT_GT(s.events_dispatched(), 0u);
  ASSERT_EQ(tracer.dropped(), 0u);  // ring sized for the run

  const auto snap = tracer.snapshot();
  std::size_t instants = 0, spans = 0;
  const std::uint32_t trk_events = tracer.track("sim/events", obs::Domain::kSim);
  for (const obs::TraceEvent& e : snap) {
    if (e.phase == obs::Phase::kInstant && e.track == trk_events) ++instants;
    if (e.phase == obs::Phase::kSpan) ++spans;
  }
  // One sim-time instant per dispatched event.
  EXPECT_EQ(instants, s.events_dispatched());
  // Wall spans: sim.run plus one cone refresh per event (integration spans
  // only appear for stateful models).
  EXPECT_GE(spans, 1u + s.events_dispatched());
  // The run span exists by name.
  const std::uint32_t n_run = tracer.intern("sim.run");
  EXPECT_TRUE(std::any_of(snap.begin(), snap.end(), [&](const auto& e) {
    return e.phase == obs::Phase::kSpan && e.name == n_run;
  }));

  EXPECT_EQ(metrics.counter("sim.events_dispatched").value(),
            s.events_dispatched());
  EXPECT_EQ(metrics.histogram("sim.cone_refresh_size").count(),
            s.events_dispatched());
  EXPECT_GT(metrics.counter("sim.eval_calls").value(), 0u);
  EXPECT_GT(metrics.gauge("sim.queue_high_water").value(), 0.0);
  EXPECT_GT(metrics.histogram("sim.eval_calls_per_block").count(), 0u);
}

TEST(ObsIntegration, ObservedRunIsBehaviorallyIdentical) {
  sim::Model m = small_chain();
  sim::SimOptions plain{.end_time = 0.1};
  sim::Simulator bare(sim::CompiledModel(m), plain);
  const sim::Trace baseline = bare.run();

  sim::Model m2 = small_chain();
  obs::Tracer tracer;
  tracer.set_enabled(true);
  obs::MetricsRegistry metrics;
  sim::SimOptions observed = plain;
  observed.tracer = &tracer;
  observed.metrics = &metrics;
  sim::Simulator traced(sim::CompiledModel(m2), observed);
  EXPECT_TRUE(traced.run() == baseline);
}

TEST(ObsIntegration, AttachedButDisabledTracerRecordsNothing) {
  sim::Model m = small_chain();
  obs::Tracer tracer;  // enabled == false
  sim::SimOptions opts{.end_time = 0.1};
  opts.tracer = &tracer;
  sim::Simulator s(sim::CompiledModel(m), opts);
  s.run();
  EXPECT_GT(s.events_dispatched(), 0u);
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(ObsIntegration, ModelCtorTracesCompileSpan) {
  sim::Model m = small_chain();
  obs::Tracer tracer;
  tracer.set_enabled(true);
  sim::SimOptions opts{.end_time = 0.01};
  opts.tracer = &tracer;
  sim::Simulator s(m, opts);  // Model overload runs the traced compile
  const std::uint32_t n_compile = tracer.intern("sim.compile");
  const auto snap = tracer.snapshot();
  EXPECT_TRUE(std::any_of(snap.begin(), snap.end(), [&](const auto& e) {
    return e.phase == obs::Phase::kSpan && e.name == n_compile;
  }));
}

}  // namespace
}  // namespace ecsim
