// Shared random-workload generators for property tests: layered random DAGs
// (always acyclic), random bus architectures, and random hybrid block
// diagrams for the simulation engine.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "aaa/algorithm_graph.hpp"
#include "aaa/architecture_graph.hpp"
#include "aaa/exec_time.hpp"
#include "blocks/continuous.hpp"
#include "blocks/discrete.hpp"
#include "blocks/event_blocks.hpp"
#include "blocks/math_blocks.hpp"
#include "blocks/probe.hpp"
#include "blocks/sample_hold.hpp"
#include "blocks/sources.hpp"
#include "blocks/synchronization.hpp"
#include "mathlib/rng.hpp"
#include "sim/model.hpp"

namespace ecsim::testing {

inline aaa::AlgorithmGraph random_dag(math::Rng& rng, std::size_t n_ops,
                                      double period = 1.0) {
  aaa::AlgorithmGraph alg("random", period);
  std::vector<aaa::OpId> ids;
  for (std::size_t i = 0; i < n_ops; ++i) {
    aaa::Operation op;
    op.name = "op" + std::to_string(i);
    op.kind = i == 0 ? aaa::OpKind::kSensor
                     : (i + 1 == n_ops ? aaa::OpKind::kActuator
                                       : aaa::OpKind::kCompute);
    op.wcet["cpu"] = rng.uniform(1e-3, 1e-2);
    ids.push_back(alg.add_operation(std::move(op)));
  }
  // Edges only forward in index order: acyclic by construction.
  for (std::size_t j = 1; j < n_ops; ++j) {
    const std::size_t n_preds =
        1 + static_cast<std::size_t>(rng.uniform_int(0, 1));
    for (std::size_t p = 0; p < n_preds && p < j; ++p) {
      const auto from =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<long>(j) - 1));
      bool exists = false;
      for (const aaa::DataDep& d : alg.dependencies()) {
        if (d.from == ids[from] && d.to == ids[j]) exists = true;
      }
      if (!exists) {
        alg.add_dependency(ids[from], ids[j], rng.uniform(1.0, 16.0));
      }
    }
  }
  return alg;
}

inline aaa::ArchitectureGraph random_bus(math::Rng& rng,
                                         std::size_t max_procs = 4) {
  const auto n =
      static_cast<std::size_t>(rng.uniform_int(1, static_cast<long>(max_procs)));
  return aaa::ArchitectureGraph::bus_architecture(
      n, rng.uniform(1e3, 1e5), rng.uniform(0.0, 1e-4));
}

/// Random hybrid block diagram exercising every engine mechanism at once:
/// time-varying sources, feedthrough math chains, continuous states
/// (including a feedback loop through an integrator), event-clocked discrete
/// blocks, event-delay chains with random durations, sampled noise, and
/// probes in both periodic and triggered mode. Data wiring is forward-only
/// (plus feedback closed through non-feedthrough states), so the diagram is
/// always free of algebraic loops.
inline sim::Model random_block_model(math::Rng& rng) {
  namespace bl = ecsim::blocks;
  sim::Model m;
  std::size_t id = 0;
  auto name = [&](const char* stem) {
    return std::string(stem) + "_" + std::to_string(id++);
  };

  // Width-1 data outputs available for forward wiring, and live event
  // sources (block, event output port).
  std::vector<const sim::Block*> signals;
  std::vector<std::pair<const sim::Block*, std::size_t>> event_outs;
  auto any_signal = [&]() -> const sim::Block& {
    return *signals[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<long>(signals.size()) - 1))];
  };
  auto any_event = [&]() {
    return event_outs[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<long>(event_outs.size()) - 1))];
  };

  // --- sources (at least one of each flavour of time dependence) -----------
  signals.push_back(&m.add<bl::Constant>(name("const"), rng.uniform(-2.0, 2.0)));
  signals.push_back(&m.add<bl::Sine>(name("sine"), rng.uniform(0.5, 2.0),
                                     rng.uniform(0.5, 4.0),
                                     rng.uniform(0.0, 3.14)));
  signals.push_back(&m.add<bl::Step>(name("step"), 0.0, rng.uniform(0.5, 2.0),
                                     rng.uniform(0.1, 0.6)));
  if (rng.uniform(0.0, 1.0) < 0.5) {
    signals.push_back(&m.add<bl::Pulse>(name("pulse"), -1.0, 1.0,
                                        rng.uniform(0.2, 0.5), 0.5));
  }

  std::vector<const sim::Block*> clocks;
  const std::size_t n_clocks =
      1 + static_cast<std::size_t>(rng.uniform_int(0, 1));
  for (std::size_t c = 0; c < n_clocks; ++c) {
    auto& clk = m.add<bl::Clock>(name("clk"), rng.uniform(0.05, 0.2),
                                 rng.uniform(0.0, 0.05));
    clocks.push_back(&clk);
    event_outs.emplace_back(&clk, 0);
  }

  // --- continuous core: driven integrator + a closed feedback loop ---------
  {
    auto& integ = m.add<bl::Integrator>(name("integ"), rng.uniform(-1.0, 1.0));
    m.connect(any_signal(), 0, integ, 0);
    signals.push_back(&integ);

    // dx/dt = -k x: feedback through the (non-feedthrough) integrator.
    auto& fb = m.add<bl::Integrator>(name("fb"), 1.0);
    auto& fbg = m.add<bl::Gain>(name("fbg"), -rng.uniform(0.5, 2.0));
    m.connect(fb, 0, fbg, 0);
    m.connect(fbg, 0, fb, 0);
    signals.push_back(&fb);

    if (rng.uniform(0.0, 1.0) < 0.7) {
      auto& plant = m.add<bl::StateSpaceCont>(
          name("plant"), math::Matrix{{-1.0, 0.5}, {0.0, -2.0}},
          math::Matrix{{0.0}, {1.0}}, math::Matrix{{1.0, 0.0}},
          math::Matrix{{rng.uniform(0.0, 1.0) < 0.5 ? 0.3 : 0.0}});
      m.connect(any_signal(), 0, plant, 0);
      signals.push_back(&plant);
    }
  }

  // --- random feedthrough chains -------------------------------------------
  const std::size_t n_math =
      3 + static_cast<std::size_t>(rng.uniform_int(0, 4));
  for (std::size_t i = 0; i < n_math; ++i) {
    switch (rng.uniform_int(0, 3)) {
      case 0: {
        auto& g = m.add<bl::Gain>(name("gain"), rng.uniform(-2.0, 2.0));
        m.connect(any_signal(), 0, g, 0);
        signals.push_back(&g);
        break;
      }
      case 1: {
        auto& s = m.add<bl::Sum>(name("sum"), std::vector<double>{1.0, -1.0});
        m.connect(any_signal(), 0, s, 0);
        m.connect(any_signal(), 0, s, 1);
        signals.push_back(&s);
        break;
      }
      case 2: {
        auto& sat = m.add<bl::Saturation>(name("sat"), -1.5, 1.5);
        m.connect(any_signal(), 0, sat, 0);
        signals.push_back(&sat);
        break;
      }
      default: {
        auto& q = m.add<bl::Quantizer>(name("quant"), 0.125);
        m.connect(any_signal(), 0, q, 0);
        signals.push_back(&q);
        break;
      }
    }
  }

  // --- event-processing chains ---------------------------------------------
  const std::size_t n_delays =
      1 + static_cast<std::size_t>(rng.uniform_int(0, 2));
  for (std::size_t i = 0; i < n_delays; ++i) {
    // A jittered delay is uniform in [0.001, w]: a one-branch keyed
    // duration, keyed by the block's id.
    const std::uint64_t key = aaa::block_key(id);
    bl::EventDelay* d = nullptr;
    if (rng.uniform(0.0, 1.0) < 0.5) {
      d = &m.add<bl::EventDelay>(name("delay"), rng.uniform(0.001, 0.02));
    } else {
      const double w = rng.uniform(0.005, 0.03);
      d = &m.add<bl::EventDelay>(
          name("jdelay"),
          bl::keyed_duration({w}, 0.001 / w, aaa::BranchChoice::kFirst, key));
    }
    const auto [src, port] = any_event();
    m.connect_event(*src, port, *d, d->event_in());
    event_outs.emplace_back(d, d->event_out());
  }
  if (rng.uniform(0.0, 1.0) < 0.5) {
    auto& div = m.add<bl::EventDivider>(
        name("div"), 2 + static_cast<std::size_t>(rng.uniform_int(0, 2)));
    const auto [src, port] = any_event();
    m.connect_event(*src, port, div, div.event_in());
    event_outs.emplace_back(&div, div.event_out());
  }

  // --- sampled noise feeding a discrete path -------------------------------
  {
    const std::uint64_t key = aaa::block_key(id);
    auto& noise = m.add<bl::NoiseHold>(name("noise"), 0.0, 0.3, key);
    const auto [src, port] = any_event();
    m.connect_event(*src, port, noise, 0);
    event_outs.emplace_back(&noise, noise.done_event_out());
    signals.push_back(&noise);
  }

  // --- discrete (event-activated) blocks -----------------------------------
  {
    auto& sh = m.add<bl::SampleHold>(name("sh"), 1);
    m.connect(any_signal(), 0, sh, 0);
    const auto [src, port] = any_event();
    m.connect_event(*src, port, sh, sh.event_in());
    event_outs.emplace_back(&sh, sh.done_event_out());
    signals.push_back(&sh);

    auto& ctrl = m.add<bl::StateSpaceDisc>(
        name("ctrl"), math::Matrix{{rng.uniform(0.2, 0.9)}},
        math::Matrix{{1.0}}, math::Matrix{{rng.uniform(0.5, 1.5)}},
        math::Matrix{{rng.uniform(0.0, 1.0) < 0.5 ? 0.2 : 0.0}});
    m.connect(sh, 0, ctrl, 0);
    m.connect_event(sh, sh.done_event_out(), ctrl, ctrl.event_in());
    event_outs.emplace_back(&ctrl, ctrl.done_event_out());
    signals.push_back(&ctrl);

    auto& ud = m.add<bl::UnitDelay>(name("ud"), 0.0);
    m.connect(any_signal(), 0, ud, 0);
    const auto [usrc, uport] = any_event();
    m.connect_event(*usrc, uport, ud, 0);
    signals.push_back(&ud);
  }

  // --- leaves: counters, synchronization, probes ---------------------------
  {
    auto& n = m.add<bl::EventCounter>(name("count"));
    const auto [src, port] = any_event();
    m.connect_event(*src, port, n, 0);
    signals.push_back(&n);
  }
  if (event_outs.size() >= 2) {
    auto& sync = m.add<bl::Synchronization>(name("sync"), 2);
    const auto [a, ap] = any_event();
    const auto [b, bp] = any_event();
    m.connect_event(*a, ap, sync, 0);
    m.connect_event(*b, bp, sync, 1);
    auto& fired = m.add<bl::EventCounter>(name("fired"));
    m.connect_event(sync, sync.event_out(), fired, 0);
  }

  const std::size_t n_probes =
      2 + static_cast<std::size_t>(rng.uniform_int(0, 2));
  for (std::size_t i = 0; i < n_probes; ++i) {
    if (rng.uniform(0.0, 1.0) < 0.5) {
      auto& p = m.add<bl::Probe>(name("probe"), 1, rng.uniform(0.01, 0.1));
      m.connect(any_signal(), 0, p, 0);
    } else {
      auto& p = m.add<bl::Probe>(name("tprobe"), 1, 0.0);
      m.connect(any_signal(), 0, p, 0);
      const auto [src, port] = any_event();
      m.connect_event(*src, port, p, 0);
    }
  }

  return m;
}

}  // namespace ecsim::testing
