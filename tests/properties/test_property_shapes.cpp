// Property: a native module depends only on the model's shape (DESIGN.md
// §3.6). On random hybrid diagrams, re-drawing every real-valued attribute
// — the private dimensions of discrete state-space blocks included — keeps
// the shape hash, reuses one compiled module, and every run stays
// bit-identical to its interpreter trace. Structural edits (a TDMA gate
// added, an event delay switched from constant to sampled) change the
// shape hash. And the EXP-N1 grid — 10 cells, each a nominal and a retuned
// loop — compiles exactly 2 modules, one per bus scenario.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "backend/native_codegen.hpp"
#include "blocks/duration_spec.hpp"
#include "blocks/to_model.hpp"
#include "obs/ledger.hpp"
#include "par/network_sweep.hpp"
#include "random_graphs.hpp"
#include "sim/build_ir.hpp"

namespace ecsim {
namespace {

namespace fs = std::filesystem;

/// Points ECSIM_NATIVE_CACHE at a fresh directory for one test.
class FreshCache {
 public:
  explicit FreshCache(const std::string& tag)
      : dir_(fs::path(::testing::TempDir()) /
             ("ecsim_shapes_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    ::setenv("ECSIM_NATIVE_CACHE", dir_.c_str(), 1);
  }
  ~FreshCache() { ::unsetenv("ECSIM_NATIVE_CACHE"); }

  std::size_t modules() const {
    std::size_t n = 0;
    for (const fs::directory_entry& e : fs::directory_iterator(dir_)) {
      if (e.path().extension() == ".so") ++n;
    }
    return n;
  }

 private:
  fs::path dir_;
};

std::string shape_of(const sim::Model& m) {
  return backend::generate_native_source(sim::build_ir(m)).shape_hash;
}

ir::Attr matrix(const char* key, std::size_t rows, std::size_t cols,
                math::Rng& rng, double lo, double hi) {
  std::vector<double> v(rows * cols);
  for (double& x : v) x = rng.uniform(lo, hi);
  return ir::Attr::of_matrix(key, rows, cols, std::move(v));
}

/// A new discrete state-space realization with the same port widths and a
/// re-drawn state dimension in 0..3 (stable: small entries).
void redraw_state_space(ir::BlockIr& b, math::Rng& rng) {
  const std::size_t m = b.in_widths.at(0);
  const std::size_t p = b.out_widths.at(0);
  const auto n = static_cast<std::size_t>(rng.uniform_int(0, 3));
  std::vector<double> x0(n);
  for (double& x : x0) x = rng.uniform(-1.0, 1.0);
  for (ir::Attr& a : b.attrs) {
    if (a.key == "a") a = matrix("a", n, n, rng, -0.3, 0.3);
    if (a.key == "b") a = matrix("b", n, m, rng, -1.0, 1.0);
    if (a.key == "c") a = matrix("c", p, n, rng, -1.0, 1.0);
    if (a.key == "d") a = matrix("d", p, m, rng, -0.5, 0.5);
    if (a.key == "x0") a = ir::Attr::of_vec("x0", x0);
  }
}

/// The same diagram with every real-valued attribute re-drawn: each block's
/// reals scaled by one factor in [0.5, 1.9] (so within-block orderings such
/// as bcet <= wcet, lo <= hi or duty < 1 stay valid), discrete state-space
/// blocks re-realized with a new state dimension.
sim::Model redraw(const ir::Model& irm, math::Rng& rng) {
  ir::Model out = irm;
  for (ir::BlockIr& b : out.blocks) {
    if (b.kind == "StateSpaceDisc") {
      redraw_state_space(b, rng);
      continue;
    }
    const double f = rng.uniform(0.5, 1.9);
    for (ir::Attr& a : b.attrs) {
      if (a.kind == ir::Attr::Kind::kReal) a.r *= f;
      if (a.kind == ir::Attr::Kind::kRealVec ||
          a.kind == ir::Attr::Kind::kMatrix) {
        for (double& v : a.vec) v *= f;
      }
    }
  }
  return blocks::to_model(out);
}

backend::RunOptions opts(backend::Kind k, std::uint64_t seed) {
  backend::RunOptions o;
  o.kind = k;
  o.sim.end_time = 0.5;
  o.sim.seed = seed;
  return o;
}

TEST(PropertyShapes, RedrawnParametersShareOneModuleBitIdentically) {
  FreshCache cache("redraw");
  std::set<std::string> shapes;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    math::Rng rng(seed);
    sim::Model base = testing::random_block_model(rng);
    const ir::Model irm = sim::build_ir(base);
    const std::string shape = shape_of(base);
    shapes.insert(shape);
    for (int variant = 0; variant < 3; ++variant) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " variant " +
                   std::to_string(variant));
      sim::Model m = variant == 0 ? blocks::to_model(irm) : redraw(irm, rng);
      EXPECT_EQ(shape_of(m), shape);
      const backend::RunResult native =
          backend::run(m, opts(backend::Kind::kNative, seed));
      ASSERT_EQ(native.used, backend::Kind::kNative)
          << "fell back: " << native.fallback_reason;
      const backend::RunResult interp =
          backend::run(m, opts(backend::Kind::kInterp, seed));
      EXPECT_EQ(native.events_dispatched, interp.events_dispatched);
      EXPECT_TRUE(native.trace == interp.trace);
    }
  }
  EXPECT_EQ(cache.modules(), shapes.size());
}

TEST(PropertyShapes, StructuralEditsChangeTheShape) {
  std::size_t delays_switched = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    math::Rng rng(seed);
    sim::Model base = testing::random_block_model(rng);
    const ir::Model irm = sim::build_ir(base);
    const std::string shape = shape_of(base);

    // A TDMA gate hung off the first clock.
    sim::Model gated = blocks::to_model(irm);
    for (std::size_t i = 0; i < irm.blocks.size(); ++i) {
      if (irm.blocks[i].kind != "Clock") continue;
      auto& gate = gated.add<blocks::TdmaGate>("tdma", 1e-3, 2, 1);
      gated.connect_event(gated.block(i), 0, gate, gate.event_in());
      break;
    }
    EXPECT_NE(shape_of(gated), shape);

    // A constant event delay turned into a sampled one.
    for (const ir::BlockIr& b : irm.blocks) {
      if (b.kind != "EventDelay" ||
          b.find("dist")->i !=
              static_cast<long long>(blocks::DurationSpec::Kind::kConstant)) {
        continue;
      }
      const double d = b.find("value")->r;
      ir::Model edited = irm;
      sim::Model tiny;
      tiny.add<blocks::EventDelay>(
          b.name, blocks::shifted_uniform_duration(d, d, aaa::block_key(0)));
      for (ir::BlockIr& e : edited.blocks) {
        if (e.name == b.name) e.attrs = sim::build_ir(tiny).blocks[0].attrs;
      }
      EXPECT_NE(shape_of(blocks::to_model(edited)), shape);
      ++delays_switched;
      break;
    }
  }
  EXPECT_GT(delays_switched, 0u);
}

// EXP-N1: five bus loads x {CAN, TDMA}, each cell a nominal and a retuned
// loop — 20 models, 2 shapes, so a cold native grid compiles 2 modules and
// still reproduces the interpreter grid exactly.
TEST(PropertyShapes, NetworkGridCompilesOneModulePerScenario) {
  FreshCache cache("network");
  sweep::NetworkGrid grid = sweep::network_servo_grid();
  par::BatchOptions batch;
  batch.threads = 2;
  const std::vector<sweep::NetworkCell> interp =
      sweep::run_network_sweep(grid, batch);

  grid.loop.backend = backend::Kind::kNative;
  const std::vector<sweep::NetworkCell> native =
      sweep::run_network_sweep(grid, batch);

  EXPECT_EQ(sweep::to_csv(native), sweep::to_csv(interp));
  EXPECT_EQ(cache.modules(), 2u);
  // The native grid's 20 runs are the ledger's newest records.
  const std::vector<obs::LedgerRecord> records =
      obs::Ledger::global().records();
  ASSERT_GE(records.size(), 20u);
  for (std::size_t i = records.size() - 20; i < records.size(); ++i) {
    EXPECT_EQ(records[i].backend_used, "native") << records[i].fallback_reason;
  }
}

}  // namespace
}  // namespace ecsim
