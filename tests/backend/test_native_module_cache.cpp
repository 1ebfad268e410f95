// Native module cache (DESIGN.md §3.6): loads latch per shape and compile
// concurrently across shapes, a failed compile reaches every waiter and is
// retried by the next call instead of poisoning the entry, a module refuses
// a parameter table that does not fit its shape, the compiler is spawned
// without a shell, so no cache path is ever interpreted, and the cache key
// stamps every runtime file a module is built from.
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "backend/backend.hpp"
#include "backend/native_backend.hpp"
#include "backend/native_codegen.hpp"
#include "blocks/discrete.hpp"
#include "blocks/event_blocks.hpp"
#include "blocks/probe.hpp"
#include "blocks/sources.hpp"
#include "sim/build_ir.hpp"

namespace {

using namespace ecsim;
namespace fs = std::filesystem;

/// Sets an environment variable for one scope, restoring the old value.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

/// An empty directory private to this process.
fs::path fresh_dir(const std::string& tag) {
  const fs::path d = fs::path(::testing::TempDir()) /
                     ("ecsim_module_cache_" + tag + "_" +
                      std::to_string(::getpid()));
  fs::remove_all(d);
  fs::create_directories(d);
  return d;
}

std::size_t count_files(const fs::path& dir, const char* extension) {
  std::size_t n = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == extension) ++n;
  }
  return n;
}

std::size_t count_modules(const fs::path& dir) {
  return count_files(dir, ".so");
}

/// clock -> delay -> [TDMA gate] -> counter, plus a periodic probe on the
/// counter. `period`/`delay` are parameters; `gated` changes the shape.
sim::Model timed_chain(double period, double delay, bool gated) {
  sim::Model m;
  auto& clk = m.add<blocks::Clock>("clk", period);
  auto& d = m.add<blocks::EventDelay>("d", delay);
  auto& n = m.add<blocks::EventCounter>("n");
  auto& p = m.add<blocks::Probe>("p", 1, period / 3.0);
  m.connect_event(clk, 0, d, d.event_in());
  if (gated) {
    auto& g = m.add<blocks::TdmaGate>("gate", 2e-3, 2, 1);
    m.connect_event(d, d.event_out(), g, g.event_in());
    m.connect_event(g, g.event_out(), n, 0);
  } else {
    m.connect_event(d, d.event_out(), n, 0);
  }
  m.connect(n, 0, p, 0);
  return m;
}

/// The targets of the quoted #include lines of a C++ text, in order.
std::vector<std::string> quoted_includes(const std::string& text) {
  const std::string tag = "#include \"";
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    const std::size_t at = line.find_first_not_of(" \t");
    if (at == std::string::npos || line.compare(at, tag.size(), tag) != 0) {
      continue;
    }
    const std::size_t from = at + tag.size();
    out.push_back(line.substr(from, line.find('"', from) - from));
  }
  return out;
}

backend::RunOptions native_opts(backend::Kind k = backend::Kind::kNative) {
  backend::RunOptions o;
  o.kind = k;
  o.sim.end_time = 0.2;
  return o;
}

// Four threads, two shapes (two parameterisations each): exactly one module
// per shape, and every native trace equals its interpreter trace.
TEST(NativeModuleCache, ConcurrentLoadsCompileEachShapeOnce) {
  const fs::path dir = fresh_dir("concurrent");
  ScopedEnv cache("ECSIM_NATIVE_CACHE", dir.string());
  std::vector<sim::Model> models;
  models.push_back(timed_chain(1e-2, 1e-3, false));
  models.push_back(timed_chain(7e-3, 2.5e-3, false));
  models.push_back(timed_chain(1e-2, 1e-3, true));
  models.push_back(timed_chain(9e-3, 0.5e-3, true));

  std::vector<backend::RunResult> native(models.size());
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < models.size(); ++i) {
      threads.emplace_back(
          [&, i] { native[i] = backend::run(models[i], native_opts()); });
    }
    for (std::thread& t : threads) t.join();
  }
  for (std::size_t i = 0; i < models.size(); ++i) {
    SCOPED_TRACE("model " + std::to_string(i));
    ASSERT_EQ(native[i].used, backend::Kind::kNative)
        << "fell back: " << native[i].fallback_reason;
    const backend::RunResult interp =
        backend::run(models[i], native_opts(backend::Kind::kInterp));
    EXPECT_EQ(native[i].events_dispatched, interp.events_dispatched);
    EXPECT_TRUE(native[i].trace == interp.trace);
  }
  EXPECT_EQ(count_modules(dir), 2u);
}

// A compiler that always fails: every concurrent caller falls back with the
// same toolchain reason, and the entry is gone afterwards — the next call
// for the same key spawns the compiler again instead of replaying the
// failure, and a working compiler then builds the module.
TEST(NativeModuleCache, FailedCompileReachesEveryWaiterAndIsRetried) {
  const fs::path dir = fresh_dir("failing");
  ScopedEnv cache("ECSIM_NATIVE_CACHE", dir.string());
  // One model per thread: the interpreter fallback mutates block state.
  std::vector<sim::Model> models;
  for (int i = 0; i < 4; ++i) {
    models.push_back(timed_chain(1e-2, 1.5e-3, false));
  }

  std::vector<backend::RunResult> results(models.size());
  {
    ScopedEnv cxx("ECSIM_NATIVE_CXX", "false");
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < results.size(); ++i) {
      threads.emplace_back(
          [&, i] { results[i] = backend::run(models[i], native_opts()); });
    }
    for (std::thread& t : threads) t.join();
    for (const backend::RunResult& r : results) {
      EXPECT_EQ(r.used, backend::Kind::kInterp);
      EXPECT_EQ(r.fallback_reason.rfind("toolchain: ", 0), 0u)
          << r.fallback_reason;
      EXPECT_EQ(r.fallback_reason, results[0].fallback_reason);
    }
    EXPECT_EQ(count_modules(dir), 0u);

    // Same key again: each compile leaves a log, so a fresh log proves the
    // compiler ran again rather than the failure being served from memory.
    for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
      if (e.path().extension() == ".log") fs::remove(e.path());
    }
    const backend::RunResult again = backend::run(models[1], native_opts());
    EXPECT_EQ(again.fallback_reason, results[0].fallback_reason);
    EXPECT_EQ(count_files(dir, ".log"), 1u);
  }

  const backend::RunResult retried = backend::run(models[0], native_opts());
  ASSERT_EQ(retried.used, backend::Kind::kNative)
      << "fell back: " << retried.fallback_reason;
  EXPECT_TRUE(retried.trace == results[0].trace);
  EXPECT_EQ(count_modules(dir), 1u);
}

// ABI v3: a module consumes its parameter table exactly, so a table of any
// other length fails the run with a message instead of being misread.
TEST(NativeModuleCache, MismatchedParameterTableFailsTheRun) {
  const fs::path dir = fresh_dir("params");
  ScopedEnv cache("ECSIM_NATIVE_CACHE", dir.string());
  sim::Model m = timed_chain(1e-2, 1e-3, false);
  const backend::NativeSource src =
      backend::generate_native_source(sim::build_ir(m));
  const backend::NativeModule& mod = backend::load_native_module(src);
  sim::SimOptions o;
  o.end_time = 0.1;
  sim::Trace trace;
  EXPECT_GT(backend::run_native_module(mod, src.params, o, trace), 0u);

  std::vector<double> longer = src.params;
  longer.push_back(0.0);
  std::vector<double> shorter(src.params.begin(), src.params.end() - 1);
  for (const std::vector<double>* table : {&longer, &shorter}) {
    try {
      backend::run_native_module(mod, *table, o, trace);
      ADD_FAILURE() << "a table of " << table->size() << " values ran";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("parameter table does not fit"),
                std::string::npos)
          << e.what();
    }
  }
}

// The cache key stamps exactly backend::kModuleRuntimeFiles. A runtime file
// a module includes but the list misses would let a cached .so outlive an
// edit to that file, so the list must hold every quoted include of a
// generated source and, transitively, of every file on the list.
TEST(NativeModuleCache, StampListCoversEveryIncludedRuntimeFile) {
  const std::set<std::string> stamped(backend::kModuleRuntimeFiles.begin(),
                                      backend::kModuleRuntimeFiles.end());
  sim::Model m = timed_chain(1e-2, 1e-3, true);
  const backend::NativeSource src =
      backend::generate_native_source(sim::build_ir(m));
  const std::vector<std::string> direct = quoted_includes(src.text);
  EXPECT_EQ(direct.size(), stamped.size());
  for (const std::string& inc : direct) {
    EXPECT_EQ(stamped.count(inc), 1u) << "generated source includes " << inc;
  }
  for (const std::string& file : stamped) {
    std::ifstream in(fs::path(ECSIM_SOURCE_DIR) / file);
    ASSERT_TRUE(in) << "cannot read " << file;
    std::stringstream text;
    text << in.rdbuf();
    for (const std::string& inc : quoted_includes(text.str())) {
      EXPECT_EQ(stamped.count(inc), 1u) << file << " includes " << inc;
    }
  }
}

// Regression: the compiler used to run through std::system with naive
// quoting, so a cache dir holding `"`, `$(...)` or a backtick broke the
// command or ran the embedded command in a shell.
TEST(NativeModuleCache, CompilesWithoutAShell) {
  const fs::path base = fresh_dir("quoting");
  const fs::path dir = base / "a\"b$(touch pwned)`touch pwned2`";
  sim::Model m = timed_chain(1e-2, 2e-3, false);
  const fs::path cwd = fs::current_path();
  fs::current_path(base);  // where a shell would have created `pwned`
  std::optional<backend::RunResult> r;
  {
    ScopedEnv cache("ECSIM_NATIVE_CACHE", dir.string());
    r = backend::run(m, native_opts());
  }
  fs::current_path(cwd);
  ASSERT_EQ(r->used, backend::Kind::kNative)
      << "fell back: " << r->fallback_reason;
  EXPECT_TRUE(r->trace ==
              backend::run(m, native_opts(backend::Kind::kInterp)).trace);
  EXPECT_EQ(count_modules(dir), 1u);
  EXPECT_FALSE(fs::exists(base / "pwned"));
  EXPECT_FALSE(fs::exists(base / "pwned2"));
}

}  // namespace
