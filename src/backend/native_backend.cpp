#include "backend/native_backend.hpp"

#include <dlfcn.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

extern char** environ;

// Baked in by src/CMakeLists.txt so a generated module is always built by
// the same toolchain, with the same flags, against the same headers as the
// host process — the precondition for passing sim::Trace across the ABI.
#ifndef ECSIM_NATIVE_CXX_DEFAULT
#define ECSIM_NATIVE_CXX_DEFAULT "c++"
#endif
#ifndef ECSIM_NATIVE_CXXFLAGS
#define ECSIM_NATIVE_CXXFLAGS "-O2"
#endif
#ifndef ECSIM_NATIVE_INCLUDE_DIR
#define ECSIM_NATIVE_INCLUDE_DIR "."
#endif
#ifndef ECSIM_NATIVE_RT_ARCHIVE
#define ECSIM_NATIVE_RT_ARCHIVE ""
#endif

namespace ecsim::backend {

namespace {

namespace fs = std::filesystem;

std::string env_or(const char* name, std::string fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::string(v) : std::move(fallback);
}

std::uint64_t fnv1a(std::string_view s, std::uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t stamp_file(const fs::path& p, std::uint64_t h) {
  std::error_code ec;
  const auto size = fs::file_size(p, ec);
  if (!ec) h = fnv1a(std::to_string(size), h);
  const auto mtime = fs::last_write_time(p, ec);
  if (!ec) h = fnv1a(std::to_string(mtime.time_since_epoch().count()), h);
  return h;
}

std::string tool_fingerprint(const std::string& cxx, const std::string& flags,
                             const std::string& archive) {
  std::uint64_t h = fnv1a(cxx);
  h = fnv1a(flags, h);
  h = fnv1a(archive, h);
  // Key on size + mtime of everything a module's behaviour depends on beyond
  // its own source text — the runtime archive it links against and every
  // runtime file it includes or unity-includes — so an edited or rebuilt
  // tree never resurrects a stale .so. (The generated text itself enters
  // the key as the shape hash.)
  h = stamp_file(archive, h);
  const fs::path inc = ECSIM_NATIVE_INCLUDE_DIR;
  for (const char* f : kModuleRuntimeFiles) h = stamp_file(inc / f, h);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

fs::path cache_dir() {
  const std::string dir = env_or("ECSIM_NATIVE_CACHE", std::string());
  if (!dir.empty()) return dir;
  return fs::temp_directory_path() / "ecsim_native_cache";
}

std::string tail_of(const fs::path& log, std::size_t max_bytes = 2000) {
  std::ifstream in(log);
  if (!in) return std::string();
  std::stringstream ss;
  ss << in.rdbuf();
  std::string s = ss.str();
  if (s.size() > max_bytes) s.erase(0, s.size() - max_bytes);
  return s;
}

[[noreturn]] void fail(const std::string& why) {
  throw std::runtime_error("native backend: " + why);
}

std::string tmp_suffix() { return ".tmp." + std::to_string(::getpid()); }

/// Runs `argv` (argv[0] looked up on PATH) with stdout and stderr sent to
/// `log`, without a shell: no path or flag is ever interpreted. Returns the
/// waitpid status; throws when the process cannot be started.
int spawn_and_wait(std::vector<std::string> argv, const fs::path& log) {
  std::vector<char*> args;
  for (std::string& a : argv) args.push_back(a.data());
  args.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  ::posix_spawn_file_actions_init(&actions);
  ::posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ::posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  pid_t pid = 0;
  const int rc = ::posix_spawnp(&pid, args[0], &actions, nullptr, args.data(),
                                environ);
  ::posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    fail("cannot run compiler '" + argv[0] + "': " + std::strerror(rc));
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) fail(std::string("waitpid: ") + std::strerror(errno));
  }
  return status;
}

/// Compile `src_path` into `so_path` (atomically, via a temp name). Throws
/// with the tail of the compiler log unless the compiler exits 0.
void compile_module(const std::string& cxx, const std::string& flags,
                    const std::string& archive, const fs::path& src_path,
                    const fs::path& so_path) {
  const fs::path tmp = so_path.string() + tmp_suffix();
  const fs::path log = so_path.string() + ".log";
  std::vector<std::string> argv{cxx, "-std=c++20"};
  std::istringstream words(flags);  // baked-in flags: whitespace-separated
  for (std::string w; words >> w;) argv.push_back(w);
  argv.insert(argv.end(),
              {"-shared", "-fPIC", "-I" ECSIM_NATIVE_INCLUDE_DIR,
               src_path.string(), archive, "-o", tmp.string()});
  const int status = spawn_and_wait(std::move(argv), log);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::error_code ec;
    fs::remove(tmp, ec);
    std::string msg =
        WIFEXITED(status)
            ? "compile failed (exit " + std::to_string(WEXITSTATUS(status)) + ")"
            : "compiler killed by signal " + std::to_string(WTERMSIG(status));
    const std::string t = tail_of(log);
    if (!t.empty()) msg += ":\n" + t;
    fail(msg);
  }
  std::error_code ec;
  fs::rename(tmp, so_path, ec);
  if (ec && !fs::exists(so_path)) {
    fail("cache rename failed: " + ec.message());
  }
}

NativeModule open_module(const fs::path& so_path,
                         const std::string& want_hash) {
  void* h = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (h == nullptr) {
    const char* e = ::dlerror();
    fail(std::string("dlopen failed: ") + (e != nullptr ? e : "?"));
  }
  NativeModule mod;
  mod.so_path = so_path.string();
  mod.abi = reinterpret_cast<EcsimNativeAbiFn>(::dlsym(h, "ecsim_native_abi"));
  mod.hash =
      reinterpret_cast<EcsimNativeHashFn>(::dlsym(h, "ecsim_native_hash"));
  mod.run = reinterpret_cast<EcsimNativeRunFn>(::dlsym(h, "ecsim_native_run"));
  if (mod.abi == nullptr || mod.hash == nullptr || mod.run == nullptr) {
    fail("module is missing an ecsim_native_* symbol (not an ecsim model?)");
  }
  if (mod.abi() != kNativeAbiVersion) {
    fail("ABI mismatch: module " + std::to_string(mod.abi()) + ", host " +
         std::to_string(kNativeAbiVersion));
  }
  if (want_hash != mod.hash()) {
    fail("shape hash mismatch: module " + std::string(mod.hash()) +
         ", host " + want_hash);
  }
  return mod;
}

/// Cache hit or compile, then dlopen: the work one registry entry latches.
NativeModule build_module(const NativeSource& src, const std::string& cxx,
                          const std::string& flags, const std::string& archive,
                          const fs::path& so_path) {
  if (archive.empty() || !fs::exists(archive)) {
    fail("runtime archive not found: '" + archive + "'");
  }
  const fs::path dir = so_path.parent_path();
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) fail("cannot create cache dir " + dir.string() + ": " + ec.message());

  if (!fs::exists(so_path)) {
    fs::path src_path = so_path;
    src_path.replace_extension(".cpp");
    const fs::path src_tmp = src_path.string() + tmp_suffix();
    {
      std::ofstream out(src_tmp, std::ios::trunc);
      out << src.text;
      if (!out) fail("cannot write " + src_tmp.string());
    }
    fs::rename(src_tmp, src_path, ec);
    if (ec) fail("cannot write " + src_path.string() + ": " + ec.message());
    compile_module(cxx, flags, archive, src_path, so_path);
  }
  return open_module(so_path, src.shape_hash);
}

}  // namespace

bool native_disabled() {
  const char* v = std::getenv("ECSIM_NATIVE_DISABLE");
  return v != nullptr && *v != '\0';
}

const NativeModule& load_native_module(const NativeSource& src) {
  // Process-lifetime registry, one entry per artifact, never unloaded. An
  // entry is the in-flight latch while its first caller compiles and the
  // loaded module afterwards; the registry lock is only held to look it up.
  struct Loaded {
    NativeModule mod;   // mod.run == nullptr: the load failed
    std::string error;  // ... with this message
  };
  static std::mutex mu;
  static std::map<std::string, std::shared_future<Loaded>> loaded;

  const std::string cxx = env_or("ECSIM_NATIVE_CXX", ECSIM_NATIVE_CXX_DEFAULT);
  const std::string flags = ECSIM_NATIVE_CXXFLAGS;
  const std::string archive = ECSIM_NATIVE_RT_ARCHIVE;
  const std::string key = "s" + src.shape_hash.substr(2) + "_abi" +
                          std::to_string(kNativeAbiVersion) + "_t" +
                          tool_fingerprint(cxx, flags, archive);
  const fs::path so_path = cache_dir() / (key + ".so");

  std::promise<Loaded> promise;
  std::shared_future<Loaded> entry;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu);
    auto [it, inserted] = loaded.try_emplace(so_path.string());
    if (inserted) {
      it->second = promise.get_future().share();
      owner = true;
    }
    entry = it->second;
  }
  if (owner) {
    Loaded result;
    try {
      result.mod = build_module(src, cxx, flags, archive, so_path);
    } catch (const std::exception& e) {
      result.error = e.what();
      // Drop the entry before waking the waiters: they all fail with this
      // error, and the next call compiles afresh instead of finding it.
      std::lock_guard<std::mutex> lock(mu);
      loaded.erase(so_path.string());
    }
    promise.set_value(std::move(result));
  }
  const Loaded& result = entry.get();
  // Every caller throws its own exception object. Sharing one across
  // threads (std::promise::set_exception) leaves its release to
  // libstdc++'s internal refcount, which ThreadSanitizer cannot see.
  if (result.mod.run == nullptr) throw std::runtime_error(result.error);
  return result.mod;
}

std::size_t run_native_module(const NativeModule& mod,
                              const std::vector<double>& params,
                              const sim::SimOptions& o, sim::Trace& trace,
                              const obs::NativeObsTable* obs) {
  NativeRunOptions n;
  n.end_time = o.end_time;
  n.integrator_kind = static_cast<int>(o.integrator.kind);
  n.max_step = o.integrator.max_step;
  n.rel_tol = o.integrator.rel_tol;
  n.abs_tol = o.integrator.abs_tol;
  n.min_step = o.integrator.min_step;
  n.seed = o.seed;
  n.max_events = o.max_events;
  n.full_refresh = o.full_refresh ? 1 : 0;
  n.obs = obs;
  n.params = params.data();
  n.n_params = params.size();
  std::size_t events = 0;
  char err[1024] = {0};
  if (mod.run(&n, &trace, &events, err, sizeof err) != 0) {
    throw std::runtime_error(err[0] != '\0' ? err : "native model: run failed");
  }
  return events;
}

}  // namespace ecsim::backend
