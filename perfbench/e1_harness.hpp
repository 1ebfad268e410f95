// Measurement scaffolding for bench_e1_flow (EXP-E1): nearest-rank
// percentiles, an FNV-1a digest over result bit patterns, a bench-side layer
// tracer that times calls into each module from outside, a cursor over the
// process run ledger, CPU pinning, scratch directories, fresh-process
// sampling and a sweep-service daemon handle.
#pragma once

#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "obs/ledger.hpp"
#include "obs/trace_json.hpp"
#include "obs/tracer.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"

namespace e1 {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- percentiles -----------------------------------------------------------

/// Nearest-rank percentile: the smallest sample with at least q·n samples at
/// or below it (0 for no samples).
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

// ---- output digest ---------------------------------------------------------

/// FNV-1a over the bit patterns of simulated statistics: a speed-only change
/// must leave it unchanged.
class Digest {
 public:
  void add_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add_bytes(&bits, sizeof bits);
  }
  void add(std::uint64_t v) { add_bytes(&v, sizeof v); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    add_bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }
  std::string hex() const {
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

// ---- layers ----------------------------------------------------------------

/// The repository's modules, as the layers the per-layer metrics name.
enum class Layer : int {
  kIo,
  kAaa,
  kTranslate,
  kSim,
  kBackend,
  kLatency,
  kControl,
  kExec,
  kPar,
  kSvc,
  kCount
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);
inline constexpr std::array<const char*, kLayers> kLayerNames = {
    "io", "aaa", "translate", "sim", "backend",
    "latency", "control", "exec", "par", "svc"};

/// Bench-side tracer. Each timed operation is one root span on the "op"
/// track; each call into a module's public function is a child span on that
/// module's track. A span's self time (its duration minus its children's)
/// is charged to its layer; the root's self time is bench work between the
/// calls, reported as unaccounted. Spans are opened and closed on one
/// thread. Disabled, every call is a single branch.
class LayerTrace {
 public:
  explicit LayerTrace(bool enabled) : tracer_(enabled ? 1u << 18 : 1u) {
    tracer_.set_enabled(enabled);
    for (std::size_t l = 0; l < kLayers; ++l) {
      track_[l] = tracer_.track(kLayerNames[l], ecsim::obs::Domain::kWall);
    }
    track_[kLayers] = tracer_.track("op", ecsim::obs::Domain::kWall);
  }
  LayerTrace(const LayerTrace&) = delete;
  LayerTrace& operator=(const LayerTrace&) = delete;

  bool enabled() const { return tracer_.enabled(); }

  void open(int layer, const char* name) {
    stack_.push_back(Open{layer, tracer_.intern(name), tracer_.now_us()});
  }

  void close() {
    const Open o = stack_.back();
    stack_.pop_back();
    const double end = tracer_.now_us();
    const double dur = end - o.start_us;
    const double self = dur - o.child_us;
    tracer_.span(o.name, track_[o.layer < 0 ? kLayers : o.layer], o.start_us,
                 end);
    if (o.layer < 0) {
      op_us_ += dur;
      unaccounted_us_ += self;
    } else {
      self_us_[o.layer] += self;
    }
    if (!stack_.empty()) stack_.back().child_us += dur;
  }

  /// Move `us` of self time already charged to `from` onto `to`: time the
  /// program measured itself inside a call (the run ledger's wall time of
  /// each backend run), read after the operation so reading it is not timed.
  void move(Layer from, Layer to, double us) {
    self_us_[static_cast<int>(from)] -= us;
    self_us_[static_cast<int>(to)] += us;
  }

  /// Worker-thread time beyond the calling thread's wall time ((threads − 1)
  /// × wall for a parallel call): charged to `to` and added to the total the
  /// shares divide by, so shares stay shares of thread time.
  void add_thread_time(Layer to, double us) {
    self_us_[static_cast<int>(to)] += us;
    extra_us_ += us;
  }

  double total_us() const { return op_us_ + extra_us_; }
  double share(Layer l) const {
    return total_us() > 0.0 ? self_us_[static_cast<int>(l)] / total_us() : 0.0;
  }
  double unaccounted_share() const {
    return total_us() > 0.0 ? unaccounted_us_ / total_us() : 0.0;
  }

  bool write_json(const std::string& path) const {
    ecsim::obs::JsonTraceWriter w;
    w.add(tracer_);
    return w.write(path);
  }

 private:
  struct Open {
    int layer = -1;  // -1: the operation's root span
    std::uint32_t name = 0;
    double start_us = 0.0;
    double child_us = 0.0;
  };
  ecsim::obs::Tracer tracer_;
  std::array<std::uint32_t, kLayers + 1> track_{};
  std::vector<Open> stack_;
  std::array<double, kLayers> self_us_{};
  double op_us_ = 0.0;
  double unaccounted_us_ = 0.0;
  double extra_us_ = 0.0;
};

/// RAII span around one call into `layer`; null or disabled trace = no-op.
class Span {
 public:
  Span(LayerTrace* t, Layer layer, const char* name)
      : t_(t != nullptr && t->enabled() ? t : nullptr) {
    if (t_ != nullptr) t_->open(static_cast<int>(layer), name);
  }
  ~Span() {
    if (t_ != nullptr) t_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerTrace* t_;
};

/// RAII root span of one timed operation.
class OpSpan {
 public:
  OpSpan(LayerTrace* t, const char* name)
      : t_(t != nullptr && t->enabled() ? t : nullptr) {
    if (t_ != nullptr) t_->open(-1, name);
  }
  ~OpSpan() {
    if (t_ != nullptr) t_->close();
  }
  OpSpan(const OpSpan&) = delete;
  OpSpan& operator=(const OpSpan&) = delete;

 private:
  LayerTrace* t_;
};

// ---- run ledger ------------------------------------------------------------

/// Reads the records backend::run appended to the process run ledger since
/// the previous take(). The in-memory ledger is a bounded ring without
/// sequence numbers, so the cursor remembers the last kTail records it saw
/// and finds that sequence again, searching from the end. (One record is not
/// enough: two runs of the same cell can take the same nanoseconds.) Copies
/// the ring: call outside timed spans.
class LedgerCursor {
 public:
  LedgerCursor() { take(); }

  std::vector<ecsim::obs::LedgerRecord> take() {
    std::vector<ecsim::obs::LedgerRecord> recs =
        ecsim::obs::Ledger::global().records();
    std::size_t from = 0;  // nothing seen yet, or seen and overwritten: all
    for (std::size_t end = recs.size(); !tail_.empty() && end >= tail_.size();
         --end) {
      if (std::equal(tail_.begin(), tail_.end(),
                     recs.begin() + static_cast<std::ptrdiff_t>(end - tail_.size()),
                     same)) {
        from = end;
        break;
      }
    }
    const std::size_t keep = std::min(recs.size(), kTail);
    tail_.assign(recs.end() - static_cast<std::ptrdiff_t>(keep), recs.end());
    recs.erase(recs.begin(),
               recs.begin() + static_cast<std::ptrdiff_t>(from));
    return recs;
  }

 private:
  static constexpr std::size_t kTail = 8;
  static bool same(const ecsim::obs::LedgerRecord& a,
                   const ecsim::obs::LedgerRecord& b) {
    return a.wall_s == b.wall_s && a.events == b.events && a.seed == b.seed &&
           a.ir_hash == b.ir_hash && a.backend_used == b.backend_used &&
           a.threads == b.threads;
  }
  std::vector<ecsim::obs::LedgerRecord> tail_;
};

/// Interpreter runs in ledger records: wall time (µs) and dispatched events,
/// plus the records whose backend differs from the requested one.
struct LedgerTotals {
  double interp_us = 0.0;
  std::uint64_t interp_events = 0;
  std::size_t fallbacks = 0;
};

inline LedgerTotals totals(const std::vector<ecsim::obs::LedgerRecord>& recs) {
  LedgerTotals t;
  for (const ecsim::obs::LedgerRecord& r : recs) {
    if (r.backend_used == "interp") {
      t.interp_us += r.wall_s * 1e6;
      t.interp_events += r.events;
    }
    if (r.backend_used != r.backend_requested) ++t.fallbacks;
  }
  return t;
}

// ---- host hygiene ----------------------------------------------------------

inline std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Pin the calling process (and every thread and child it creates later)
/// to the last `n` CPUs it is allowed on. Returns the CPUs pinned to.
inline std::vector<int> pin_to_cpus(std::size_t n) {
  std::vector<int> cpus = allowed_cpus();
  if (cpus.size() > n) {
    cpus.erase(cpus.begin(), cpus.end() - static_cast<std::ptrdiff_t>(n));
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  if (cpus.empty() || ::sched_setaffinity(0, sizeof set, &set) != 0) return {};
  return cpus;
}

inline std::string cpu_list(const std::vector<int>& cpus) {
  std::string s;
  for (int c : cpus) {
    if (!s.empty()) s += ",";
    s += std::to_string(c);
  }
  return s;
}

/// Peak resident set size (VmHWM) of a process, MB; 0 if unreadable.
/// getrusage's ru_maxrss would not do: it survives execve, so a benchmark
/// started from a larger process would report that process's peak.
inline double peak_rss_mb(const std::string& pid = "self") {
  std::FILE* f = std::fopen(("/proc/" + pid + "/status").c_str(), "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// A directory that exists for the object's lifetime and is removed with
/// everything in it (native module caches, sockets) afterwards.
class ScratchDir {
 public:
  explicit ScratchDir(std::filesystem::path path) : path_(std::move(path)) {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// Samples `fn` in fresh processes, so process-level caches (native module
/// registry, warm-model cache, ledger, allocator) start empty every time.
/// The constructor forks a sampler process while the caller is still
/// untouched; each sample() has the sampler fork one child that runs `fn`
/// and sends back the numbers it returns. Sampling on demand lets a run
/// spread its samples over its whole duration, so a burst of host noise
/// hits few of them. A child that throws or dies yields an empty vector.
class FreshSampler {
 public:
  static constexpr std::size_t kMaxValues = 16;

  explicit FreshSampler(std::function<std::vector<double>()> fn) {
    int cmd[2], res[2];
    if (::pipe(cmd) != 0) return;
    if (::pipe(res) != 0) {
      ::close(cmd[0]);
      ::close(cmd[1]);
      return;
    }
    std::fflush(nullptr);
    pid_ = ::fork();
    if (pid_ == 0) {
      ::close(cmd[1]);
      ::close(res[0]);
      serve(cmd[0], res[1], fn);
    }
    ::close(cmd[0]);
    ::close(res[1]);
    if (pid_ < 0) {
      ::close(cmd[1]);
      ::close(res[0]);
      return;
    }
    cmd_ = cmd[1];
    res_ = res[0];
  }
  ~FreshSampler() {
    if (cmd_ >= 0) ::close(cmd_);
    if (res_ >= 0) ::close(res_);
    if (pid_ > 0) ::waitpid(pid_, nullptr, 0);
  }
  FreshSampler(const FreshSampler&) = delete;
  FreshSampler& operator=(const FreshSampler&) = delete;

  std::vector<double> sample() {
    Message m;
    const char go = 1;
    if (cmd_ < 0 || ::write(cmd_, &go, 1) != 1 ||
        ::read(res_, &m, sizeof m) != sizeof m || m.count > kMaxValues) {
      return {};
    }
    return std::vector<double>(m.values, m.values + m.count);
  }

 private:
  struct Message {  // one write, below PIPE_BUF, so it arrives whole
    std::uint64_t count = 0;
    double values[kMaxValues] = {};
  };

  [[noreturn]] static void serve(int cmd, int res,
                                 const std::function<std::vector<double>()>& fn) {
    char go = 0;
    while (::read(cmd, &go, 1) == 1) {
      std::fflush(nullptr);
      const pid_t child = ::fork();
      if (child == 0) {
        Message m;
        try {
          const std::vector<double> v = fn();
          m.count = std::min<std::size_t>(v.size(), kMaxValues);
          std::copy_n(v.begin(), m.count, m.values);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "fresh-process sample failed: %s\n", e.what());
          ::_exit(1);
        }
        ::_exit(::write(res, &m, sizeof m) == sizeof m ? 0 : 1);
      }
      int status = 0;
      if (child > 0) ::waitpid(child, &status, 0);
      if (child < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        const Message empty;
        if (::write(res, &empty, sizeof empty) != sizeof empty) break;
      }
    }
    ::_exit(0);
  }

  pid_t pid_ = -1;
  int cmd_ = -1;
  int res_ = -1;
};

// ---- sweep-service daemon --------------------------------------------------

/// A forked svc::run_server daemon. Readiness is a successful connect,
/// polled every 1 ms.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Starts a daemon, stopping the previous one first. On failure no
  /// daemon is left running.
  bool start(const std::string& socket_path, std::size_t workers,
             std::size_t cache_mb) {
    stop();
    socket_path_ = socket_path;
    ::unlink(socket_path_.c_str());
    std::fflush(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ecsim::svc::ServeOptions opts;
      opts.socket_path = socket_path_;
      opts.workers = workers;
      opts.cache_mb = cache_mb;
      ::_exit(ecsim::svc::run_server(opts));
    }
    for (int i = 0; i < 5000; ++i) {
      ecsim::svc::Client probe;
      if (probe.connect(socket_path_)) return true;
      ::usleep(1000);
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
    return false;
  }

  /// Records the daemon's peak RSS, then drains it with SIGTERM; returns its
  /// exit code (-1 if it did not exit normally or none was running).
  int stop() {
    if (pid_ <= 0) return -1;
    peak_rss_mb_ = e1::peak_rss_mb(std::to_string(pid_));
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    ::unlink(socket_path_.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  double peak_rss_mb() const { return peak_rss_mb_; }

 private:
  pid_t pid_ = -1;
  std::string socket_path_;
  double peak_rss_mb_ = 0.0;
};

// ---- JSON ------------------------------------------------------------------

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Shortest round-tripping rendering of a finite double ("null" otherwise,
/// which JSON has no number for).
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace e1
