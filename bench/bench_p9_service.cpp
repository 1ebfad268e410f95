// EXP-P9 — the sweep service (DESIGN.md §3.9): what does a persistent
// daemon with a warm-model cache and memoized results buy over cold
// in-process runs, and does multi-process sharding preserve the bit-equality
// contract?
//
// Three measurements, stamped into BENCH_p9.json:
//   1. A 10k-request mixed workload (single-cell timing/arch/fault requests,
//      60% repeats of earlier keys) against a live daemon: request-latency
//      p50/p99 and the served hit rate.
//   2. Warm-vs-cold p50: the same workload's latencies split by the daemon's
//      own served_from_cache stamp. GUARD: warm p50 must be >= 5x faster.
//   3. Bit-equality: a canonical timing grid served by daemons at
//      --workers=1|2|4 must be byte-identical to the serial in-process
//      reference on every cell. GUARD: any mismatch fails the run.
// Exits nonzero on guard failure — wired into `ctest -C bench`
// (bench_p9_service_guard).
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mathlib/rng.hpp"
#include "svc/client.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/warm_cache.hpp"

namespace {

using namespace ecsim;

constexpr std::size_t kRequests = 10000;
constexpr std::size_t kUniqueKeys = 4000;  // => 60% of requests repeat a key
constexpr double kTEnd = 0.25;             // short horizon: ~1 ms per cell
constexpr double kMinWarmSpeedup = 5.0;

struct Daemon {
  pid_t pid = -1;
  std::string socket_path;

  bool start(std::size_t workers) {
    socket_path = "/tmp/ecsim_bench_p9_" + std::to_string(::getpid()) + "_" +
                  std::to_string(workers) + ".sock";
    ::unlink(socket_path.c_str());
    pid = ::fork();
    if (pid < 0) return false;
    if (pid == 0) {
      svc::ServeOptions opts;
      opts.socket_path = socket_path;
      opts.workers = workers;
      opts.cache_mb = 64;
      ::_exit(svc::run_server(opts));
    }
    for (int i = 0; i < 100; ++i) {
      svc::Client probe;
      if (probe.connect(socket_path)) return true;
      ::usleep(50 * 1000);
    }
    return false;
  }

  int stop() {
    if (pid <= 0) return -1;
    ::kill(pid, SIGTERM);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
    ::unlink(socket_path.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  ~Daemon() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
  }
};

/// Unique single-cell request #k of the mixed pool: 70% timing cells, 20%
/// architecture cells, 10% fault cells, coordinates derived from k so every
/// k names a distinct cache key.
svc::Request pool_request(std::size_t k) {
  svc::Request req;
  req.t_end = kTEnd;
  const std::size_t klass = k % 10;
  const auto frac = [](std::size_t i, std::size_t n, double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n);
  };
  if (klass < 7) {
    req.verb = svc::Verb::kSweepTiming;
    const std::size_t i = k / 10 * 10 + klass;  // distinct per k
    req.rows = {frac(i % 97, 97, 0.0, 0.9)};
    req.cols = {frac(i / 97, kUniqueKeys / 97 + 1, 0.0, 0.45)};
  } else if (klass < 9) {
    req.verb = svc::Verb::kSweepArch;
    const std::size_t i = k / 10 * 10 + klass;
    // Stay in the schedulable region: too little bandwidth with inflated
    // WCETs pushes the makespan past the period and the cell comes back
    // unschedulable instead of measuring a loop.
    req.rows = {2e4 + frac(i % 89, 89, 0.0, 8e4)};
    req.cols = {frac(i / 89, kUniqueKeys / 89 + 1, 0.5, 1.5)};
  } else {
    req.verb = svc::Verb::kFaultSweep;
    const std::size_t i = k / 10;
    req.rows = {frac(i % 83, 83, 0.0, 0.4)};
    req.cols = {frac(i / 83, kUniqueKeys / 83 + 1, 0.0, 0.004)};
  }
  return req;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  return v[idx];
}

struct WorkloadResult {
  std::vector<double> cold_us, warm_us, all_us;
  std::size_t served = 0;
  bool ok = true;
};

WorkloadResult run_workload(svc::Client& client) {
  // 4000 unique keys + 6000 repeats, deterministically shuffled: the mix a
  // design-space exploration session produces when sweeps overlap.
  std::vector<std::size_t> order(kRequests);
  math::Rng rng(20260808);
  for (std::size_t i = 0; i < kRequests; ++i) {
    order[i] = i < kUniqueKeys
                   ? i
                   : static_cast<std::size_t>(
                         rng.uniform_int(0, static_cast<std::int64_t>(kUniqueKeys) - 1));
  }
  for (std::size_t i = kRequests - 1; i > 0; --i) {
    const auto j =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i)));
    std::swap(order[i], order[j]);
  }

  WorkloadResult res;
  using clock = std::chrono::steady_clock;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const svc::Request req = pool_request(order[i]);
    const auto t0 = clock::now();
    svc::ResponseMeta meta;
    bool ok = false;
    if (req.verb == svc::Verb::kFaultSweep) {
      std::vector<sweep::FaultCell> cells;
      ok = remote_result(client, req, cells, meta);
    } else {
      std::vector<sweep::SweepCell> cells;
      ok = remote_result(client, req, cells, meta);
    }
    const double us =
        std::chrono::duration<double, std::micro>(clock::now() - t0).count();
    if (!ok) {
      std::fprintf(stderr, "request %zu failed: %s\n", i,
                   client.last_error().c_str());
      res.ok = false;
      return res;
    }
    res.all_us.push_back(us);
    (meta.served_from_cache ? res.warm_us : res.cold_us).push_back(us);
    res.served += meta.served_from_cache ? 1 : 0;
  }
  return res;
}

/// Serial in-process reference for a request — the daemon must reproduce
/// every byte of this at any worker count.
std::vector<std::string> reference_payloads(const svc::Request& req,
                                            svc::WarmCache& warm) {
  std::vector<std::string> payloads;
  for (std::size_t u = 0; u < req.units(); ++u) {
    payloads.push_back(svc::evaluate_unit(req, u, warm));
  }
  return payloads;
}

/// The CLI's `sweep timing` grid on the short horizon.
svc::Request canonical_grid() {
  svc::Request req = svc::canonical_request(svc::Verb::kSweepTiming);
  req.t_end = kTEnd;
  return req;
}

/// Bit-equality of a daemon-served grid vs the serial reference payloads.
bool grid_identical(std::size_t workers,
                    const std::vector<std::string>& want) {
  Daemon daemon;
  if (!daemon.start(workers)) return false;
  svc::Client client;
  if (!client.connect(daemon.socket_path)) return false;
  const svc::Request req = canonical_grid();
  svc::Fields reply;
  svc::ResponseMeta meta;
  if (!client.request(req, reply, meta) || !meta.ok) return false;
  const std::string* blob = reply.get("units");
  std::vector<std::string> got;
  if (blob == nullptr || !svc::decode_blob_list(*blob, got)) return false;
  client.close();
  if (daemon.stop() != 0) return false;
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (got[i] != want[i]) return false;  // byte comparison of the payloads
  }
  return true;
}

int experiment() {
  bench::banner("EXP-P9", "sweep service (DESIGN.md §3.9)",
                "Persistent daemon: warm-model cache + memoized results + "
                "multi-process sharding. 10k mixed requests, 60% repeats; "
                "latency split by the daemon's served_from_cache stamp; "
                "sharded grids must stay byte-identical to serial.");

  bench::JsonReport report("EXP-P9");
  {
    svc::WarmCache warm;
    report.model_ir_hash("servo_loop",
                         warm.loop(0.01, kTEnd, /*seed=*/1).ir_hash);
  }

  // --- 1+2: the mixed workload against a 2-worker daemon -------------------
  Daemon daemon;
  if (!daemon.start(/*workers=*/2)) {
    std::fprintf(stderr, "daemon failed to start\n");
    return 1;
  }
  svc::Client client;
  if (!client.connect(daemon.socket_path)) {
    std::fprintf(stderr, "connect failed: %s\n", client.last_error().c_str());
    return 1;
  }
  const WorkloadResult w = run_workload(client);
  client.close();
  if (!w.ok || daemon.stop() != 0) return 1;

  const double hit_rate =
      static_cast<double>(w.served) / static_cast<double>(kRequests);
  const double p50 = percentile(w.all_us, 0.50);
  const double p99 = percentile(w.all_us, 0.99);
  const double cold_p50 = percentile(w.cold_us, 0.50);
  const double warm_p50 = percentile(w.warm_us, 0.50);
  const double speedup = warm_p50 > 0.0 ? cold_p50 / warm_p50 : 0.0;

  std::printf("%-28s %12s\n", "mixed workload", "value");
  std::printf("%-28s %12zu\n", "requests", kRequests);
  std::printf("%-28s %12zu\n", "unique keys", kUniqueKeys);
  std::printf("%-28s %11.1f%%\n", "served from cache", 100.0 * hit_rate);
  std::printf("%-28s %10.1fus\n", "request p50", p50);
  std::printf("%-28s %10.1fus\n", "request p99", p99);
  std::printf("%-28s %10.1fus\n", "cold (computed) p50", cold_p50);
  std::printf("%-28s %10.1fus\n", "warm (cache-served) p50", warm_p50);
  std::printf("%-28s %11.1fx\n", "warm speedup", speedup);

  report.begin_array("service");
  report.begin_object();
  report.field("requests", kRequests);
  report.field("unique_keys", kUniqueKeys);
  report.field("workers", std::size_t{2});
  report.field("hit_rate", hit_rate);
  report.field("p50_us", p50);
  report.field("p99_us", p99);
  report.field("cold_p50_us", cold_p50);
  report.field("warm_p50_us", warm_p50);
  report.field("warm_speedup", speedup);
  report.end_object();
  report.end_array();

  // --- 3: sharding bit-equality at 1|2|4 workers ---------------------------
  svc::WarmCache warm;
  const std::vector<std::string> want =
      reference_payloads(canonical_grid(), warm);
  bool all_identical = true;
  report.begin_array("equality");
  std::printf("\n%-10s %10s\n", "workers", "grid");
  for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const bool identical = grid_identical(workers, want);
    all_identical = all_identical && identical;
    std::printf("%-10zu %10s\n", workers,
                identical ? "identical" : "DIVERGED");
    report.begin_object();
    report.field("workers", workers);
    report.field("cells", want.size());
    report.field("identical", std::string(identical ? "yes" : "NO"));
    report.end_object();
  }
  report.end_array();

  const bool pass = all_identical && speedup >= kMinWarmSpeedup &&
                    hit_rate >= 0.55;
  report.begin_array("guard");
  report.begin_object();
  report.field("min_warm_speedup", kMinWarmSpeedup);
  report.field("measured_warm_speedup", speedup);
  report.field("min_hit_rate", 0.55);
  report.field("measured_hit_rate", hit_rate);
  report.field("sharding_identical", std::string(all_identical ? "yes" : "NO"));
  report.field("pass", std::string(pass ? "yes" : "NO"));
  report.end_object();
  report.end_array();
  std::printf("\nguard: warm p50 speedup %.1fx (need >= %.1fx), hit rate "
              "%.0f%% (need >= 55%%), sharding %s — %s\n\n",
              speedup, kMinWarmSpeedup, 100.0 * hit_rate,
              all_identical ? "identical" : "DIVERGED", pass ? "PASS" : "FAIL");
  report.write("BENCH_p9.json");
  return pass ? 0 : 1;
}

/// Warm round-trip latency, google-benchmark view: one cached single-cell
/// request against a live daemon (socket + framing + cache probe, no
/// simulation).
void BM_WarmRequestRoundTrip(benchmark::State& state) {
  Daemon daemon;
  if (!daemon.start(1)) {
    state.SkipWithError("daemon failed to start");
    return;
  }
  svc::Client client;
  if (!client.connect(daemon.socket_path)) {
    state.SkipWithError("connect failed");
    return;
  }
  const svc::Request req = pool_request(0);
  std::vector<sweep::SweepCell> cells;
  svc::ResponseMeta meta;
  remote_result(client, req, cells, meta);  // prime the cache
  for (auto _ : state) {
    cells.clear();
    if (!remote_result(client, req, cells, meta)) {
      state.SkipWithError("request failed");
      return;
    }
    benchmark::DoNotOptimize(cells.data());
  }
  client.close();
  daemon.stop();
}
BENCHMARK(BM_WarmRequestRoundTrip)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const int rc = experiment();
  if (rc != 0) return rc;
  return ecsim::bench::run_benchmarks(argc, argv);
}
