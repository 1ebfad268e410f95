// End-to-end daemon tests (ISSUE PR-9): fork a real server process, talk to
// it over its unix socket, and check the headline guarantees — daemon-served
// results are BIT-IDENTICAL to the in-process reference, repeats are served
// from the memo cache, a crashed worker is survived with one re-dispatch,
// and SIGTERM drains to exit code 0 with the socket unlinked.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/ledger.hpp"
#include "svc/client.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/warm_cache.hpp"

namespace ecsim::svc {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

constexpr const char* kServoSpec = R"([algorithm]
name   servo-loop
period 0.01
op  sense sensor   2e-4 @P0
op  ctrl  compute  3e-3 @P1
op  act   actuator 2e-4 @P0
dep sense ctrl 8
dep ctrl  act  8

[architecture]
name  two-ecu
proc  P0 cpu
proc  P1 cpu
bus   can 2e4 2e-4 P0 P1
)";

/// A daemon forked for one test: run_server in a child process, SIGTERM +
/// reap on stop. Unique socket/ledger paths per instance (the parent pid is
/// stable across the fixture's lifetime, the counter distinguishes tests).
struct ServerHandle {
  pid_t pid = -1;
  std::string socket_path;
  std::string ledger_path;

  static int& instance_counter() {
    static int n = 0;
    return n;
  }

  void start(std::size_t workers, std::size_t cache_mb = 8) {
    const int id = instance_counter()++;
    const std::string base = "/tmp/ecsim_svc_test_" +
                             std::to_string(::getpid()) + "_" +
                             std::to_string(id);
    socket_path = base + ".sock";
    ledger_path = base + ".ledger.jsonl";
    ::unlink(socket_path.c_str());
    ::unlink(ledger_path.c_str());
    pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      ServeOptions opts;
      opts.socket_path = socket_path;
      opts.workers = workers;
      opts.cache_mb = cache_mb;
      opts.ledger_path = ledger_path;
      ::_exit(run_server(opts));
    }
    // Wait (up to ~5 s) for the socket to accept connections.
    for (int i = 0; i < 100; ++i) {
      Client probe;
      if (probe.connect(socket_path)) return;
      ::usleep(50 * 1000);
    }
    FAIL() << "daemon did not come up on " << socket_path;
  }

  /// SIGTERM, reap, and return the daemon's exit status (-1 on abnormal
  /// termination).
  int stop() {
    if (pid <= 0) return -1;
    ::kill(pid, SIGTERM);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  ~ServerHandle() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status_, 0);
    }
    ::unlink(socket_path.c_str());
    ::unlink(ledger_path.c_str());
  }

 private:
  int status_ = 0;
};

Request small_timing_request() {
  Request req;
  req.verb = Verb::kSweepTiming;
  req.t_end = 0.2;  // short horizon keeps each cell ~1 ms
  req.rows = {0.0, 0.4, 0.8};
  req.cols = {0.0, 0.2};
  return req;
}

/// In-process reference: the same evaluation routine the workers run,
/// executed serially here. Bit-equality against this is the memoization
/// soundness check.
std::vector<sweep::SweepCell> reference_cells(const Request& req) {
  WarmCache warm(nullptr);
  std::vector<sweep::SweepCell> cells;
  for (std::size_t u = 0; u < req.units(); ++u) {
    sweep::SweepCell c;
    EXPECT_TRUE(decode_cell(evaluate_unit(req, u, warm), c));
    cells.push_back(c);
  }
  return cells;
}

TEST(ServiceE2E, ShardedSweepIsBitIdenticalToInProcessReference) {
  ServerHandle server;
  server.start(/*workers=*/2);
  const Request req = small_timing_request();
  const std::vector<sweep::SweepCell> want = reference_cells(req);

  Client client;
  ASSERT_TRUE(client.connect(server.socket_path)) << client.last_error();
  std::vector<sweep::SweepCell> got;
  ResponseMeta meta;
  ASSERT_TRUE(remote_sweep(client, req, got, meta)) << client.last_error();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(same_bits(got[i].iae, want[i].iae)) << "cell " << i;
    EXPECT_TRUE(same_bits(got[i].cost, want[i].cost)) << "cell " << i;
    EXPECT_TRUE(same_bits(got[i].act_jitter, want[i].act_jitter));
    EXPECT_EQ(got[i].stable, want[i].stable);
  }
  EXPECT_FALSE(meta.served_from_cache) << "first request must compute";
  EXPECT_EQ(meta.cache_units, req.units());
  EXPECT_EQ(server.stop(), 0);
}

TEST(ServiceE2E, RepeatRequestIsServedEntirelyFromCache) {
  ServerHandle server;
  server.start(/*workers=*/1);
  const Request req = small_timing_request();

  Client client;
  ASSERT_TRUE(client.connect(server.socket_path));
  std::vector<sweep::SweepCell> first, second;
  ResponseMeta m1, m2;
  ASSERT_TRUE(remote_sweep(client, req, first, m1));
  ASSERT_TRUE(remote_sweep(client, req, second, m2));
  EXPECT_EQ(m1.cache_hits, 0u);
  EXPECT_TRUE(m2.served_from_cache);
  EXPECT_EQ(m2.cache_hits, req.units());
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(same_bits(second[i].cost, first[i].cost));
  }
  EXPECT_EQ(server.stop(), 0);

  // Both requests were stamped into the ledger with the cache disposition.
  const std::vector<obs::LedgerRecord> records =
      obs::read_ledger_file(server.ledger_path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].served_from_cache, 0);
  EXPECT_EQ(records[1].served_from_cache, 1);
  const obs::CacheSummary summary = obs::summarize_cache(records);
  EXPECT_EQ(summary.served, 1u);
  EXPECT_EQ(summary.computed, 1u);
  EXPECT_EQ(summary.untagged, 0u);
}

TEST(ServiceE2E, OverlappingFaultMcSeedRangesShareCacheEntries) {
  ServerHandle server;
  server.start(/*workers=*/1);
  Client client;
  ASSERT_TRUE(client.connect(server.socket_path));

  Request lo;
  lo.verb = Verb::kFaultMc;
  lo.t_end = 0.2;
  lo.seed = 100;
  lo.trials = 4;
  lo.loss = 0.2;
  Request hi = lo;
  hi.seed = 102;  // trials {102,103} overlap lo's {100..103}

  sweep::FaultMonteCarloResult r1, r2;
  ResponseMeta m1, m2;
  ASSERT_TRUE(remote_fault_mc(client, lo, r1, m1)) << client.last_error();
  ASSERT_TRUE(remote_fault_mc(client, hi, r2, m2)) << client.last_error();
  EXPECT_EQ(m1.cache_hits, 0u);
  EXPECT_EQ(m2.cache_hits, 2u) << "trial aliasing must share entries";
  EXPECT_EQ(server.stop(), 0);
}

TEST(ServiceE2E, VmMonteCarloRoundTripMatchesAndCaches) {
  ServerHandle server;
  server.start(/*workers=*/1);
  Client client;
  ASSERT_TRUE(client.connect(server.socket_path));

  Request req;
  req.verb = Verb::kVmMc;
  req.trials = 20;
  req.iterations = 10;
  req.seed = 7;
  req.spec_text = kServoSpec;

  sweep::MonteCarloResult got, again;
  ResponseMeta m1, m2;
  ASSERT_TRUE(remote_vm_mc(client, req, got, m1)) << client.last_error();
  EXPECT_EQ(got.trials, 20u);
  EXPECT_EQ(m1.model_hash.rfind("spec:", 0), 0u);

  WarmCache warm(nullptr);
  sweep::MonteCarloResult want;
  ASSERT_TRUE(decode_mc(evaluate_unit(req, 0, warm), want));
  EXPECT_TRUE(same_bits(got.makespan.mean, want.makespan.mean));
  EXPECT_TRUE(same_bits(got.makespan.p95, want.makespan.p95));
  ASSERT_EQ(got.io_ops.size(), want.io_ops.size());
  for (std::size_t i = 0; i < want.io_ops.size(); ++i) {
    EXPECT_TRUE(same_bits(got.io_ops[i].mean_latency.mean,
                          want.io_ops[i].mean_latency.mean));
  }

  ASSERT_TRUE(remote_vm_mc(client, req, again, m2));
  EXPECT_TRUE(m2.served_from_cache);
  EXPECT_TRUE(same_bits(again.makespan.mean, got.makespan.mean));
  EXPECT_EQ(server.stop(), 0);
}

TEST(ServiceE2E, CrashedWorkerIsSurvivedWithOneRedispatch) {
  ServerHandle server;
  server.start(/*workers=*/2);
  Client client;
  ASSERT_TRUE(client.connect(server.socket_path));

  // Ask the daemon to crash one worker, then immediately send real work:
  // the dead lane's units must be re-dispatched and the merged grid must
  // still be bit-identical to the reference.
  Request kill;
  kill.verb = Verb::kKillWorker;
  Fields reply;
  ResponseMeta kmeta;
  ASSERT_TRUE(client.request(kill, reply, kmeta)) << client.last_error();

  const Request req = small_timing_request();
  const std::vector<sweep::SweepCell> want = reference_cells(req);
  std::vector<sweep::SweepCell> got;
  ResponseMeta meta;
  ASSERT_TRUE(remote_sweep(client, req, got, meta)) << client.last_error();
  EXPECT_GE(meta.redispatches, 1u) << "the crash must have been recovered";
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(same_bits(got[i].cost, want[i].cost)) << "cell " << i;
    EXPECT_TRUE(same_bits(got[i].iae, want[i].iae)) << "cell " << i;
  }

  // The replacement worker is in place: a further request works without any
  // re-dispatch and is served from cache.
  std::vector<sweep::SweepCell> again;
  ResponseMeta m2;
  ASSERT_TRUE(remote_sweep(client, req, again, m2));
  EXPECT_EQ(m2.redispatches, 0u);
  EXPECT_TRUE(m2.served_from_cache);
  EXPECT_EQ(server.stop(), 0);
}

TEST(ServiceE2E, UnitErrorDoesNotLeakStaleRepliesIntoNextRequest) {
  ServerHandle server;
  server.start(/*workers=*/2);
  Client client;
  ASSERT_TRUE(client.connect(server.socket_path));

  // Every unit of this request throws in the worker (negative latency
  // fraction makes run_latency_loop reject la < ls), but the request itself
  // validates fine, so all 12 units are dispatched across both lanes. The
  // master sees the first error reply while both lanes still hold in-flight
  // replies; without the drain those stale frames were consumed by the NEXT
  // request and matched to the wrong units.
  Request bad = small_timing_request();
  bad.rows = {-1.0, -1.0, -1.0};
  bad.cols = {0.0, 0.1, 0.2, 0.3};
  std::vector<sweep::SweepCell> cells;
  ResponseMeta bmeta;
  EXPECT_FALSE(remote_sweep(client, bad, cells, bmeta));
  EXPECT_FALSE(client.last_error().empty());

  // The follow-up request must compute clean, bit-identical results on the
  // same connection and the same (drained) workers.
  const Request good = small_timing_request();
  const std::vector<sweep::SweepCell> want = reference_cells(good);
  std::vector<sweep::SweepCell> got;
  ResponseMeta meta;
  ASSERT_TRUE(remote_sweep(client, good, got, meta)) << client.last_error();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(same_bits(got[i].cost, want[i].cost)) << "cell " << i;
    EXPECT_TRUE(same_bits(got[i].iae, want[i].iae)) << "cell " << i;
    EXPECT_TRUE(same_bits(got[i].act_jitter, want[i].act_jitter))
        << "cell " << i;
  }
  EXPECT_EQ(server.stop(), 0);
}

TEST(ServiceE2E, SigtermDrainUnlinksSocketAndExitsZero) {
  ServerHandle server;
  server.start(/*workers=*/2);
  struct stat st;
  EXPECT_EQ(::stat(server.socket_path.c_str(), &st), 0);
  EXPECT_EQ(server.stop(), 0);
  EXPECT_NE(::stat(server.socket_path.c_str(), &st), 0)
      << "drain must unlink the socket";
}

TEST(ServiceE2E, StatsAndPingVerbs) {
  ServerHandle server;
  server.start(/*workers=*/2);
  Client client;
  ASSERT_TRUE(client.connect(server.socket_path));

  Request ping;
  ping.verb = Verb::kPing;
  Fields reply;
  ResponseMeta meta;
  ASSERT_TRUE(client.request(ping, reply, meta));

  std::vector<sweep::SweepCell> cells;
  ResponseMeta sweep_meta;
  ASSERT_TRUE(remote_sweep(client, small_timing_request(), cells, sweep_meta));

  Request stats;
  stats.verb = Verb::kStats;
  ASSERT_TRUE(client.request(stats, reply, meta));
  std::uint64_t workers = 0, requests = 0, misses = 0;
  ASSERT_TRUE(reply.get_u64("workers", workers));
  ASSERT_TRUE(reply.get_u64("requests", requests));
  ASSERT_TRUE(reply.get_u64("misses", misses));
  EXPECT_EQ(workers, 2u);
  EXPECT_EQ(requests, 1u) << "only WORK requests count; ping/stats don't";
  EXPECT_EQ(misses, small_timing_request().units());
  EXPECT_EQ(server.stop(), 0);
}

TEST(ServiceE2E, ConnectFailureReportsReasonForFallback) {
  Client client;
  EXPECT_FALSE(client.connect("/tmp/ecsim_svc_no_such_socket.sock"));
  EXPECT_FALSE(client.last_error().empty());
  EXPECT_FALSE(client.connected());
}

/// One-shot fake daemon on a fresh unix socket: accepts one connection,
/// reads one request frame and answers it with `reply`.
class FakeDaemon {
 public:
  explicit FakeDaemon(const Fields& reply)
      : path_("/tmp/ecsim_svc_fake_" + std::to_string(::getpid()) + ".sock") {
    ::unlink(path_.c_str());
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);
    listening_ =
        fd_ >= 0 &&
        ::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
            0 &&
        ::listen(fd_, 1) == 0;
    if (!listening_) return;
    thread_ = std::thread([this, frame = reply.serialize()] {
      const int conn = ::accept(fd_, nullptr, nullptr);
      if (conn < 0) return;
      std::string in;
      if (read_frame(conn, in)) write_frame(conn, frame);
      ::close(conn);
    });
  }
  ~FakeDaemon() {
    if (thread_.joinable()) thread_.join();
    if (fd_ >= 0) ::close(fd_);
    ::unlink(path_.c_str());
  }
  bool listening() const { return listening_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
  bool listening_ = false;
  std::thread thread_;
};

Fields ok_reply_with_units(const std::string& units) {
  Fields reply;
  ResponseMeta meta;
  meta.ok = true;
  meta_to_fields(meta, reply);
  reply.set("units", units);
  return reply;
}

TEST(ServiceE2E, MalformedUnitsReplyReportsReasonForFallback) {
  FakeDaemon daemon(ok_reply_with_units("not a blob list"));
  ASSERT_TRUE(daemon.listening());
  Client client;
  ASSERT_TRUE(client.connect(daemon.path()));
  std::vector<sweep::SweepCell> cells;
  ResponseMeta meta;
  EXPECT_FALSE(remote_sweep(client, small_timing_request(), cells, meta));
  EXPECT_TRUE(cells.empty());
  EXPECT_FALSE(client.last_error().empty());
}

TEST(ServiceE2E, UndecodableUnitIsNamedInLastError) {
  const Request req = small_timing_request();
  std::vector<std::string> blobs(req.units(), "garbage");
  FakeDaemon daemon(ok_reply_with_units(encode_blob_list(blobs)));
  ASSERT_TRUE(daemon.listening());
  Client client;
  ASSERT_TRUE(client.connect(daemon.path()));
  std::vector<sweep::SweepCell> cells;
  ResponseMeta meta;
  EXPECT_FALSE(remote_sweep(client, req, cells, meta));
  EXPECT_NE(client.last_error().find("unit 0 of 6"), std::string::npos)
      << client.last_error();
}

}  // namespace
}  // namespace ecsim::svc
