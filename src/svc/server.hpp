// The sweep-service daemon (DESIGN.md §3.9): `ecsim_flow serve` binds a
// unix-domain socket, forks N worker processes and answers framed requests
// (svc/protocol.hpp) with memoized, bit-exact sweep/Monte-Carlo results.
//
// Master process: accepts one client connection at a time, decomposes each
// request into work units, probes the LRU result cache (svc/result_cache.hpp)
// and shards only the misses across the workers over per-worker socketpairs.
// Replies merge in unit order, so a daemon-served grid is byte-identical to
// the serial in-process reference — the determinism contracts of PRs 3/5/8
// make every unit a pure function of the cache key. A worker that dies
// mid-request (EOF/EPIPE on its pipe) is detected, its units are re-dispatched
// ONCE to a surviving worker, and a replacement is forked before the next
// request; a second failure fails the request rather than looping.
//
// Workers: blocking frame loop on the inherited socketpair. They ignore
// SIGINT/SIGTERM and exit when the master closes the pipe, so a SIGTERM to
// the master drains cleanly: stop accepting, close worker pipes, reap
// children, unlink the socket, exit 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "par/batch_runner.hpp"
#include "svc/protocol.hpp"
#include "svc/warm_cache.hpp"

namespace ecsim::svc {

struct ServeOptions {
  std::string socket_path;
  std::size_t workers = 1;     // forked worker processes
  std::size_t cache_mb = 64;   // result-cache byte budget
  std::string ledger_path;     // "" = obs::Ledger::global() destination
  bool verbose = false;        // per-request stderr log lines
};

/// Run the daemon until SIGTERM/SIGINT. Returns the process exit code
/// (0 on a clean drain). Not re-entrant: installs signal handlers.
int run_server(const ServeOptions& opts);

// ---- request evaluation ----------------------------------------------------
// run_in_process is the one Request -> grid/spec mapping, and it holds the
// conventions every path shares: the servo loop of (ts, t_end) from
// WarmCache, the controller bound to P1, fault verbs on loop seed 1 with
// `seed` seeding the fault stream, the EXP-N1 shape of
// sweep::network_servo_grid, and prepare_spec for uploaded specs.

/// The `ecsim_flow sweep` / `fault sweep` grid of `verb`: the CLI's axes,
/// every other field at its default, so repeated runs hit the daemon's
/// cache. Throws std::invalid_argument for a verb without a grid.
Request canonical_request(Verb verb);

/// Run all of `req` on `batch` (threads, metrics, tracer); `batch_width`
/// is the Monte Carlo trials per task (0 = auto). Throws
/// std::invalid_argument when the verb does not produce `out`'s type.
void run_in_process(const Request& req, const par::BatchOptions& batch,
                    std::size_t batch_width, WarmCache& warm,
                    std::vector<sweep::SweepCell>& out);
void run_in_process(const Request& req, const par::BatchOptions& batch,
                    std::size_t batch_width, WarmCache& warm,
                    std::vector<sweep::NetworkCell>& out);
void run_in_process(const Request& req, const par::BatchOptions& batch,
                    std::size_t batch_width, WarmCache& warm,
                    std::vector<sweep::FaultCell>& out);
void run_in_process(const Request& req, const par::BatchOptions& batch,
                    std::size_t batch_width, WarmCache& warm,
                    sweep::FaultMonteCarloResult& out);
void run_in_process(const Request& req, const par::BatchOptions& batch,
                    std::size_t batch_width, WarmCache& warm,
                    sweep::MonteCarloResult& out);

/// One work unit's encoded payload (the bytes the result cache stores):
/// run_in_process of the unit's sub-request — one grid cell, one fault
/// trial, or the whole VM Monte Carlo — on one thread.
std::string evaluate_unit(const Request& req, std::size_t unit,
                          WarmCache& warm);

}  // namespace ecsim::svc
