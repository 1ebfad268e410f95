// Client side of the sweep service (DESIGN.md §3.9): connect to the daemon's
// unix socket, round-trip framed requests and decode the bit-exact unit
// payloads back into the in-process result types (sweep::SweepCell,
// sweep::FaultCell, sweep::MonteCarloResult). `ecsim_flow --connect=PATH`
// routes through this; a failed connect or a daemon error falls back to the
// in-process computation with a recorded reason — the CLI never fails a
// sweep just because the daemon is away.
#pragma once

#include <string>
#include <vector>

#include "par/fault_sweep.hpp"
#include "par/monte_carlo.hpp"
#include "par/sweep.hpp"
#include "svc/protocol.hpp"

namespace ecsim::svc {

class Client {
 public:
  Client() = default;
  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect to the daemon socket. False (with last_error set) when the
  /// daemon is not there — the caller's cue to fall back in-process.
  bool connect(const std::string& socket_path);
  bool connected() const { return fd_ >= 0; }
  void close();

  /// One request/response round-trip. False on transport failure or an
  /// error-status reply; last_error() carries the reason either way.
  bool request(const Request& req, Fields& reply, ResponseMeta& meta);

  const std::string& last_error() const { return err_; }
  /// Record a client-side failure (e.g. a reply that does not decode) as
  /// last_error(). Always returns false, for `return client.fail(...)`.
  bool fail(std::string reason);

 private:
  int fd_ = -1;
  std::string err_;
};

// ---- typed decode helpers (CLI + tests) ------------------------------------
// Each runs one request and reconstructs the in-process result type from the
// daemon's unit payloads. False leaves the output untouched; the reason is
// in client.last_error().

bool remote_sweep(Client& client, const Request& req,
                  std::vector<sweep::SweepCell>& cells, ResponseMeta& meta);

bool remote_fault_sweep(Client& client, const Request& req,
                        std::vector<sweep::FaultCell>& cells,
                        ResponseMeta& meta);

bool remote_network_sweep(Client& client, const Request& req,
                          std::vector<sweep::NetworkCell>& cells,
                          ResponseMeta& meta);

/// Fault Monte Carlo: per-trial cells come back in trial order and reduce
/// through sweep::summarize_fault_trials — the same reduction the in-process
/// run uses, so the statistics match bit-for-bit. Timing fields stay 0.
bool remote_fault_mc(Client& client, const Request& req,
                     sweep::FaultMonteCarloResult& result, ResponseMeta& meta);

bool remote_vm_mc(Client& client, const Request& req,
                  sweep::MonteCarloResult& result, ResponseMeta& meta);

}  // namespace ecsim::svc
