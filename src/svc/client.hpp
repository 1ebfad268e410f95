// Client side of the sweep service (DESIGN.md §3.9): connect to the daemon's
// unix socket, round-trip framed requests and decode the bit-exact unit
// payloads back into the in-process result types (sweep::SweepCell,
// sweep::NetworkCell, sweep::FaultCell, sweep::MonteCarloResult).
// svc::execute is the one request path of `ecsim_flow`'s sweep verbs: the
// CLI never fails a sweep just because the daemon is away.
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "par/fault_sweep.hpp"
#include "par/monte_carlo.hpp"
#include "par/sweep.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"

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

/// Grid verbs: one cell per unit, in unit order (SweepCell, NetworkCell,
/// FaultCell).
template <class Cell>
bool remote_result(Client& client, const Request& req,
                   std::vector<Cell>& cells, ResponseMeta& meta);

/// Fault Monte Carlo: per-trial cells come back in trial order and reduce
/// through sweep::summarize_fault_trials — the same reduction the in-process
/// run uses, so the statistics match bit-for-bit. Timing fields stay 0.
bool remote_result(Client& client, const Request& req,
                   sweep::FaultMonteCarloResult& result, ResponseMeta& meta);

/// VM Monte Carlo: the request's single unit is the whole result.
bool remote_result(Client& client, const Request& req,
                   sweep::MonteCarloResult& result, ResponseMeta& meta);

/// Serve `req` into `out` through the daemon at `connect` when it is set,
/// else — or when the daemon cannot, after printing the reason once to
/// stderr — through run_in_process. nullopt means it ran in-process.
template <class Result>
std::optional<ResponseMeta> execute(const Request& req,
                                    const std::string& connect,
                                    const par::BatchOptions& batch,
                                    std::size_t batch_width, WarmCache& warm,
                                    Result& out) {
  if (!connect.empty()) {
    Client client;
    ResponseMeta meta;
    if (client.connect(connect) && remote_result(client, req, out, meta)) {
      return meta;
    }
    std::fprintf(stderr, "svc: falling back in-process: %s\n",
                 client.last_error().c_str());
  }
  run_in_process(req, batch, batch_width, warm, out);
  return std::nullopt;
}

}  // namespace ecsim::svc
