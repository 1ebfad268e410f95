#include "svc/client.hpp"

#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace ecsim::svc {

bool Client::connect(const std::string& socket_path) {
  close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.empty() || socket_path.size() >= sizeof addr.sun_path) {
    err_ = "bad socket path";
    return false;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    err_ = std::strerror(errno);
    return false;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    err_ = std::string("connect ") + socket_path + ": " +
           std::strerror(errno);
    ::close(fd);
    return false;
  }
  fd_ = fd;
  err_.clear();
  return true;
}

void Client::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool Client::request(const Request& req, Fields& reply, ResponseMeta& meta) {
  if (fd_ < 0) {
    err_ = "not connected";
    return false;
  }
  if (!write_frame(fd_, req.to_fields().serialize())) {
    err_ = "daemon went away mid-write";
    close();
    return false;
  }
  std::string in;
  if (!read_frame(fd_, in) || !Fields::parse(in, reply)) {
    err_ = "daemon went away mid-read";
    close();
    return false;
  }
  meta = meta_from_fields(reply);
  if (!meta.ok) {
    err_ = meta.error.empty() ? "daemon error" : meta.error;
    return false;
  }
  err_.clear();
  return true;
}

bool Client::fail(std::string reason) {
  err_ = std::move(reason);
  return false;
}

namespace {

/// Round-trip `req` and split the reply's units field into one payload per
/// requested unit.
bool unit_payloads(Client& client, const Request& req, ResponseMeta& meta,
                   std::vector<std::string>& blobs) {
  Fields reply;
  if (!client.request(req, reply, meta)) return false;
  const std::string* units = reply.get("units");
  if (units == nullptr) return client.fail("reply has no units field");
  if (!decode_blob_list(*units, blobs)) {
    return client.fail("malformed units payload");
  }
  if (blobs.size() != req.units()) {
    return client.fail("units payload has " + std::to_string(blobs.size()) +
                       " units, expected " + std::to_string(req.units()));
  }
  return true;
}

bool bad_unit(Client& client, std::size_t i, std::size_t n) {
  return client.fail("cannot decode unit " + std::to_string(i) + " of " +
                     std::to_string(n));
}

/// Request + decode every unit as a Cell; `cells` is untouched on failure.
template <class Cell>
bool remote_cells(Client& client, const Request& req,
                  std::vector<Cell>& cells, ResponseMeta& meta) {
  std::vector<std::string> blobs;
  if (!unit_payloads(client, req, meta, blobs)) return false;
  std::vector<Cell> out(blobs.size());
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    if (!decode_cell(blobs[i], out[i])) {
      return bad_unit(client, i, blobs.size());
    }
  }
  cells = std::move(out);
  return true;
}

}  // namespace

bool remote_sweep(Client& client, const Request& req,
                  std::vector<sweep::SweepCell>& cells, ResponseMeta& meta) {
  return remote_cells(client, req, cells, meta);
}

bool remote_fault_sweep(Client& client, const Request& req,
                        std::vector<sweep::FaultCell>& cells,
                        ResponseMeta& meta) {
  return remote_cells(client, req, cells, meta);
}

bool remote_network_sweep(Client& client, const Request& req,
                          std::vector<sweep::NetworkCell>& cells,
                          ResponseMeta& meta) {
  return remote_cells(client, req, cells, meta);
}

bool remote_fault_mc(Client& client, const Request& req,
                     sweep::FaultMonteCarloResult& result,
                     ResponseMeta& meta) {
  std::vector<sweep::FaultCell> cells;
  if (!remote_cells(client, req, cells, meta)) return false;
  result = sweep::summarize_fault_trials(std::move(cells), req.loss);
  return true;
}

bool remote_vm_mc(Client& client, const Request& req,
                  sweep::MonteCarloResult& result, ResponseMeta& meta) {
  std::vector<std::string> blobs;
  if (!unit_payloads(client, req, meta, blobs)) return false;
  sweep::MonteCarloResult out;
  if (blobs.size() != 1 || !decode_mc(blobs[0], out)) {
    return bad_unit(client, 0, blobs.size());
  }
  result = std::move(out);
  return true;
}

}  // namespace ecsim::svc
