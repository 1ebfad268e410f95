#include "aaa/architecture_graph.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ecsim::aaa {

Time Medium::earliest_start(Time ready) const {
  if (arbitration != Arbitration::kTdma || tdma_slot <= 0.0) return ready;
  // Next slot boundary at or after `ready` (boundary hits count, with a
  // tolerance so k*slot computed two ways agrees).
  const double k = std::ceil(ready / tdma_slot - 1e-9);
  return std::max(0.0, k) * tdma_slot;
}

Time Medium::earliest_start(Time ready, std::size_t priority) const {
  if (arbitration != Arbitration::kTdma || tdma_slot <= 0.0 ||
      tdma_slots <= 1) {
    return earliest_start(ready);
  }
  // Owner slot s = priority % n starts at t = k*n*slot + s*slot. Next such
  // instant at or after `ready` (same boundary tolerance as above).
  const double round = static_cast<double>(tdma_slots) * tdma_slot;
  const double offset =
      static_cast<double>(priority % tdma_slots) * tdma_slot;
  const double k = std::ceil((ready - offset) / round - 1e-9);
  return std::max(0.0, k) * round + offset;
}

void ArchitectureGraph::set_tdma(MediumId m, Time slot, std::size_t slots) {
  if (m >= media_.size()) throw std::out_of_range("set_tdma: bad medium");
  if (slot <= 0.0) throw std::invalid_argument("set_tdma: slot must be > 0");
  if (slots == 0) throw std::invalid_argument("set_tdma: slots must be >= 1");
  media_[m].arbitration = Arbitration::kTdma;
  media_[m].tdma_slot = slot;
  media_[m].tdma_slots = slots;
}

void ArchitectureGraph::set_can(MediumId m, Time blocking) {
  if (m >= media_.size()) throw std::out_of_range("set_can: bad medium");
  if (blocking < 0.0) {
    throw std::invalid_argument("set_can: negative blocking time");
  }
  media_[m].arbitration = Arbitration::kCanPriority;
  media_[m].can_blocking = blocking;
}

void ArchitectureGraph::set_background_load(MediumId m, double load) {
  if (m >= media_.size()) {
    throw std::out_of_range("set_background_load: bad medium");
  }
  if (load < 0.0 || load >= 1.0) {
    throw std::invalid_argument(
        "set_background_load: load must be in [0, 1)");
  }
  media_[m].background_load = load;
}

ProcId ArchitectureGraph::add_processor(std::string name, std::string type) {
  if (name.empty()) throw std::invalid_argument("add_processor: empty name");
  for (const Processor& p : procs_) {
    if (p.name == name) {
      throw std::invalid_argument("add_processor: duplicate name '" + name + "'");
    }
  }
  procs_.push_back(Processor{std::move(name), std::move(type)});
  proc_media_.emplace_back();
  return procs_.size() - 1;
}

MediumId ArchitectureGraph::add_medium(std::string name, double bandwidth,
                                       Time latency) {
  if (bandwidth <= 0.0) {
    throw std::invalid_argument("add_medium: bandwidth must be > 0");
  }
  if (latency < 0.0) throw std::invalid_argument("add_medium: negative latency");
  media_.push_back(Medium{std::move(name), bandwidth, latency});
  medium_procs_.emplace_back();
  return media_.size() - 1;
}

void ArchitectureGraph::attach(ProcId p, MediumId m) {
  if (p >= procs_.size() || m >= media_.size()) {
    throw std::out_of_range("attach: id out of range");
  }
  auto& pm = proc_media_[p];
  if (std::find(pm.begin(), pm.end(), m) != pm.end()) return;  // idempotent
  pm.push_back(m);
  medium_procs_[m].push_back(p);
}

ProcId ArchitectureGraph::find_processor(const std::string& name) const {
  for (ProcId i = 0; i < procs_.size(); ++i) {
    if (procs_[i].name == name) return i;
  }
  throw std::out_of_range("find_processor: no processor named '" + name + "'");
}

MediumId ArchitectureGraph::find_medium(const std::string& name) const {
  for (MediumId i = 0; i < media_.size(); ++i) {
    if (media_[i].name == name) return i;
  }
  throw std::out_of_range("find_medium: no medium named '" + name + "'");
}

ArchitectureGraph ArchitectureGraph::bus_architecture(std::size_t n,
                                                      double bandwidth,
                                                      Time latency,
                                                      const std::string& type) {
  if (n == 0) throw std::invalid_argument("bus_architecture: n must be >= 1");
  ArchitectureGraph arch("bus-" + std::to_string(n));
  const MediumId bus =
      n > 1 ? arch.add_medium("bus", bandwidth, latency) : kNone;
  for (std::size_t i = 0; i < n; ++i) {
    std::string name = "P";
    name += std::to_string(i);
    const ProcId p = arch.add_processor(name, type);
    if (bus != kNone) arch.attach(p, bus);
  }
  return arch;
}

}  // namespace ecsim::aaa
