#include "fault/comm_gate.hpp"

#include "mathlib/rng.hpp"

namespace ecsim::fault {

double fault_draw(std::uint64_t seed, std::size_t fault, std::size_t entity,
                  std::size_t iteration) {
  return math::keyed_rng(seed ^ math::mix64(0x6661756c74ULL + fault),
                         0x656e74ULL + entity, iteration)
      .uniform();
}

CommGateAction comm_gate_decide(const CommGate& gate, std::size_t k) {
  bool lost = false;
  double extra_delay = 0.0;
  std::size_t extra_copies = 0;
  const double nominal = static_cast<double>(k) * gate.period;
  for (const CommGateEntry& e : gate.entries) {
    if (nominal < e.t_start || nominal >= e.t_stop) continue;
    if (fault_draw(gate.seed, e.fault, gate.comm_index, k) >= e.probability) {
      continue;
    }
    switch (e.kind) {
      case CommGateEntry::Kind::kLoss:
        lost = true;
        break;
      case CommGateEntry::Kind::kDelay:
        extra_delay += e.delay;
        break;
      case CommGateEntry::Kind::kDuplicate:
        extra_copies += e.extra_copies;
        break;
    }
  }
  if (lost) return {true, 0.0};
  return {false, extra_delay + static_cast<double>(extra_copies) *
                                   gate.transfer_duration};
}

}  // namespace ecsim::fault
