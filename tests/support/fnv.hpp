// FNV-1a 64 digests of exact bits, for golden tests that pin results
// captured from an earlier implementation.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

namespace ecsim::testing {

class Fnv1a {
 public:
  /// Folds the 8 bytes of `v`, least significant first.
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  /// Folds the bit pattern of `v`.
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  /// Folds each character as one 64-bit word.
  void add(const std::string& s) {
    for (const char c : s) add(static_cast<std::uint64_t>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace ecsim::testing
