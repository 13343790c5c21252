#pragma once
// The high-level bit fault model ("bit coverage", paper refs [6][13]).
//
// A bit fault forces one bit of a module-boundary datum (an input or output
// port word) to a constant. The ATPG grades testbenches by the fraction of
// such faults whose injection changes an observable output; PCC grades
// property sets by the fraction of RTL faults that make some property fail.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace symbad::verif {

enum class PortDirection : std::uint8_t { input, output };

/// One stuck-at fault on a bit of a named port of a named stage.
struct BitFault {
  std::string stage;       ///< pipeline stage / module name
  PortDirection port = PortDirection::output;
  int word_index = 0;      ///< which element of the port's data
  int bit = 0;             ///< which bit of that element
  bool stuck_to = false;   ///< forced value

  [[nodiscard]] std::string to_string() const {
    return stage + (port == PortDirection::input ? ".in[" : ".out[") +
           std::to_string(word_index) + "]:" + std::to_string(bit) +
           (stuck_to ? "/SA1" : "/SA0");
  }
  bool operator==(const BitFault&) const = default;
};

/// Applies `fault` to `value` if the fault targets `word_index`.
/// `fault.bit` must be in [0, 31].
[[nodiscard]] constexpr std::uint32_t apply_bit_fault(std::uint32_t value, int word_index,
                                                      const BitFault& fault) noexcept {
  if (fault.word_index != word_index) return value;
  const std::uint32_t mask = std::uint32_t{1} << fault.bit;
  return fault.stuck_to ? (value | mask) : (value & ~mask);
}

/// Result of grading a fault list against a testbench.
struct FaultGrade {
  std::size_t total = 0;
  std::size_t detected = 0;

  [[nodiscard]] double percent() const noexcept {
    return total == 0 ? 100.0 : 100.0 * static_cast<double>(detected) /
                                    static_cast<double>(total);
  }
};

/// Enumerates stuck-at-0/1 faults over `words` elements x `bits` bits of one
/// port (both polarities). Throws for `bits` outside [0, 32]: a port word
/// is at most 32 bits wide.
[[nodiscard]] inline std::vector<BitFault> enumerate_port_faults(
    const std::string& stage, PortDirection port, int words, int bits) {
  if (bits < 0 || bits > 32) {
    throw std::invalid_argument{"enumerate_port_faults: bits must be in [0, 32]"};
  }
  std::vector<BitFault> faults;
  faults.reserve(static_cast<std::size_t>(words) * static_cast<std::size_t>(bits) * 2);
  for (int w = 0; w < words; ++w) {
    for (int b = 0; b < bits; ++b) {
      faults.push_back(BitFault{stage, port, w, b, false});
      faults.push_back(BitFault{stage, port, w, b, true});
    }
  }
  return faults;
}

}  // namespace symbad::verif
