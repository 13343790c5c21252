#pragma once
// Property Coverage Checker (paper §3.4, ref [13]).
//
// "How many properties should the verification engineer define to
// completely check the implementation?" PCC answers by fault grading the
// *property set*: inject each high-level (stuck-at bit) fault into the RTL
// and ask whether at least one property fails on the faulty design. A fault
// no property detects marks behaviour the property set does not constrain —
// a hint that a property is missing.
//
// Detection mixes functional and formal verification exactly as [13]
// advocates: a cheap random-simulation pre-pass first, then bounded model
// checking on the faulty netlist for the faults simulation missed. Both
// stages work on one cone of influence of the properties' observed outputs
// (mc::table_cone), computed once per campaign: the pre-pass simulates only
// the cone, and a missed fault outside it is undetected without a formal
// check.

#include <cstdint>
#include <vector>

#include "mc/mc.hpp"
#include "rtl/netlist.hpp"

namespace symbad::pcc {

/// A stuck-at fault no property detects.
struct FaultOutcome {
  rtl::Net net = -1;
  bool stuck_to = false;
};

/// Verdicts of one campaign. Its cost lives only in the `pcc.*` registry
/// counters: besides the verdict tallies, pcc.sim_passes and the
/// formal-grading footprint summed over the faults that reached BMC,
/// pcc.encoded_vars/clauses (solver size per fault). All deterministic.
struct PccReport {
  std::size_t total_faults = 0;
  std::size_t detected = 0;
  std::size_t detected_by_simulation = 0;
  std::size_t detected_by_bmc = 0;
  std::vector<FaultOutcome> undetected;  ///< the missing-property hints
  /// Simulation-missed faults classified undetected without a formal check
  /// because their net lies outside the observed cone: no stimulus can make
  /// them change an observed output. Counted inside `undetected` too — the
  /// prune changes cost, never verdicts.
  std::size_t lint_pruned_faults = 0;

  [[nodiscard]] double coverage_percent() const noexcept {
    return total_faults == 0
               ? 100.0
               : 100.0 * static_cast<double>(detected) / static_cast<double>(total_faults);
  }
};

struct PccOptions {
  int bmc_bound = 12;
  int simulation_cycles = 64;
  int simulation_runs = 4;
  /// Evaluate at most this many faults (0 = all), sampled uniformly.
  std::size_t max_faults = 0;
  std::uint64_t seed = 0x9CC5EEDULL;
};

/// Grades `properties` against stuck-at faults on every internal net of
/// `netlist`.
[[nodiscard]] PccReport check_property_coverage(const rtl::Netlist& netlist,
                                                const std::vector<mc::Property>& properties,
                                                const PccOptions& options);

}  // namespace symbad::pcc
