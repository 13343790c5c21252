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
// checking on the faulty netlist for the faults simulation missed.

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
  /// Faults classified undetected by the lint::FaultPruner proof instead of
  /// a BMC run (PccOptions::lint_prune). Counted inside `undetected` too —
  /// the prune changes cost, never verdicts.
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
  /// Skip the BMC stage for faults a lint::FaultPruner proves undetectable
  /// (outside every observed-output cone; under SYMBAD_LINT=2 also sites
  /// whose net provably equals the stuck value). The simulation pre-pass
  /// still runs for every fault, on the observed cone — it consumes the
  /// shared campaign rng, and skipping it would shift the stimuli of later
  /// faults. Exactness is guarded by a one-time fault-free BMC probe: a
  /// pruned fault is reported undetected only if the *good* design passes
  /// every property (else the prune is disabled for the campaign). Verdicts
  /// and coverage are identical with the prune on or off; gated globally by
  /// SYMBAD_LINT=0.
  bool lint_prune = true;
};

/// Grades `properties` against stuck-at faults on every internal net of
/// `netlist`.
[[nodiscard]] PccReport check_property_coverage(const rtl::Netlist& netlist,
                                                const std::vector<mc::Property>& properties,
                                                const PccOptions& options);

}  // namespace symbad::pcc
