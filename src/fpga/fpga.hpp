#pragma once
// Embedded-FPGA model with run-time reconfigurable contexts (paper §3.3).
//
// "The characteristics of the reconfigurable hardware consist in a set of
// FPGA configurations which can be changed by the software at run-time.
// Each configuration contains a fixed set of computing resources."
//
// The model captures exactly what level 3 needs:
//  * a set of contexts, each naming the functions it implements, its
//    bitstream size and an area estimate;
//  * `load_context`, which downloads the bitstream *through the system bus*
//    (so reconfiguration shows up as bus loading) and then programs the
//    fabric;
//  * `run_function`, which executes an accelerated function — and records a
//    consistency violation if the function is absent from the currently
//    loaded context (the property SymbC proves statically).
//
// Contexts and the functions they implement are resolved to indices at
// construction (`context_index`, `function_index`); the run path compares
// integers only.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/module.hpp"
#include "tlm/bus.hpp"

namespace symbad::fpga {

/// One reconfigurable context ("config1", "config2", ... in the paper).
struct ContextConfig {
  std::string name;
  std::vector<std::string> functions;  ///< functions available when loaded
  std::uint32_t bitstream_words = 4096;  ///< download size in bus beats
  double area_units = 1000.0;           ///< fabric area this context occupies
};

/// A recorded violation of the reconfiguration-consistency property.
struct ConsistencyViolation {
  sim::Time at;
  std::string function;
  std::string loaded_context;  ///< "<none>" when nothing loaded
};

class FpgaDevice : public sim::Module {
public:
  struct Config {
    double fabric_clock_hz = 25e6;
    /// Speed-up of a function on fabric relative to 1 op/cycle software.
    double ops_per_cycle = 8.0;
    /// Fabric programming time after the bitstream arrives.
    sim::Time programming_time = sim::Time::us(20);
    /// Bus address window where bitstreams are stored (flash).
    std::uint64_t bitstream_base = 0x4000'0000;
    /// Abort simulation on a consistency violation instead of recording it.
    bool trap_on_violation = false;
  };

  FpgaDevice(sim::Kernel& kernel, std::string name, std::vector<ContextConfig> contexts,
             tlm::Bus& bus, Config config);

  // ------------------------------------------------------- name lookup
  /// Index of the named context in `contexts()`; throws std::out_of_range
  /// for an unknown name.
  [[nodiscard]] std::size_t context_index(const std::string& name) const;
  /// Index of a function some context implements, in first-declared order
  /// over `contexts()`; throws std::out_of_range for a function no context
  /// implements.
  [[nodiscard]] std::size_t function_index(const std::string& fn) const;

  // ------------------------------------------------------ reconfiguration
  /// Downloads context `context`'s bitstream over the bus and programs the
  /// fabric. No-op (fast path) if the context is already loaded. Throws
  /// std::out_of_range for an index outside `contexts()`.
  [[nodiscard]] sim::Task<void> load_context(std::size_t context);

  /// Executes function `fn` (`ops` profiled operations) on the fabric. If
  /// `fn` is not in the loaded context, a consistency violation is recorded
  /// (or thrown, per Config::trap_on_violation) and the call degrades to a
  /// long software-emulation delay — mirroring a real system reading
  /// garbage.
  [[nodiscard]] sim::Task<void> run_function(std::size_t fn, std::uint64_t ops);

  // ----------------------------------------------------------- queries
  /// Name of the loaded context; empty while none is loaded.
  [[nodiscard]] const std::string& current_context() const noexcept;
  [[nodiscard]] bool context_loaded() const noexcept { return current_ != kNone; }
  [[nodiscard]] bool function_available(std::size_t fn) const noexcept {
    return current_ != kNone && fn < functions_.size() &&
           implements_[current_ * functions_.size() + fn] != 0;
  }
  [[nodiscard]] const std::vector<ContextConfig>& contexts() const noexcept {
    return contexts_;
  }
  [[nodiscard]] sim::Time function_time(std::uint64_t ops) const;

  // -------------------------------------------------------------- stats
  [[nodiscard]] std::uint64_t reconfiguration_count() const noexcept {
    return reconfigurations_;
  }
  [[nodiscard]] sim::Time reconfiguration_time() const noexcept { return reconfig_time_; }
  [[nodiscard]] sim::Time compute_time() const noexcept { return compute_time_; }
  [[nodiscard]] std::uint64_t functions_executed() const noexcept {
    return functions_executed_;
  }
  [[nodiscard]] const std::vector<ConsistencyViolation>& violations() const noexcept {
    return violations_;
  }

private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  std::vector<ContextConfig> contexts_;
  std::vector<std::string> functions_;   ///< function index -> name
  std::vector<std::uint8_t> implements_;  ///< [context][function] membership
  tlm::Bus* bus_;
  Config config_;
  sim::Time fabric_period_;
  std::size_t current_ = kNone;  ///< loaded context index
  std::uint64_t reconfigurations_ = 0;
  sim::Time reconfig_time_;
  sim::Time compute_time_;
  std::uint64_t functions_executed_ = 0;
  std::vector<ConsistencyViolation> violations_;
};

}  // namespace symbad::fpga
