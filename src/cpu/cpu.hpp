#pragma once
// Timing-annotated CPU model (the paper's ARM7TDMI-class processor).
//
// The paper's level-2 methodology deliberately avoids an instruction-set
// simulator: "Cycle accurate timing of SW can be automatically extracted by
// Vista based on a library of model(s) of available processor(s). Annotation
// into SystemC models of SW part is fully automated." We reproduce exactly
// that: the software runs natively (the reference C model computes the real
// data) and only its *timing* is modelled, by converting profiled operation
// counts into cycles through a per-processor CPI table.

#include <cstdint>
#include <string>

#include "sim/module.hpp"
#include "tlm/bus.hpp"

namespace symbad::cpu {

/// Processor timing parameters.
struct CpuConfig {
  std::string model = "ARM7TDMI";
  double clock_hz = 50e6;
  /// Effective cycles per profiled operation for integer image code
  /// (covers instruction overhead, load/store and pipeline stalls).
  double cycles_per_op = 1.8;
  /// Fraction of operations that touch memory through the bus; folded into
  /// `cycles_per_op` for timing, but used to estimate energy.
  double memory_op_fraction = 0.25;
};

/// Converts profiled operation counts into annotated execution time.
class TimingModel {
public:
  explicit TimingModel(CpuConfig config)
      : config_{std::move(config)},
        period_{sim::Time::period_of_hz(config_.clock_hz)} {}

  [[nodiscard]] sim::Time annotate(std::uint64_t ops) const {
    const double cycles = static_cast<double>(ops) * config_.cycles_per_op;
    return sim::Time::cycles(static_cast<std::int64_t>(cycles), period_);
  }
  [[nodiscard]] std::uint64_t cycles_for(std::uint64_t ops) const {
    return static_cast<std::uint64_t>(static_cast<double>(ops) * config_.cycles_per_op);
  }
  [[nodiscard]] const CpuConfig& config() const noexcept { return config_; }
  [[nodiscard]] sim::Time clock_period() const noexcept { return period_; }

private:
  CpuConfig config_;
  sim::Time period_;
};

/// The processor as a platform component: executes annotated software
/// sections and initiates bus transfers. The collapsed SW task of level 2
/// ("SW modules have been collapsed to a single large SW task") runs on one
/// of these.
class CpuModel : public sim::Module {
public:
  CpuModel(sim::Kernel& kernel, std::string name, CpuConfig config, tlm::Bus& bus)
      : Module{kernel, std::move(name)},
        timing_{std::move(config)},
        bus_{&bus} {}

  /// Models the execution of a software section of `ops` profiled
  /// operations (suspends for the annotated time).
  [[nodiscard]] sim::Task<void> execute(std::uint64_t ops) {
    const sim::Time t = timing_.annotate(ops);
    busy_ += t;
    ops_executed_ += ops;
    co_await kernel().wait(t);
  }

  /// Issues a burst read/write on the system bus.
  [[nodiscard]] sim::Task<void> bus_read(std::uint64_t address, std::uint32_t beats) {
    co_await bus_->transport(
        tlm::Payload{tlm::Command::read, address, beats, name().c_str()});
  }
  [[nodiscard]] sim::Task<void> bus_write(std::uint64_t address, std::uint32_t beats) {
    co_await bus_->transport(
        tlm::Payload{tlm::Command::write, address, beats, name().c_str()});
  }

  [[nodiscard]] const TimingModel& timing() const noexcept { return timing_; }
  [[nodiscard]] tlm::Bus& bus() const noexcept { return *bus_; }
  [[nodiscard]] sim::Time busy_time() const noexcept { return busy_; }
  [[nodiscard]] std::uint64_t ops_executed() const noexcept { return ops_executed_; }
  /// Processor utilisation over elapsed simulated time, in [0,1].
  [[nodiscard]] double utilisation() const noexcept {
    const auto now = kernel().now();
    return now.is_zero() ? 0.0 : busy_.to_seconds() / now.to_seconds();
  }

private:
  TimingModel timing_;
  tlm::Bus* bus_;
  sim::Time busy_;
  std::uint64_t ops_executed_ = 0;
};

}  // namespace symbad::cpu
