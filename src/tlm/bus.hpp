#pragma once
// Transaction-level platform interconnect (the paper's AMBA-class bus).
//
// Level 2 of the flow replaces level-1 point-to-point channels with a shared
// bus: "providing the HW with a communication architecture (busses, point to
// point communication, shared variables)". The model is loosely timed:
// a burst occupies the bus for
// (arbitration + beats * cycles_per_beat) * clock_period + target_latency
// and serialises against all other initiators. `stream` moves a run of
// words as back-to-back bursts under one grant; `transport` is its
// one-burst case. Per-component statistics feed the performance-evaluation
// step ("the best compromise between power consumption, bus loading and
// memory accesses").

#include <cstdint>
#include <string>
#include <vector>

#include "sim/channels.hpp"
#include "sim/module.hpp"

namespace symbad::tlm {

enum class Command : std::uint8_t { read, write };

/// A bus transaction: `beats` data words moved to/from `address`.
struct Payload {
  Command command = Command::read;
  std::uint64_t address = 0;
  std::uint32_t beats = 1;
  const char* initiator = "?";  ///< for statistics / debug
};

/// Something mapped into the bus address space.
class Target {
public:
  virtual ~Target() = default;
  /// Device-side latency added to the bus occupancy for this access. It may
  /// depend on the command and the beat count, not on the address: a stream
  /// times all of its full bursts to one target once.
  [[nodiscard]] virtual sim::Time access_latency(const Payload& payload) const = 0;
  /// Side effects (statistics, storage) after the access completes.
  virtual void complete([[maybe_unused]] const Payload& payload) {}
  [[nodiscard]] virtual const std::string& target_name() const = 0;
};

/// Shared-bus model with exclusive-grant arbitration.
class Bus : public sim::Module {
public:
  struct Config {
    double clock_hz = 50e6;
    int arbitration_cycles = 1;
    int cycles_per_beat = 1;
  };

  /// Throws std::invalid_argument for a clock that is not finite, not
  /// positive or too fast for a whole-picosecond period, for negative
  /// `arbitration_cycles` and for `cycles_per_beat < 1`.
  Bus(sim::Kernel& kernel, std::string name, Config config);

  /// Maps `[base, base+size)` to `target`. Throws std::invalid_argument for
  /// an empty range, one that wraps past 2^64 or one that overlaps another.
  void map(std::uint64_t base, std::uint64_t size, Target& target);

  /// Moves `payload.beats` words (4 bytes each) from `payload.address` on as
  /// back-to-back bursts of at most `max_burst` beats, holding the grant from
  /// the first burst to the last. The first burst arbitrates like any
  /// transaction; every burst counts as one transaction, and the target
  /// completes each at the wake that ends it. No words: no transaction. Throws
  /// std::invalid_argument for `max_burst == 0`, and std::out_of_range at
  /// the start of a burst whose address is unmapped, after releasing the
  /// grant.
  ///
  /// The grant is not fair, so a per-burst release would be re-taken before
  /// any waiter woke: holding it changes nothing. The stream wakes once per
  /// quiet stretch (`Kernel::quiet_until`), not once per burst: it issues
  /// every burst that ends before another callback can run — at least one —
  /// and waits for the last.
  [[nodiscard]] sim::Task<void> stream(Payload payload, std::uint32_t max_burst);

  /// Blocking transport of one burst: `stream(payload, payload.beats)`.
  [[nodiscard]] sim::Task<void> transport(Payload payload) {
    return stream(payload, payload.beats);
  }

  /// Pure timing query: duration one transaction occupies the bus.
  [[nodiscard]] sim::Time transaction_time(const Payload& payload) const;

  [[nodiscard]] sim::Time clock_period() const noexcept { return period_; }

  // ------------------------------------------------------------- stats
  [[nodiscard]] std::uint64_t transactions() const noexcept { return transactions_; }
  [[nodiscard]] std::uint64_t beats_transferred() const noexcept { return beats_; }
  [[nodiscard]] sim::Time busy_time() const noexcept { return busy_; }
  /// Bus load in [0,1] over the elapsed simulated time.
  [[nodiscard]] double load() const noexcept {
    const auto now = kernel().now();
    return now.is_zero() ? 0.0 : busy_.to_seconds() / now.to_seconds();
  }
  /// Longest time any initiator waited for the grant.
  [[nodiscard]] sim::Time worst_grant_wait() const noexcept { return worst_wait_; }
  /// Summed grant-wait time across all transactions (contention pressure:
  /// heavy-tailed traffic shows up here long before it moves the worst case).
  [[nodiscard]] sim::Time total_grant_wait() const noexcept { return total_wait_; }

private:
  struct Mapping {
    std::uint64_t base;
    std::uint64_t size;
    Target* target;
  };
  /// The mapping holding `address`; throws std::out_of_range.
  [[nodiscard]] const Mapping& resolve(std::uint64_t address) const;
  /// Bus occupancy of `payload` at `target`.
  [[nodiscard]] sim::Time burst_time(const Target& target, const Payload& payload) const;

  Config config_;
  sim::Time period_;
  sim::Mutex grant_;
  std::vector<Mapping> map_;
  std::uint64_t transactions_ = 0;
  std::uint64_t beats_ = 0;
  sim::Time busy_;
  sim::Time worst_wait_;
  sim::Time total_wait_;
};

/// Timing-level memory model (SRAM / flash): fixed first-access latency plus
/// optional per-beat wait states.
class Memory : public Target {
public:
  struct Config {
    int first_access_cycles = 1;
    int wait_states_per_beat = 0;
  };

  Memory(std::string name, sim::Time bus_period, Config config)
      : name_{std::move(name)}, period_{bus_period}, config_{config} {}

  [[nodiscard]] sim::Time access_latency(const Payload& payload) const override {
    const std::int64_t cycles =
        config_.first_access_cycles +
        static_cast<std::int64_t>(config_.wait_states_per_beat) * payload.beats;
    return sim::Time::cycles(cycles, period_);
  }
  void complete(const Payload& payload) override {
    ++accesses_;
    if (payload.command == Command::read) {
      read_beats_ += payload.beats;
    } else {
      write_beats_ += payload.beats;
    }
  }
  [[nodiscard]] const std::string& target_name() const override { return name_; }

  [[nodiscard]] std::uint64_t accesses() const noexcept { return accesses_; }
  [[nodiscard]] std::uint64_t read_beats() const noexcept { return read_beats_; }
  [[nodiscard]] std::uint64_t write_beats() const noexcept { return write_beats_; }

private:
  std::string name_;
  sim::Time period_;
  Config config_;
  std::uint64_t accesses_ = 0;
  std::uint64_t read_beats_ = 0;
  std::uint64_t write_beats_ = 0;
};

}  // namespace symbad::tlm
