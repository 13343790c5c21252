#pragma once
// The per-burst bus model that `tlm::Bus::stream` replaced, kept as the
// reference the stream is compared against (test_platform's
// `Bus.StreamMatchesPerBurstTransports`). Every transaction here takes the
// grant, waits out its own occupancy in one kernel wait, completes at the
// target and releases the grant (also when an unmapped address throws);
// `stream` is the loop that chopped a run of words into bursts of at most
// `max_burst` beats, one `transport` each.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/channels.hpp"
#include "tlm/bus.hpp"

namespace symbad::test_support {

class ReferenceBus {
public:
  ReferenceBus(sim::Kernel& kernel, std::string name, tlm::Bus::Config config)
      : kernel_{&kernel},
        name_{std::move(name)},
        config_{config},
        period_{sim::Time::period_of_hz(config.clock_hz)},
        grant_{kernel, name_ + ".grant"} {}

  void map(std::uint64_t base, std::uint64_t size, tlm::Target& target) {
    map_.push_back(Mapping{base, size, &target});
  }

  sim::Task<void> transport(tlm::Payload payload) {
    if (!grant_.try_lock()) {
      const sim::Time requested_at = kernel_->now();
      co_await grant_.lock();
      const sim::Time waited = kernel_->now() - requested_at;
      if (waited > worst_wait_) worst_wait_ = waited;
      total_wait_ += waited;
    }
    tlm::Target* target = nullptr;
    sim::Time duration;
    try {
      target = &resolve(payload.address);
      duration = transaction_time(payload);
    } catch (...) {
      grant_.unlock();  // an unmapped burst releases the grant as it throws
      throw;
    }
    busy_ += duration;
    ++transactions_;
    beats_ += payload.beats;
    co_await kernel_->wait(duration);
    target->complete(payload);
    grant_.unlock();
  }

  sim::Task<void> stream(tlm::Payload payload, std::uint32_t max_burst) {
    std::uint32_t remaining = payload.beats;
    std::uint64_t address = payload.address;
    while (remaining > 0) {
      const std::uint32_t beats = remaining < max_burst ? remaining : max_burst;
      co_await transport(tlm::Payload{payload.command, address, beats, payload.initiator});
      address += beats * 4ull;
      remaining -= beats;
    }
  }

  [[nodiscard]] sim::Time transaction_time(const tlm::Payload& payload) const {
    const tlm::Target& target = resolve(payload.address);
    const std::int64_t bus_cycles =
        config_.arbitration_cycles +
        static_cast<std::int64_t>(config_.cycles_per_beat) * payload.beats;
    return sim::Time::cycles(bus_cycles, period_) + target.access_latency(payload);
  }

  [[nodiscard]] sim::Time clock_period() const noexcept { return period_; }
  [[nodiscard]] std::uint64_t transactions() const noexcept { return transactions_; }
  [[nodiscard]] std::uint64_t beats_transferred() const noexcept { return beats_; }
  [[nodiscard]] sim::Time busy_time() const noexcept { return busy_; }
  [[nodiscard]] sim::Time worst_grant_wait() const noexcept { return worst_wait_; }
  [[nodiscard]] sim::Time total_grant_wait() const noexcept { return total_wait_; }

private:
  struct Mapping {
    std::uint64_t base;
    std::uint64_t size;
    tlm::Target* target;
  };

  [[nodiscard]] tlm::Target& resolve(std::uint64_t address) const {
    for (const auto& m : map_) {
      if (address >= m.base && address < m.base + m.size) return *m.target;
    }
    throw std::out_of_range{"bus '" + name_ + "': access to unmapped address " +
                            std::to_string(address)};
  }

  sim::Kernel* kernel_;
  std::string name_;
  tlm::Bus::Config config_;
  sim::Time period_;
  sim::Mutex grant_;
  std::vector<Mapping> map_;
  std::uint64_t transactions_ = 0;
  std::uint64_t beats_ = 0;
  sim::Time busy_;
  sim::Time worst_wait_;
  sim::Time total_wait_;
};

}  // namespace symbad::test_support
