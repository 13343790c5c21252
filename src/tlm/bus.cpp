#include "tlm/bus.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace symbad::tlm {

namespace {

constexpr std::uint64_t kWordBytes = 4;

/// The bus clock period, after checking that `config` is one the model can
/// time: a clock Time::period_of_hz accepts, and bursts that take at least
/// one cycle per beat.
sim::Time checked_period(const Bus::Config& config, const std::string& name) {
  const auto rejected = [&name](const std::string& what) {
    return std::invalid_argument{"bus '" + name + "': " + what};
  };
  if (config.arbitration_cycles < 0) throw rejected("arbitration_cycles must be >= 0");
  if (config.cycles_per_beat < 1) throw rejected("cycles_per_beat must be >= 1");
  try {
    return sim::Time::period_of_hz(config.clock_hz);
  } catch (const std::invalid_argument& e) {
    throw rejected(std::string{"clock_hz: "} + e.what());
  }
}

}  // namespace

Bus::Bus(sim::Kernel& kernel, std::string name, Config config)
    : Module{kernel, std::move(name)},
      config_{config},
      period_{checked_period(config, this->name())},
      grant_{kernel, this->name() + ".grant"} {}

void Bus::map(std::uint64_t base, std::uint64_t size, Target& target) {
  if (size == 0) throw std::invalid_argument{"bus: zero-size mapping"};
  if (size - 1 > std::numeric_limits<std::uint64_t>::max() - base) {
    throw std::invalid_argument{"bus: mapping wraps past 2^64"};
  }
  const std::uint64_t last = base + (size - 1);
  for (const auto& m : map_) {
    if (base <= m.base + (m.size - 1) && m.base <= last) {
      throw std::invalid_argument{"bus: mapping overlaps '" + m.target->target_name() +
                                  "'"};
    }
  }
  map_.push_back(Mapping{base, size, &target});
}

const Bus::Mapping& Bus::resolve(std::uint64_t address) const {
  for (const auto& m : map_) {
    if (address - m.base < m.size) return m;  // unsigned: false below base too
  }
  throw std::out_of_range{"bus '" + name() + "': access to unmapped address " +
                          std::to_string(address)};
}

sim::Time Bus::burst_time(const Target& target, const Payload& payload) const {
  const std::int64_t bus_cycles =
      config_.arbitration_cycles +
      static_cast<std::int64_t>(config_.cycles_per_beat) * payload.beats;
  return sim::Time::cycles(bus_cycles, period_) + target.access_latency(payload);
}

sim::Time Bus::transaction_time(const Payload& payload) const {
  return burst_time(*resolve(payload.address).target, payload);
}

sim::Task<void> Bus::stream(Payload payload, std::uint32_t max_burst) {
  if (max_burst == 0) {
    throw std::invalid_argument{"bus '" + name() + "': a burst moves at least one beat"};
  }
  if (payload.beats == 0) co_return;
  // A free grant is taken on the spot. Awaiting `lock()` on a free grant
  // would finish without a kernel event too, but costs a coroutine frame.
  if (!grant_.try_lock()) {
    const sim::Time requested_at = kernel().now();
    co_await grant_.lock();
    const sim::Time waited = kernel().now() - requested_at;
    if (waited > worst_wait_) worst_wait_ = waited;
    total_wait_ += waited;
  }

  std::uint32_t remaining = payload.beats;
  Payload burst = payload;
  const Target* timed = nullptr;  // the target `full` was timed at
  sim::Time full;                 // one max_burst-beat burst's occupancy there
  try {
    while (remaining > 0) {
      // One wake. Issue the next burst, and after it every burst of the same
      // mapping that ends before another callback can run: nothing observes
      // them early, so count them all now and complete them when the last
      // one ends.
      const Mapping m = resolve(burst.address);
      if (m.target != timed) {
        timed = m.target;
        full = burst_time(*timed, Payload{payload.command, burst.address, max_burst,
                                          payload.initiator});
      }
      const sim::Time window = kernel().quiet_until() - kernel().now();
      sim::Time span;
      std::uint32_t moved = 0;
      std::uint64_t bursts = 0;
      Payload next = burst;
      while (moved < remaining && next.address - m.base < m.size) {
        next.beats = std::min(remaining - moved, max_burst);
        const sim::Time d = next.beats == max_burst ? full : burst_time(*m.target, next);
        if (bursts > 0 && !(d > sim::Time::zero() && d < window - span)) break;
        span += d;
        moved += next.beats;
        ++bursts;
        next.address += kWordBytes * next.beats;
      }
      busy_ += span;
      transactions_ += bursts;
      beats_ += moved;
      co_await kernel().wait(span);
      for (; bursts > 0; --bursts) {
        burst.beats = std::min(remaining, max_burst);
        m.target->complete(burst);
        burst.address += kWordBytes * burst.beats;
        remaining -= burst.beats;
      }
    }
  } catch (...) {
    // A burst to an unmapped address throws: release the grant before the
    // exception leaves, or every other initiator would wait on it forever.
    grant_.unlock();
    throw;
  }
  grant_.unlock();
}

}  // namespace symbad::tlm
