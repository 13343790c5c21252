#include "tlm/bus.hpp"

#include <stdexcept>

namespace symbad::tlm {

Bus::Bus(sim::Kernel& kernel, std::string name, Config config)
    : Module{kernel, std::move(name)},
      config_{config},
      period_{sim::Time::period_of_hz(config.clock_hz)},
      grant_{kernel, this->name() + ".grant"} {}

void Bus::map(std::uint64_t base, std::uint64_t size, Target& target) {
  if (size == 0) throw std::invalid_argument{"bus: zero-size mapping"};
  for (const auto& m : map_) {
    const bool disjoint = base + size <= m.base || m.base + m.size <= base;
    if (!disjoint) {
      throw std::invalid_argument{"bus: mapping overlaps '" + m.target->target_name() +
                                  "'"};
    }
  }
  map_.push_back(Mapping{base, size, &target});
}

Target& Bus::resolve(std::uint64_t address) const {
  for (const auto& m : map_) {
    if (address >= m.base && address < m.base + m.size) return *m.target;
  }
  throw std::out_of_range{"bus '" + name() + "': access to unmapped address " +
                          std::to_string(address)};
}

sim::Time Bus::transaction_time(const Payload& payload) const {
  Target& target = resolve(payload.address);
  const std::int64_t bus_cycles =
      config_.arbitration_cycles +
      static_cast<std::int64_t>(config_.cycles_per_beat) * payload.beats;
  return sim::Time::cycles(bus_cycles, period_) + target.access_latency(payload);
}

sim::Task<void> Bus::transport(Payload payload) {
  // A free grant is taken on the spot. Awaiting `lock()` on a free grant
  // would finish without a kernel event too, but costs a coroutine frame.
  if (!grant_.try_lock()) {
    const sim::Time requested_at = kernel().now();
    co_await grant_.lock();
    const sim::Time waited = kernel().now() - requested_at;
    if (waited > worst_wait_) worst_wait_ = waited;
    total_wait_ += waited;
  }

  Target& target = resolve(payload.address);
  const sim::Time duration = transaction_time(payload);
  busy_ += duration;
  ++transactions_;
  beats_ += payload.beats;
  co_await kernel().wait(duration);
  target.complete(payload);
  grant_.unlock();
}

}  // namespace symbad::tlm
