#include "fpga/fpga.hpp"

#include <stdexcept>

namespace symbad::fpga {

FpgaDevice::FpgaDevice(sim::Kernel& kernel, std::string name,
                       std::vector<ContextConfig> contexts, tlm::Bus& bus, Config config)
    : Module{kernel, std::move(name)},
      contexts_{std::move(contexts)},
      bus_{&bus},
      config_{config},
      fabric_period_{sim::Time::period_of_hz(config.fabric_clock_hz)} {
  if (contexts_.empty()) {
    throw std::invalid_argument{"fpga: at least one context required"};
  }
  for (std::size_t i = 0; i < contexts_.size(); ++i) {
    for (std::size_t j = i + 1; j < contexts_.size(); ++j) {
      if (contexts_[i].name == contexts_[j].name) {
        throw std::invalid_argument{"fpga: duplicate context name '" +
                                    contexts_[i].name + "'"};
      }
    }
  }
  for (const auto& ctx : contexts_) {
    for (const auto& fn : ctx.functions) {
      bool known = false;
      for (const auto& f : functions_) known |= f == fn;
      if (!known) functions_.push_back(fn);
    }
  }
  implements_.assign(contexts_.size() * functions_.size(), 0);
  for (std::size_t c = 0; c < contexts_.size(); ++c) {
    for (const auto& fn : contexts_[c].functions) {
      implements_[c * functions_.size() + function_index(fn)] = 1;
    }
  }
}

std::size_t FpgaDevice::context_index(const std::string& name) const {
  for (std::size_t c = 0; c < contexts_.size(); ++c) {
    if (contexts_[c].name == name) return c;
  }
  throw std::out_of_range{"fpga: unknown context '" + name + "'"};
}

std::size_t FpgaDevice::function_index(const std::string& fn) const {
  for (std::size_t f = 0; f < functions_.size(); ++f) {
    if (functions_[f] == fn) return f;
  }
  throw std::out_of_range{"fpga: no context implements '" + fn + "'"};
}

const std::string& FpgaDevice::current_context() const noexcept {
  static const std::string none;
  return current_ == kNone ? none : contexts_[current_].name;
}

sim::Time FpgaDevice::function_time(std::uint64_t ops) const {
  const double cycles = static_cast<double>(ops) / config_.ops_per_cycle;
  return sim::Time::cycles(static_cast<std::int64_t>(cycles) + 1, fabric_period_);
}

sim::Task<void> FpgaDevice::load_context(std::size_t context) {
  if (context >= contexts_.size()) {
    throw std::out_of_range{"fpga: context index " + std::to_string(context) +
                            " out of range"};
  }
  if (current_ == context) co_return;  // already resident

  const sim::Time start = kernel().now();
  // The fabric is dark while a new bitstream is streamed in.
  current_ = kNone;
  // Bitstream download: burst reads from the bitstream store through the
  // system bus — this is precisely the "downloading of bit streams through
  // the bus" whose cost level 3 exists to evaluate. The configuration port
  // accepts only short bursts, so a download is many small transactions,
  // still simulated burst by burst: each is timed and counted on its own.
  // In the paper this per-burst traffic is what slows level 3 down (200 kHz
  // -> 30 kHz); here the host no longer pays one kernel wake per burst,
  // because the bus stream issues every burst of a quiet stretch in one.
  constexpr std::uint32_t kMaxBurst = 4;
  co_await bus_->stream(tlm::Payload{tlm::Command::read, config_.bitstream_base,
                                     contexts_[context].bitstream_words, name().c_str()},
                        kMaxBurst);
  co_await kernel().wait(config_.programming_time);
  current_ = context;
  ++reconfigurations_;
  reconfig_time_ += kernel().now() - start;
}

sim::Task<void> FpgaDevice::run_function(std::size_t fn, std::uint64_t ops) {
  if (fn >= functions_.size()) {
    throw std::out_of_range{"fpga: function index " + std::to_string(fn) +
                            " out of range"};
  }
  if (!function_available(fn)) {
    const ConsistencyViolation violation{
        kernel().now(), functions_[fn],
        current_ == kNone ? std::string{"<none>"} : contexts_[current_].name};
    violations_.push_back(violation);
    if (config_.trap_on_violation) {
      throw std::runtime_error{"fpga '" + name() + "': function '" + functions_[fn] +
                               "' invoked while context '" + violation.loaded_context +
                               "' is loaded"};
    }
    // Degraded behaviour: the call limps along at software-emulation speed
    // (x32 the fabric time) — observable as a performance cliff.
    co_await kernel().wait(function_time(ops) * 32);
    co_return;
  }
  const sim::Time t = function_time(ops);
  compute_time_ += t;
  ++functions_executed_;
  co_await kernel().wait(t);
}

}  // namespace symbad::fpga
