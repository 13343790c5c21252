#include "gen/traffic.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/kernel.hpp"
#include "tlm/bus.hpp"

namespace symbad::gen {

namespace {

/// Bounded-Pareto sample in [1, cap]: inverse-transform of the Pareto CDF
/// with the tail truncated. `u` in [0, 1).
std::uint32_t bounded_pareto(double u, double alpha, std::uint32_t cap) noexcept {
  if (cap <= 1) return 1;
  // x = (1 - u)^(-1/alpha), heavy-tailed on [1, inf); clamp to cap.
  const double x = std::pow(1.0 - u, -1.0 / alpha);
  if (!(x < static_cast<double>(cap))) return cap;  // also catches inf/NaN
  return static_cast<std::uint32_t>(x);
}

constexpr std::uint64_t kFrameSalt = 0x7261'6666'6963'00ULL;  // "traffic"

}  // namespace

TrafficModel::FrameLoad TrafficModel::frame_load(int frame) const noexcept {
  // Pure per-frame stream: fork by frame index so frame N's load never
  // depends on whether frames 0..N-1 were ever sampled.
  verif::Rng rng =
      verif::Rng{seed_}.fork(kFrameSalt + static_cast<std::uint64_t>(frame));
  FrameLoad load;
  load.burst = rng.chance(options_.burst_prob)
                   ? bounded_pareto(rng.uniform(), options_.pareto_alpha,
                                    options_.max_burst)
                   : 0;
  load.requests = options_.base_requests + load.burst;
  // Operation scale grows sub-linearly with the request count (batching):
  // base 1.0x plus 1/16th per extra request, in Q8 fixed point.
  load.ops_scale_q8 = 256 + (load.requests - 1) * 16;
  load.extra_read_words = load.requests * options_.words_per_request;
  return load;
}

std::uint64_t TrafficModel::stream_digest(int frames) const noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (int f = 0; f < frames; ++f) {
    const FrameLoad load = frame_load(f);
    mix(load.requests);
    mix(load.burst);
    mix(load.ops_scale_q8);
    mix(load.extra_read_words);
  }
  return h;
}

namespace {

/// One initiator's replay process: per frame, issue every request of its
/// forked stream as a burst-read through the shared bus. Takes the stream by
/// value: the coroutine frame must own it, as it outlives the spawn site.
sim::Process initiator_process(tlm::Bus& bus, const TrafficModel stream,
                               int frames, const char* name,
                               std::uint64_t* requests_issued) {
  for (int frame = 0; frame < frames; ++frame) {
    const TrafficModel::FrameLoad load = stream.frame_load(frame);
    for (std::uint32_t r = 0; r < load.requests; ++r) {
      ++*requests_issued;
      co_await bus.stream(tlm::Payload{tlm::Command::read, 0x0000'1000 + 4096ull * r,
                                       stream.options().words_per_request, name},
                          256);
    }
  }
}

}  // namespace

ReplayReport replay_traffic(const TrafficModel& model, int frames, int initiators) {
  if (frames <= 0) throw std::invalid_argument{"replay_traffic: frames must be positive"};
  if (initiators <= 0 || initiators > 64) {
    throw std::invalid_argument{"replay_traffic: initiators must be in [1, 64]"};
  }
  sim::Kernel kernel;
  tlm::Bus bus{kernel, "gen.bus", tlm::Bus::Config{50e6, 1, 1}};
  tlm::Memory ram{"gen.ram", bus.clock_period(), tlm::Memory::Config{1, 0}};
  bus.map(0x0, 0x1000'0000, ram);

  ReplayReport report;
  // Stable per-initiator names (coroutines reference them by pointer).
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(initiators));
  for (int i = 0; i < initiators; ++i) names.push_back("init" + std::to_string(i));
  for (int i = 0; i < initiators; ++i) {
    // Each initiator replays an independent forked stream of the same model.
    const TrafficModel stream{
        verif::Rng{model.seed()}.fork(0xABCD'0000ull + static_cast<std::uint64_t>(i))
            .next(),
        model.options()};
    kernel.spawn(initiator_process(bus, stream, frames, names[static_cast<std::size_t>(i)].c_str(),
                                   &report.requests),
                 names[static_cast<std::size_t>(i)]);
  }
  kernel.run();

  report.transactions = bus.transactions();
  report.beats = bus.beats_transferred();
  report.elapsed = kernel.now();
  report.bus_busy = bus.busy_time();
  report.worst_grant_wait = bus.worst_grant_wait();
  report.total_grant_wait = bus.total_grant_wait();
  return report;
}

}  // namespace symbad::gen
