// Tests for the platform models: TLM bus/memory, CPU timing model and the
// reconfigurable FPGA device (src/tlm, src/cpu, src/fpga).

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cpu/cpu.hpp"
#include "fpga/fpga.hpp"
#include "sim/kernel.hpp"
#include "support/alloc_counter.hpp"
#include "support/bus_reference.hpp"
#include "support/test_util.hpp"
#include "tlm/bus.hpp"

namespace sim = symbad::sim;
namespace tlm = symbad::tlm;
namespace cpu = symbad::cpu;
namespace fpga = symbad::fpga;
using sim::Time;

namespace {

struct Platform {
  sim::Kernel kernel;
  tlm::Bus bus{kernel, "ahb", tlm::Bus::Config{50e6, 1, 1}};
  tlm::Memory ram{"ram", bus.clock_period(), tlm::Memory::Config{1, 0}};
  tlm::Memory flash{"flash", bus.clock_period(), tlm::Memory::Config{4, 1}};

  Platform() {
    bus.map(0x0000'0000, 0x1000'0000, ram);
    bus.map(0x4000'0000, 0x1000'0000, flash);
  }
};

sim::Process run_one_transfer(Platform& p, tlm::Payload payload, Time* done_at) {
  co_await p.bus.transport(payload);
  *done_at = p.kernel.now();
}

}  // namespace

// ------------------------------------------------------------------- Bus

TEST(Bus, SingleTransferTiming) {
  Platform p;
  Time done;
  // 16-beat read to RAM @50MHz: (1 arb + 16 beats + 1 ram) * 20ns = 360ns.
  p.kernel.spawn(run_one_transfer(p, {tlm::Command::read, 0x0, 16, "t"}, &done));
  p.kernel.run();
  EXPECT_EQ(done, Time::ns(360));
  EXPECT_EQ(p.bus.transactions(), 1u);
  EXPECT_EQ(p.bus.beats_transferred(), 16u);
  EXPECT_EQ(p.ram.accesses(), 1u);
  EXPECT_EQ(p.ram.read_beats(), 16u);
}

TEST(Bus, TransferTimingMatchesClosedFormForRandomBeats) {
  // Property form of the timing model: for any burst length, a solo read
  // costs (1 arb + beats + first_access + wait_states*beats) bus cycles.
  auto rng = symbad::test::rng("bus_random_beats");
  for (int trial = 0; trial < 16; ++trial) {
    Platform p;
    const auto beats = static_cast<std::uint32_t>(rng.range(1, 64));
    const bool to_flash = rng.chance(0.5);
    Time done;
    p.kernel.spawn(run_one_transfer(
        p, {tlm::Command::read, to_flash ? 0x4000'0000u : 0x0u, beats, "t"},
        &done));
    p.kernel.run();
    const std::int64_t cycles =
        1 + beats + (to_flash ? 4 + std::int64_t{beats} : 1);
    EXPECT_EQ(done, Time::ns(20 * cycles))
        << "beats=" << beats << (to_flash ? " flash" : " ram");
  }
}

TEST(Bus, FlashIsSlowerThanRam) {
  Platform p;
  const tlm::Payload to_ram{tlm::Command::read, 0x0, 8, "t"};
  const tlm::Payload to_flash{tlm::Command::read, 0x4000'0000, 8, "t"};
  EXPECT_LT(p.bus.transaction_time(to_ram), p.bus.transaction_time(to_flash));
}

TEST(Bus, ContentionSerialisesInitiators) {
  Platform p;
  Time done_a;
  Time done_b;
  p.kernel.spawn(run_one_transfer(p, {tlm::Command::read, 0x0, 16, "a"}, &done_a));
  p.kernel.spawn(run_one_transfer(p, {tlm::Command::read, 0x0, 16, "b"}, &done_b));
  p.kernel.run();
  // Second transfer starts only after the first completes.
  EXPECT_EQ(done_a, Time::ns(360));
  EXPECT_EQ(done_b, Time::ns(720));
  EXPECT_GT(p.bus.worst_grant_wait(), Time::zero());
  EXPECT_GT(p.bus.load(), 0.9);
}

TEST(Bus, UncontendedTransportAllocatesOnlyItsOwnFrame) {
  // A free grant is taken without awaiting the lock, so an uncontended
  // transaction costs one coroutine frame (its own) and no lock frame. The
  // first transfer warms the kernel's queues up to their steady capacity.
  Platform p;
  std::uint64_t allocations = 0;
  Time done;
  auto initiator = [](Platform& platform, std::uint64_t* count, Time* at) -> sim::Process {
    co_await platform.bus.transport({tlm::Command::read, 0x0, 16, "warm-up"});
    symbad::test_support::arm_allocation_counter();
    co_await platform.bus.transport({tlm::Command::read, 0x0, 16, "t"});
    *count = symbad::test_support::disarm_allocation_counter();
    *at = platform.kernel.now();
  };
  p.kernel.spawn(initiator(p, &allocations, &done));
  p.kernel.run();
  EXPECT_LE(allocations, 1u);
  EXPECT_EQ(done, Time::ns(720));  // timing unchanged: two solo 360 ns reads
  EXPECT_EQ(p.bus.worst_grant_wait(), Time::zero());
  EXPECT_EQ(p.bus.transactions(), 2u);
}

TEST(Bus, UnmappedAddressThrows) {
  Platform p;
  EXPECT_THROW((void)p.bus.transaction_time({tlm::Command::read, 0x9000'0000, 1, "t"}),
               std::out_of_range);
}

TEST(Bus, OverlappingMappingRejected) {
  sim::Kernel kernel;
  tlm::Bus bus{kernel, "bus", {}};
  tlm::Memory m1{"m1", bus.clock_period(), {}};
  tlm::Memory m2{"m2", bus.clock_period(), {}};
  bus.map(0x0, 0x1000, m1);
  EXPECT_THROW(bus.map(0x800, 0x1000, m2), std::invalid_argument);
  EXPECT_THROW(bus.map(0x2000, 0, m2), std::invalid_argument);
}

TEST(Bus, RejectsConfigurationsItCannotModel) {
  sim::Kernel kernel;
  const auto build = [&kernel](tlm::Bus::Config config) {
    tlm::Bus bus{kernel, "bus", config};
    return bus.clock_period();
  };
  EXPECT_THROW((void)build({50e6, -10, 1}), std::invalid_argument);  // negative arbitration
  EXPECT_THROW((void)build({2e12, 1, 1}), std::invalid_argument);    // 0 ps period
  EXPECT_THROW((void)build({50e6, 1, 0}), std::invalid_argument);    // beats take no cycle
  EXPECT_THROW((void)build({0.0, 1, 1}), std::invalid_argument);
  EXPECT_THROW((void)build({-50e6, 1, 1}), std::invalid_argument);
  EXPECT_THROW((void)build({std::numeric_limits<double>::infinity(), 1, 1}),
               std::invalid_argument);
  EXPECT_THROW((void)build({std::numeric_limits<double>::quiet_NaN(), 1, 1}),
               std::invalid_argument);
  EXPECT_THROW((void)build({-std::numeric_limits<double>::infinity(), 1, 1}),
               std::invalid_argument);
  EXPECT_THROW((void)build({1e-9, 1, 1}), std::invalid_argument);  // period past Time::max
  EXPECT_EQ(build({1e12, 0, 1}), Time::ps(1));  // the fastest clock, no arbitration
}

TEST(Bus, StreamReleasesTheGrantWhenABurstThrows) {
  // The first initiator's stream crosses from RAM into unmapped space while
  // the second waits on the grant. The first catches the throw in its own
  // process; the grant is free again, so the second's stream completes.
  Platform p;
  const Time burst = p.bus.transaction_time({tlm::Command::read, 0x0, 4, "t"});
  Time caught_at = Time::max();
  Time second_done = Time::max();
  auto first = [](Platform& pl, Time* at) -> sim::Process {
    try {
      co_await pl.bus.stream({tlm::Command::read, 0x1000'0000 - 16, 8, "first"}, 4);
    } catch (const std::out_of_range&) {
      *at = pl.kernel.now();
    }
  };
  auto second = [](Platform& pl, Time* done) -> sim::Process {
    co_await pl.bus.stream({tlm::Command::read, 0x0, 8, "second"}, 4);
    *done = pl.kernel.now();
  };
  p.kernel.spawn(first(p, &caught_at));
  p.kernel.spawn(second(p, &second_done));
  p.kernel.run();
  EXPECT_EQ(caught_at, burst);  // thrown when the mapped burst ended
  EXPECT_EQ(second_done, burst * 3);
  EXPECT_EQ(p.bus.transactions(), 3u);
  EXPECT_EQ(p.ram.read_beats(), 12u);
}

TEST(Bus, RejectsMappingsThatWrapPastTheAddressSpace) {
  sim::Kernel kernel;
  tlm::Bus bus{kernel, "bus", {}};
  tlm::Memory top{"top", bus.clock_period(), {}};
  tlm::Memory low{"low", bus.clock_period(), {}};
  tlm::Memory last{"last", bus.clock_period(), {}};
  EXPECT_THROW(bus.map(0xFFFF'FFFF'FFFF'FF00, 0x1000, top), std::invalid_argument);
  bus.map(0x0, 0x10, low);  // nothing wrapped around onto it
  bus.map(0xFFFF'FFFF'FFFF'FF00, 0x100, top);  // ends exactly at 2^64
  EXPECT_THROW(bus.map(0xFFFF'FFFF'FFFF'FFFF, 1, last), std::invalid_argument);
  EXPECT_THROW(bus.map(0x8, 0x10, last), std::invalid_argument);
  EXPECT_THROW(bus.map(0x0, 0xFFFF'FFFF'FFFF'FFFF, last), std::invalid_argument);
  const tlm::Payload at_top{tlm::Command::read, 0xFFFF'FFFF'FFFF'FFFF, 1, "t"};
  EXPECT_EQ(bus.transaction_time(at_top), Time::ns(60));  // (1 + 1 + 1) * 20 ns
  EXPECT_THROW((void)bus.transaction_time({tlm::Command::read, 0x10, 1, "t"}),
               std::out_of_range);
}

TEST(Bus, BurstsMoveAtLeastOneBeat) {
  Platform p;
  std::vector<std::string> errors;
  auto initiator = [](Platform& platform, std::vector<std::string>* out) -> sim::Process {
    try {
      co_await platform.bus.transport({tlm::Command::read, 0x0, 0, "t"});
    } catch (const std::invalid_argument& e) {
      out->push_back(e.what());
    }
    try {
      co_await platform.bus.stream({tlm::Command::read, 0x0, 8, "t"}, 0);
    } catch (const std::invalid_argument& e) {
      out->push_back(e.what());
    }
    co_await platform.bus.stream({tlm::Command::read, 0x0, 0, "t"}, 4);  // no words
  };
  p.kernel.spawn(initiator(p, &errors));
  p.kernel.run();
  EXPECT_EQ(errors.size(), 2u);
  EXPECT_EQ(p.bus.transactions(), 0u);
  EXPECT_EQ(p.kernel.now(), Time::zero());
}

TEST(Bus, UncontendedStreamAllocatesOnlyItsOwnFrame) {
  // A 64-word stream of 4-beat bursts alone on the bus: 16 transactions of
  // (1 arb + 4 beats + 1 ram) * 20 ns, timed by one kernel wake and one
  // coroutine frame (the stream's own). The first stream warms the queues
  // up; each starts after a 20 ns wait, once the previous grant release's
  // delta job has run.
  Platform p;
  std::uint64_t allocations = 0;
  auto initiator = [](Platform& platform, std::uint64_t* count) -> sim::Process {
    co_await platform.kernel.wait(Time::ns(20));
    co_await platform.bus.stream({tlm::Command::read, 0x0, 64, "warm-up"}, 4);
    co_await platform.kernel.wait(Time::ns(20));
    symbad::test_support::arm_allocation_counter();
    co_await platform.bus.stream({tlm::Command::write, 0x100, 64, "t"}, 4);
    *count = symbad::test_support::disarm_allocation_counter();
  };
  p.kernel.spawn(initiator(p, &allocations));
  p.kernel.run();
  EXPECT_LE(allocations, 1u);
  EXPECT_EQ(p.kernel.now(), Time::ns(2 * (20 + 16 * 120)));
  EXPECT_EQ(p.bus.transactions(), 32u);
  EXPECT_EQ(p.bus.beats_transferred(), 128u);
  EXPECT_EQ(p.bus.busy_time(), Time::ns(2 * 16 * 120));
  EXPECT_EQ(p.ram.accesses(), 32u);
  EXPECT_EQ(p.ram.write_beats(), 64u);
  // Process start, then per stream its 20 ns wait, one wake for all 16
  // bursts and the grant release's delta job.
  EXPECT_EQ(p.kernel.callbacks_executed(), 7u);
}

namespace {

// ------------------------------------------ stream vs per-burst reference

/// One bus call of a generated initiator.
struct BusOp {
  Time delay;             ///< wait before the call (bus-period multiples)
  bool on_go = false;     ///< wait for the shared `go` event instead
  bool poke = false;      ///< notify `poke` (a delta job) right before the call
  bool from_delta = false;  ///< make the call from a delta cycle, before `poke`'s
  bool stream = false;    ///< stream vs one transport
  tlm::Payload payload;
  std::uint32_t max_burst = 1;
};

struct BusScenario {
  std::vector<std::vector<BusOp>> initiators;
  std::vector<std::pair<Time, int>> probes;  ///< (delay, 0 heap / 1 bucket / 2 delta hop)
  std::vector<Time> go_delays;   ///< the conductor's timed `go` notifications
  Time limit = Time::max();      ///< the first run's limit
  Time stop_at = Time::max();    ///< when a process calls stop()
  bool stream_after_stop = false;  ///< that process then starts a stream
};

/// A bus of type `B` with RAM, adjacent flash and an unmapped hole above,
/// plus everything the scenario's processes log, in the order they log it.
template <typename B>
struct BusWorld {
  sim::Kernel kernel;
  B bus{kernel, "ahb", tlm::Bus::Config{50e6, 1, 1}};
  tlm::Memory ram{"ram", bus.clock_period(), tlm::Memory::Config{1, 0}};
  tlm::Memory flash{"flash", bus.clock_period(), tlm::Memory::Config{4, 1}};
  sim::Event go{kernel, "go"};
  sim::Event poke{kernel, "poke"};
  sim::Event hop{kernel, "hop"};
  std::vector<std::string> log;

  BusWorld() {
    bus.map(0x0000, 0x2000, ram);
    bus.map(0x2000, 0x1000, flash);  // 0x3000 and up is unmapped
  }

  void note(const std::string& what) {
    log.push_back(what + " @" + std::to_string(kernel.now().picoseconds()) + " tx=" +
                  std::to_string(bus.transactions()) + " beats=" +
                  std::to_string(bus.beats_transferred()) + " busy=" +
                  std::to_string(bus.busy_time().picoseconds()) + " worst=" +
                  std::to_string(bus.worst_grant_wait().picoseconds()) + " waits=" +
                  std::to_string(bus.total_grant_wait().picoseconds()) + " ram=" +
                  std::to_string(ram.accesses()) + "/" + std::to_string(ram.read_beats()) +
                  "/" + std::to_string(ram.write_beats()) + " flash=" +
                  std::to_string(flash.accesses()) + "/" +
                  std::to_string(flash.read_beats()) + "/" +
                  std::to_string(flash.write_beats()));
  }
};

template <typename B>
sim::Process bus_initiator(BusWorld<B>& w, int id, std::vector<BusOp> ops) {
  sim::Event own{w.kernel, "own"};
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const BusOp& op = ops[i];
    if (op.on_go) {
      co_await w.go;
      w.note("i" + std::to_string(id) + " go");
    } else {
      co_await w.kernel.wait(op.delay);
    }
    if (op.from_delta) own.notify();
    if (op.poke) w.poke.notify();
    if (op.from_delta) co_await own;
    if (op.stream) {
      co_await w.bus.stream(op.payload, op.max_burst);
    } else {
      co_await w.bus.transport(op.payload);
    }
    w.note("i" + std::to_string(id) + " op" + std::to_string(i) + " done");
  }
}

template <typename B>
sim::Process bus_observer(BusWorld<B>& w, std::vector<std::pair<Time, int>> probes) {
  for (const auto& [delay, kind] : probes) {
    co_await w.kernel.wait(delay);
    if (kind == 1) co_await w.kernel.wait(Time::zero());
    if (kind == 2) {
      w.hop.notify();
      co_await w.hop;
    }
    w.note("probe" + std::to_string(kind));
  }
}

template <typename B>
sim::Process bus_poke_listener(BusWorld<B>& w) {
  while (true) {
    co_await w.poke;
    w.note("poked");
  }
}

template <typename B>
sim::Process bus_conductor(BusWorld<B>& w, std::vector<Time> delays, Time stop_at,
                          bool stream_after_stop) {
  for (const Time delay : delays) {
    co_await w.kernel.wait(delay);
    w.go.notify(w.bus.clock_period() * 3);
  }
  if (stop_at != Time::max()) {
    co_await w.kernel.wait_until(stop_at);
    w.kernel.stop();
    w.note("stop");
    if (stream_after_stop) {
      co_await w.bus.stream({tlm::Command::write, 0x200, 40, "conductor"}, 4);
      w.note("conductor done");
    }
  }
}

/// Plays `scenario` on a bus of type `B`: the first run up to its limit,
/// then runs to the end (a stopped or failed run is resumed).
template <typename B>
std::vector<std::string> play(const BusScenario& scenario) {
  BusWorld<B> w;
  for (std::size_t i = 0; i < scenario.initiators.size(); ++i) {
    w.kernel.spawn(bus_initiator(w, static_cast<int>(i), scenario.initiators[i]));
  }
  w.kernel.spawn(bus_observer(w, scenario.probes));
  w.kernel.spawn(bus_poke_listener(w));
  w.kernel.spawn(
      bus_conductor(w, scenario.go_delays, scenario.stop_at, scenario.stream_after_stop));
  for (int segment = 0; segment < 8; ++segment) {
    try {
      const auto result = w.kernel.run(segment == 0 ? scenario.limit : Time::max());
      w.note("run" + std::to_string(static_cast<int>(result)));
      if (result == sim::RunResult::no_more_events) break;
    } catch (const std::out_of_range& e) {
      w.note(std::string{"threw "} + e.what());
    }
  }
  return w.log;
}

BusScenario random_bus_scenario(symbad::verif::Rng& rng) {
  const Time period = Time::ns(20);
  BusScenario s;
  const auto initiators = rng.range(2, 4);
  for (std::int64_t i = 0; i < initiators; ++i) {
    std::vector<BusOp> ops(static_cast<std::size_t>(rng.range(1, 6)));
    for (auto& op : ops) {
      op.delay = period * rng.range(0, 40);
      op.on_go = rng.chance(0.3);
      op.poke = rng.chance(0.2);
      op.from_delta = rng.chance(0.2);
      op.stream = rng.chance(0.7);
      op.payload.command = rng.chance(0.5) ? tlm::Command::read : tlm::Command::write;
      op.payload.initiator = "gen";
      if (op.stream) {
        op.payload.beats = static_cast<std::uint32_t>(rng.range(1, 80));
        op.max_burst = static_cast<std::uint32_t>(rng.range(1, 16));
      } else {
        op.payload.beats = static_cast<std::uint32_t>(rng.range(1, 16));
        op.max_burst = op.payload.beats;
      }
      // Mostly well inside a memory; sometimes near the end of RAM (running
      // on into flash) or of flash (running into the unmapped hole).
      const auto where = rng.range(0, 9);
      const std::uint64_t base = where == 0 ? 0x2000 : where == 1 ? 0x3000 : 0x100;
      op.payload.address = where < 2 ? base - 4 * static_cast<std::uint64_t>(rng.range(1, 40))
                                     : base + 4 * static_cast<std::uint64_t>(rng.range(0, 200));
      if (where >= 7) op.payload.address += 0x2000;  // inside flash
    }
    s.initiators.push_back(std::move(ops));
  }
  const auto probes = rng.range(0, 8);
  for (std::int64_t i = 0; i < probes; ++i) {
    Time delay = period * rng.range(0, 60);
    if (rng.chance(0.2)) delay += Time::ns(10);  // between two bus edges
    s.probes.emplace_back(delay, static_cast<int>(rng.range(0, 2)));
  }
  const auto gos = rng.range(1, 4);
  for (std::int64_t i = 0; i < gos; ++i) s.go_delays.push_back(period * rng.range(1, 50));
  switch (rng.range(0, 2)) {
    case 1:
      s.limit = period * rng.range(0, 200) + Time::ns(rng.chance(0.5) ? 0 : 7);
      break;
    case 2:
      s.stop_at = period * rng.range(1, 200);
      s.stream_after_stop = rng.chance(0.5);
      break;
    default:
      break;
  }
  return s;
}

}  // namespace

TEST(Bus, StreamMatchesPerBurstTransports) {
  // Randomized contention: 2-4 initiators mixing streams and single
  // transports, starting on bus-period multiples so that requests land on
  // burst boundaries, some released together by one timed event, some
  // calling from a delta cycle that other delta jobs follow; probes reading
  // every statistic mid-stream from timed, zero-delay and delta callbacks;
  // streams that run on into the next memory or into unmapped space; first
  // runs cut by a time limit or by stop() (followed by a stream in the same
  // callback). Every logged line (who finished what, when, in which order,
  // with which bus, grant-wait and memory statistics) must equal the
  // per-burst reference's.
  auto rng = symbad::test::rng("bus_stream_reference");
  int failures = 0;
  for (int trial = 0; trial < 400 && failures == 0; ++trial) {
    const BusScenario scenario = random_bus_scenario(rng);
    const auto streamed = play<tlm::Bus>(scenario);
    const auto reference = play<symbad::test_support::ReferenceBus>(scenario);
    EXPECT_EQ(streamed, reference) << "trial " << trial;
    if (streamed != reference) ++failures;
  }
}

// ------------------------------------------------------------------- CPU

TEST(Cpu, AnnotationScalesWithOpsAndClock) {
  cpu::TimingModel slow{cpu::CpuConfig{"ARM7", 50e6, 2.0, 0.25}};
  cpu::TimingModel fast{cpu::CpuConfig{"ARM9", 200e6, 2.0, 0.25}};
  EXPECT_EQ(slow.annotate(1000), Time::us(40));  // 2000 cycles @ 20ns
  EXPECT_EQ(fast.annotate(1000), Time::us(10));
  EXPECT_EQ(slow.cycles_for(1000), 2000u);
}

TEST(Cpu, RejectsClockRatesWithoutAPeriod) {
  for (const double hz : {2e12, 1e-9, std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((cpu::TimingModel{cpu::CpuConfig{"ARM7", hz, 2.0, 0.25}}),
                 std::invalid_argument)
        << hz;
  }
}

namespace {

sim::Process cpu_workload(cpu::CpuModel& core, Time* done) {
  co_await core.execute(1000);             // 1800 cycles @ 20 ns = 36 us
  co_await core.bus_write(0x0, 32);        // (1+32+1)*20ns
  co_await core.execute(500);
  *done = core.kernel().now();
}

}  // namespace

TEST(Cpu, ExecutesAnnotatedSections) {
  Platform p;
  cpu::CpuModel core{p.kernel, "arm7", cpu::CpuConfig{}, p.bus};
  Time done;
  p.kernel.spawn(cpu_workload(core, &done));
  p.kernel.run();
  EXPECT_EQ(core.ops_executed(), 1500u);
  // 1500 ops * 1.8 CPI * 20ns = 54us, plus 680ns of bus.
  EXPECT_EQ(done, Time::ns(54'000 + 680));
  EXPECT_GT(core.utilisation(), 0.9);
}

// ------------------------------------------------------------------ FPGA

namespace {

std::vector<fpga::ContextConfig> two_contexts() {
  fpga::ContextConfig c1;
  c1.name = "config1";
  c1.functions = {"DISTANCE"};
  c1.bitstream_words = 2048;
  fpga::ContextConfig c2;
  c2.name = "config2";
  c2.functions = {"ROOT"};
  c2.bitstream_words = 2048;
  return {c1, c2};
}

sim::Process fpga_scenario(fpga::FpgaDevice& dev, std::vector<std::string>* log) {
  co_await dev.load_context(dev.context_index("config2"));
  log->push_back("loaded:" + dev.current_context());
  co_await dev.run_function(dev.function_index("ROOT"), 10'000);
  log->push_back("ran ROOT");
  co_await dev.load_context(dev.context_index("config1"));
  co_await dev.run_function(dev.function_index("DISTANCE"), 5'000);
  log->push_back("ran DISTANCE");
}

}  // namespace

TEST(Fpga, ContextSwitchAndExecution) {
  Platform p;
  fpga::FpgaDevice dev{p.kernel, "efpga", two_contexts(), p.bus, {}};
  std::vector<std::string> log;
  p.kernel.spawn(fpga_scenario(dev, &log));
  p.kernel.run();
  EXPECT_EQ(log, (std::vector<std::string>{"loaded:config2", "ran ROOT", "ran DISTANCE"}));
  EXPECT_EQ(dev.current_context(), "config1");
  EXPECT_EQ(dev.reconfiguration_count(), 2u);
  EXPECT_TRUE(dev.violations().empty());
  EXPECT_EQ(dev.functions_executed(), 2u);
  EXPECT_GT(dev.reconfiguration_time(), Time::zero());
  // Bitstream downloads dominate bus traffic: 2 x 2048 beats.
  EXPECT_GE(p.bus.beats_transferred(), 4096u);
}

TEST(Fpga, ReloadingSameContextIsFree) {
  Platform p;
  fpga::FpgaDevice dev{p.kernel, "efpga", two_contexts(), p.bus, {}};
  auto scenario = [](fpga::FpgaDevice& d) -> sim::Process {
    co_await d.load_context(d.context_index("config1"));
    co_await d.load_context(d.context_index("config1"));  // no-op
  };
  p.kernel.spawn(scenario(dev));
  p.kernel.run();
  EXPECT_EQ(dev.reconfiguration_count(), 1u);
}

TEST(Fpga, ConsistencyViolationRecorded) {
  Platform p;
  fpga::FpgaDevice dev{p.kernel, "efpga", two_contexts(), p.bus, {}};
  auto scenario = [](fpga::FpgaDevice& d) -> sim::Process {
    co_await d.load_context(d.context_index("config2"));   // ROOT available
    co_await d.run_function(d.function_index("DISTANCE"), 100);  // violation!
  };
  p.kernel.spawn(scenario(dev));
  p.kernel.run();
  ASSERT_EQ(dev.violations().size(), 1u);
  EXPECT_EQ(dev.violations()[0].function, "DISTANCE");
  EXPECT_EQ(dev.violations()[0].loaded_context, "config2");
}

TEST(Fpga, TrapOnViolationThrows) {
  Platform p;
  fpga::FpgaDevice::Config cfg;
  cfg.trap_on_violation = true;
  fpga::FpgaDevice dev{p.kernel, "efpga", two_contexts(), p.bus, cfg};
  auto scenario = [](fpga::FpgaDevice& d) -> sim::Process {
    co_await d.run_function(d.function_index("ROOT"), 100);  // nothing loaded
  };
  p.kernel.spawn(scenario(dev));
  EXPECT_THROW(p.kernel.run(), std::runtime_error);
}

TEST(Fpga, UnknownContextThrows) {
  Platform p;
  fpga::FpgaDevice dev{p.kernel, "efpga", two_contexts(), p.bus, {}};
  auto scenario = [](fpga::FpgaDevice& d) -> sim::Process {
    co_await d.load_context(d.context_index("config9"));
  };
  p.kernel.spawn(scenario(dev));
  EXPECT_THROW(p.kernel.run(), std::out_of_range);
  EXPECT_THROW((void)dev.function_index("WINNER"), std::out_of_range);
}

TEST(Fpga, IndicesFollowDeclarationOrderAndAreRangeChecked) {
  Platform p;
  auto contexts = two_contexts();
  contexts[1].functions = {"ROOT", "DISTANCE"};  // config2 hosts both
  fpga::FpgaDevice dev{p.kernel, "efpga", contexts, p.bus, {}};
  EXPECT_EQ(dev.context_index("config1"), 0u);
  EXPECT_EQ(dev.context_index("config2"), 1u);
  EXPECT_EQ(dev.function_index("DISTANCE"), 0u);  // first seen in config1
  EXPECT_EQ(dev.function_index("ROOT"), 1u);
  EXPECT_FALSE(dev.context_loaded());
  EXPECT_EQ(dev.current_context(), "");
  auto scenario = [](fpga::FpgaDevice& d, std::vector<bool>* available) -> sim::Process {
    co_await d.load_context(1);
    available->push_back(d.function_available(0));
    available->push_back(d.function_available(1));
    co_await d.load_context(0);
    available->push_back(d.function_available(0));
    available->push_back(d.function_available(1));
    available->push_back(d.function_available(2));  // no such function
    co_await d.run_function(2, 100);
  };
  std::vector<bool> available;
  p.kernel.spawn(scenario(dev, &available));
  EXPECT_THROW(p.kernel.run(), std::out_of_range);
  EXPECT_EQ(available, (std::vector<bool>{true, true, true, false, false}));
  EXPECT_TRUE(dev.violations().empty());

  Platform q;
  fpga::FpgaDevice other{q.kernel, "efpga", two_contexts(), q.bus, {}};
  auto bad_load = [](fpga::FpgaDevice& d) -> sim::Process { co_await d.load_context(2); };
  q.kernel.spawn(bad_load(other));
  EXPECT_THROW(q.kernel.run(), std::out_of_range);
}

TEST(Fpga, DuplicateContextNamesRejected) {
  Platform p;
  auto contexts = two_contexts();
  contexts[1].name = "config1";
  EXPECT_THROW((fpga::FpgaDevice{p.kernel, "efpga", contexts, p.bus, {}}),
               std::invalid_argument);
}

TEST(Fpga, RejectsFabricClocksWithoutAPeriod) {
  Platform p;
  for (const double hz : {2e12, 1e-9, std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()}) {
    fpga::FpgaDevice::Config config;
    config.fabric_clock_hz = hz;
    EXPECT_THROW((fpga::FpgaDevice{p.kernel, "efpga", two_contexts(), p.bus, config}),
                 std::invalid_argument)
        << hz;
  }
}

TEST(Fpga, FabricFasterThanCpuForSameOps) {
  Platform p;
  fpga::FpgaDevice dev{p.kernel, "efpga", two_contexts(), p.bus, {}};
  cpu::TimingModel arm{cpu::CpuConfig{}};
  // 8 ops/cycle @25MHz vs 1.8 cycles/op @50MHz: fabric ~14x faster.
  EXPECT_LT(dev.function_time(100'000), arm.annotate(100'000));
}
