// Tests for the platform models: TLM bus/memory, CPU timing model and the
// reconfigurable FPGA device (src/tlm, src/cpu, src/fpga).

#include <gtest/gtest.h>

#include <vector>

#include "cpu/cpu.hpp"
#include "fpga/fpga.hpp"
#include "sim/kernel.hpp"
#include "support/alloc_counter.hpp"
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

// ------------------------------------------------------------------- CPU

TEST(Cpu, AnnotationScalesWithOpsAndClock) {
  cpu::TimingModel slow{cpu::CpuConfig{"ARM7", 50e6, 2.0, 0.25}};
  cpu::TimingModel fast{cpu::CpuConfig{"ARM9", 200e6, 2.0, 0.25}};
  EXPECT_EQ(slow.annotate(1000), Time::us(40));  // 2000 cycles @ 20ns
  EXPECT_EQ(fast.annotate(1000), Time::us(10));
  EXPECT_EQ(slow.cycles_for(1000), 2000u);
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

TEST(Fpga, FabricFasterThanCpuForSameOps) {
  Platform p;
  fpga::FpgaDevice dev{p.kernel, "efpga", two_contexts(), p.bus, {}};
  cpu::TimingModel arm{cpu::CpuConfig{}};
  // 8 ops/cycle @25MHz vs 1.8 cycles/op @50MHz: fabric ~14x faster.
  EXPECT_LT(dev.function_time(100'000), arm.annotate(100'000));
}
