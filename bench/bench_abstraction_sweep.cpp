// E8 — abstraction level vs simulation speed (the paper's §2 motivation:
// cycle/ISS verification takes "tens of hours" per exploration step, which
// transactional modelling cuts by orders of magnitude). One workload, four
// abstraction levels: untimed TL (L1), timed TL (L2), reconfigurable TL
// (L3), and gate-level RTL simulation of the ROOT core processing the same
// pixel stream.

#include <benchmark/benchmark.h>

#include "app/rtl_blocks.hpp"
#include "bench_common.hpp"
#include "media/face_gen.hpp"
#include "media/kernels.hpp"
#include "rtl/wordops.hpp"

namespace {

using namespace symbad;

void BM_Abstraction_L1_Untimed(benchmark::State& state) {
  auto& cs = benchfix::case_study();
  core::PerformanceReport last;
  for (auto _ : state) {
    app::FaceStageRuntime runtime{cs.db};
    core::SystemModel model{cs.graph, core::Partition::all_software(cs.graph), runtime,
                            {}, core::ModelLevel::untimed_functional};
    last = model.run(4);
    benchmark::DoNotOptimize(last.kernel_callbacks);
  }
  state.counters["frames_per_wall_s"] =
      benchmark::Counter(4, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Abstraction_L1_Untimed)->Unit(benchmark::kMillisecond);

void BM_Abstraction_L2_TimedTl(benchmark::State& state) {
  auto& cs = benchfix::case_study();
  core::PerformanceReport last;
  for (auto _ : state) {
    app::FaceStageRuntime runtime{cs.db};
    core::SystemModel model{cs.graph, app::paper_level2_partition(cs.graph), runtime,
                            {}, core::ModelLevel::timed_platform};
    last = model.run(4);
    benchmark::DoNotOptimize(last.bus_beats);
  }
  state.counters["frames_per_wall_s"] =
      benchmark::Counter(4, benchmark::Counter::kIsIterationInvariantRate);
  state.counters["sim_speed_kHz"] = last.host.sim_cycles_per_wall_second / 1e3;
}
BENCHMARK(BM_Abstraction_L2_TimedTl)->Unit(benchmark::kMillisecond);

void BM_Abstraction_L3_Reconfigurable(benchmark::State& state) {
  auto& cs = benchfix::case_study();
  core::PerformanceReport last;
  for (auto _ : state) {
    app::FaceStageRuntime runtime{cs.db};
    core::SystemModel model{cs.graph, app::paper_level3_partition(cs.graph), runtime,
                            {}, core::ModelLevel::reconfigurable};
    last = model.run(4);
    benchmark::DoNotOptimize(last.reconfigurations);
  }
  state.counters["frames_per_wall_s"] =
      benchmark::Counter(4, benchmark::Counter::kIsIterationInvariantRate);
  state.counters["sim_speed_kHz"] = last.host.sim_cycles_per_wall_second / 1e3;
}
BENCHMARK(BM_Abstraction_L3_Reconfigurable)->Unit(benchmark::kMillisecond);

/// Gate-level RTL: the ROOT core alone, pushed through one frame's pixels
/// (64x64). This is what "simulated at cycle level" costs even for a single
/// small module — the paper's argument for transactional modelling. The
/// ports are resolved to nets once, so the loop times the simulator, not
/// name lookups.
void BM_Abstraction_RtlGateLevel(benchmark::State& state) {
  const auto netlist = app::build_root_rtl();
  const auto params = media::FaceParams::for_identity(0);
  const auto scene = media::render_face(params, media::Pose::frontal(), 64);
  const rtl::Net start = netlist.input("start");
  rtl::Word op;
  for (int i = 0; i < 16; ++i) {
    op.bits.push_back(netlist.input("op[" + std::to_string(i) + "]"));
  }
  rtl::Word result;
  for (int i = 0; i < 12; ++i) {
    result.bits.push_back(netlist.output("result[" + std::to_string(i) + "]"));
  }
  std::uint64_t checksum = 0;
  for (auto _ : state) {
    rtl::Simulator sim{netlist};
    checksum = 0;
    for (int y = 0; y < 64; ++y) {
      for (int x = 0; x < 64; ++x) {
        sim.set_input(start, true);
        rtl::drive_word(sim, op, scene.px(x, y));
        sim.step();
        sim.set_input(start, false);
        for (int c = 0; c < app::kRootLatencyCycles; ++c) sim.step();
        checksum += rtl::read_word(sim, result);
      }
    }
    benchmark::DoNotOptimize(checksum);
  }
  // One ROOT pass = 1/10th-ish of a frame's work: frames/s equivalent.
  state.counters["frames_per_wall_s"] =
      benchmark::Counter(1, benchmark::Counter::kIsIterationInvariantRate);
  state.counters["gate_evals_per_px"] =
      static_cast<double>(netlist.gate_count() * (app::kRootLatencyCycles + 1));
}
BENCHMARK(BM_Abstraction_RtlGateLevel)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
