// E3 — Level-3 reconfigurable simulation speed (paper §4.1: "The simulation
// speed of this level ... is closed to 30kHz", down from 200 kHz at level
// 2). In the paper the slowdown comes from modelling every bitstream
// download as bus traffic. Here the downloads are still simulated burst by
// burst (every burst a timed, counted transaction), but the host no longer
// pays one kernel wake per burst: `tlm::Bus::stream` issues a quiet
// stretch's bursts in one. `sim_callbacks` (kernel callbacks per run, a
// hard-gated counter) keeps that from sliding back; `bus_transactions` and
// `bus_beats` pin the simulated traffic itself.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"

namespace {

using namespace symbad;

void BM_Level3_ReconfigurableSimulation(benchmark::State& state) {
  auto& cs = benchfix::case_study();
  const int frames = static_cast<int>(state.range(0));
  core::PerformanceReport last;
  for (auto _ : state) {
    app::FaceStageRuntime runtime{cs.db};
    core::SystemModel level3{cs.graph, app::paper_level3_partition(cs.graph), runtime,
                             {}, core::ModelLevel::reconfigurable};
    last = level3.run(frames);
    benchmark::DoNotOptimize(last.reconfigurations);
  }
  state.counters["sim_speed_kHz"] = last.host.sim_cycles_per_wall_second / 1e3;
  state.counters["frames_per_sim_s"] = last.frames_per_second;
  state.counters["bus_load_pct"] = last.bus_load * 100.0;
  state.counters["reconfigs"] = static_cast<double>(last.reconfigurations);
  state.counters["reconfig_ms"] = last.reconfiguration_time.to_ms();
  state.counters["violations"] = static_cast<double>(last.consistency_violations);
  state.counters["sim_callbacks"] = static_cast<double>(last.kernel_callbacks);
  state.counters["bus_transactions"] = static_cast<double>(last.bus_transactions);
  state.counters["bus_beats"] = static_cast<double>(last.bus_beats);
}
BENCHMARK(BM_Level3_ReconfigurableSimulation)->Arg(4)->Arg(12)->Unit(benchmark::kMillisecond);

/// Level-2 run with identical frames, for the direct L2-vs-L3 speed ratio.
void BM_Level3_Level2Comparison(benchmark::State& state) {
  auto& cs = benchfix::case_study();
  core::PerformanceReport last;
  for (auto _ : state) {
    app::FaceStageRuntime runtime{cs.db};
    core::SystemModel level2{cs.graph, app::paper_level2_partition(cs.graph), runtime,
                             {}, core::ModelLevel::timed_platform};
    last = level2.run(4);
    benchmark::DoNotOptimize(last.bus_beats);
  }
  state.counters["sim_speed_kHz"] = last.host.sim_cycles_per_wall_second / 1e3;
  state.counters["bus_load_pct"] = last.bus_load * 100.0;
}
BENCHMARK(BM_Level3_Level2Comparison)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
