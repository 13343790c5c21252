// E1 — Level-1 untimed TL simulation (paper §4.1: "The complete simulation
// of the system TL model took less than 15 seconds"). Measures wall time of
// the full-system functional simulation and verifies trace consistency with
// the C reference via the runtime's recognition results.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"

namespace {

using namespace symbad;

void BM_Level1_FullSystemSimulation(benchmark::State& state) {
  auto& cs = benchfix::case_study();
  const int frames = static_cast<int>(state.range(0));
  std::uint64_t callbacks = 0;
  for (auto _ : state) {
    app::FaceStageRuntime runtime{cs.db};
    core::SystemModel level1{cs.graph, core::Partition::all_software(cs.graph), runtime,
                             {}, core::ModelLevel::untimed_functional};
    const auto report = level1.run(frames);
    callbacks = report.kernel_callbacks;
    benchmark::DoNotOptimize(report.trace.size());
  }
  state.counters["frames"] = frames;
  state.counters["sim_callbacks"] = static_cast<double>(callbacks);
  state.counters["frames_per_wall_s"] =
      benchmark::Counter(frames, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Level1_FullSystemSimulation)->Arg(2)->Arg(8)->Arg(20)->Unit(benchmark::kMillisecond);

/// The reference C model alone, for comparison (model overhead = ratio).
void BM_Level1_CReferenceModel(benchmark::State& state) {
  auto& cs = benchfix::case_study();
  const int frames = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int f = 0; f < frames; ++f) {
      const int id = app::query_identity(f, cs.db.identities());
      const auto capture = media::camera_capture(media::FaceParams::for_identity(id),
                                                 app::query_pose(f));
      benchmark::DoNotOptimize(media::recognize(capture, cs.db).identity);
    }
  }
  state.counters["frames_per_wall_s"] =
      benchmark::Counter(frames, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Level1_CReferenceModel)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
