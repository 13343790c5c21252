// E4 — ATPG coverage estimation (paper §3.1/§4.2): statement / branch /
// condition / bit coverage per engine (random vs genetic), plus the
// seeded memory-initialisation bug hunt and SAT-based RTL test generation.

#include <benchmark/benchmark.h>

#include "app/rtl_blocks.hpp"
#include "atpg/atpg.hpp"
#include "obs/obs.hpp"

namespace {

using namespace symbad;

atpg::Laerte& engine() {
  static atpg::Laerte instance{atpg::Laerte::Config{6, 3, 64, {}, 8}};
  return instance;
}

void BM_Atpg_RandomEngine(benchmark::State& state) {
  auto& laerte = engine();
  const int frames = static_cast<int>(state.range(0));
  atpg::Estimate est;
  for (auto _ : state) {
    const auto tb = laerte.random_testbench(frames, 17);
    est = laerte.evaluate(tb, /*grade_bit_faults=*/true);
    benchmark::DoNotOptimize(est.fitness);
  }
  state.counters["stmt_pct"] = est.coverage.statement_percent();
  state.counters["branch_pct"] = est.coverage.branch_percent();
  state.counters["cond_pct"] = est.coverage.condition_percent();
  state.counters["bit_fault_pct"] = est.bit_faults.percent();
}
BENCHMARK(BM_Atpg_RandomEngine)->Arg(2)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_Atpg_GeneticEngine(benchmark::State& state) {
  auto& laerte = engine();
  atpg::Estimate est;
  for (auto _ : state) {
    const auto tb = laerte.genetic_testbench(4, 6, static_cast<int>(state.range(0)), 17);
    est = laerte.evaluate(tb, /*grade_bit_faults=*/true);
    benchmark::DoNotOptimize(est.fitness);
  }
  state.counters["stmt_pct"] = est.coverage.statement_percent();
  state.counters["branch_pct"] = est.coverage.branch_percent();
  state.counters["cond_pct"] = est.coverage.condition_percent();
  state.counters["bit_fault_pct"] = est.bit_faults.percent();
}
BENCHMARK(BM_Atpg_GeneticEngine)->Arg(2)->Arg(5)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_Atpg_SeededBugHunt(benchmark::State& state) {
  auto& laerte = engine();
  bool found = false;
  for (auto _ : state) {
    const auto tb = laerte.random_testbench(6, 21);
    found = laerte.detects_seeded_memory_bug(tb);
    benchmark::DoNotOptimize(found);
  }
  state.counters["bug_detected"] = found ? 1.0 : 0.0;
}
BENCHMARK(BM_Atpg_SeededBugHunt)->Unit(benchmark::kMillisecond);

void BM_Atpg_SatEngineOnDistancePe(benchmark::State& state) {
  // End-to-end multi-fault generation: every stuck-at fault on the DISTANCE
  // PE's flip-flops, one incremental SatEngine sharing solver and learned
  // clauses across the whole fault list.
  const auto pe = app::build_distance_rtl(8, 16);
  std::vector<std::pair<symbad::rtl::Net, bool>> faults;
  for (const auto ff : pe.flip_flops()) {
    faults.emplace_back(ff, false);
    faults.emplace_back(ff, true);
  }
  int detected = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t arena = 0;
  std::uint64_t arena_live = 0;
  std::uint64_t compactions = 0;
  for (auto _ : state) {
    atpg::SatEngine engine{pe, {3}};
    const obs::Scope generation;  // the fault list's solves, not the set-up
    const auto results = engine.generate_tests(faults);
    detected = 0;
    for (const auto& r : results) {
      if (r.test.has_value()) ++detected;
    }
    conflicts = generation.delta("sat.conflicts");
    arena = engine.solver().arena_bytes();
    arena_live = engine.solver().arena_live_bytes();
    compactions = engine.solver().statistics().arena_compactions;
    benchmark::DoNotOptimize(detected);
  }
  state.counters["faults"] = static_cast<double>(faults.size());
  state.counters["sat_detected"] = detected;
  state.counters["sat_conflicts"] = static_cast<double>(conflicts);
  state.counters["arena_bytes"] = static_cast<double>(arena);
  state.counters["arena_live"] = static_cast<double>(arena_live);
  state.counters["sat_compactions"] = static_cast<double>(compactions);
  state.counters["conflicts_per_fault"] =
      static_cast<double>(conflicts) / static_cast<double>(faults.size());
}
BENCHMARK(BM_Atpg_SatEngineOnDistancePe)->Unit(benchmark::kMillisecond);

void BM_Atpg_SatEnginePerFaultBaseline(benchmark::State& state) {
  // The pre-incremental strategy: a fresh solver and a full good+bad
  // re-encoding per fault. Kept as the comparison point for the engine.
  const auto pe = app::build_distance_rtl(8, 16);
  int detected = 0;
  int total = 0;
  for (auto _ : state) {
    detected = 0;
    total = 0;
    for (const auto ff : pe.flip_flops()) {
      for (const bool stuck : {false, true}) {
        ++total;
        if (atpg::sat_generate_test(pe, ff, stuck, 3).has_value()) ++detected;
      }
    }
    benchmark::DoNotOptimize(detected);
  }
  state.counters["faults"] = total;
  state.counters["sat_detected"] = detected;
}
BENCHMARK(BM_Atpg_SatEnginePerFaultBaseline)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
