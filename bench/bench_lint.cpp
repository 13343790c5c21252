// E-LINT — static-analysis throughput: structural and semantic lint sweeps
// over the seeded generator tiers. The lint_rules_checked / lint_sat_proofs
// counters come from the fixed 16-seed set, are deterministic and
// host-independent, and are hard-gated by scripts/bench_compare.py.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "bench_common.hpp"
#include "gen/gen.hpp"
#include "lint/lint.hpp"

namespace {

using namespace symbad;

constexpr gen::SizeTier kTiers[] = {gen::SizeTier::small, gen::SizeTier::medium,
                                    gen::SizeTier::large};

void BM_Lint_StructuralSweep(benchmark::State& state) {
  const auto tier = kTiers[state.range(0)];
  const gen::SweepConfig cfg;
  const lint::Linter linter{};
  // Gated counters from the fixed 16-seed set, independent of iteration
  // count: rules checked per analysis is a stable property of the engine.
  std::uint64_t rules = 0;
  std::uint64_t findings = 0;
  for (int i = 0; i < 16; ++i) {
    const auto report = linter.analyze(gen::generate_netlist(cfg.seed_at(i), tier));
    rules += report.rules_checked;
    findings += report.findings.size();
  }
  int produced = 0;
  for (auto _ : state) {
    const auto netlist = gen::generate_netlist(cfg.seed_at(produced % 16), tier);
    const auto report = linter.analyze(netlist);
    benchmark::DoNotOptimize(report.findings.size());
    ++produced;
  }
  state.counters["lint_rules_checked"] = static_cast<double>(rules) / 16.0;
  state.counters["lint_findings"] = static_cast<double>(findings) / 16.0;
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Lint_StructuralSweep)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMicrosecond);

void BM_Lint_SemanticSweep(benchmark::State& state) {
  // SAT-backed tier on the small generator tier: const-net proofs, dead mux
  // arms, undetectable fault sites.
  const gen::SweepConfig cfg;
  lint::Options options;
  options.semantic = true;
  const lint::Linter linter{options};
  std::uint64_t rules = 0;
  std::uint64_t proofs = 0;
  for (int i = 0; i < 16; ++i) {
    const auto report = linter.analyze(
        gen::generate_netlist(cfg.seed_at(i), gen::SizeTier::small));
    rules += report.rules_checked;
    proofs += report.sat_proofs;
  }
  int produced = 0;
  for (auto _ : state) {
    const auto netlist =
        gen::generate_netlist(cfg.seed_at(produced % 16), gen::SizeTier::small);
    const auto report = linter.analyze(netlist);
    benchmark::DoNotOptimize(report.sat_proofs);
    ++produced;
  }
  state.counters["lint_rules_checked"] = static_cast<double>(rules) / 16.0;
  state.counters["lint_sat_proofs"] = static_cast<double>(proofs) / 16.0;
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Lint_SemanticSweep)->Unit(benchmark::kMillisecond);

void BM_Lint_TaskGraphSweep(benchmark::State& state) {
  const auto tier = kTiers[state.range(0)];
  const gen::SweepConfig cfg;
  const lint::Linter linter{};
  int produced = 0;
  for (auto _ : state) {
    const auto platform = gen::generate_platform(cfg.seed_at(produced % 16), tier);
    const auto report = linter.analyze(platform.graph);
    benchmark::DoNotOptimize(report.findings.size());
    ++produced;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Lint_TaskGraphSweep)->Arg(0)->Arg(2)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
