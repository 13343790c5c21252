// E10 — Netlist optimization engine (src/opt): pass-pipeline throughput on
// the case-study netlists, the sweep's contribution, and the end-to-end
// effect of default-on preprocessing on a deep BMC run. The gates_* /
// sweep_* / encoded_* counters are deterministic and host-independent —
// scripts/bench_compare.py hard-gates them, so a regression in the
// optimizer's reduction power fails CI even when wall-clock noise hides it.

#include <benchmark/benchmark.h>

#include "app/rtl_blocks.hpp"
#include "mc/mc.hpp"
#include "obs/obs.hpp"
#include "opt/optimizer.hpp"

#include <cstdlib>
#include <optional>

namespace {

using namespace symbad;

/// The hard-gated counters must not wobble with ambient SYMBAD_OPT*
/// knobs. The pipeline benches pin options explicitly; the end-to-end
/// benches reach the optimizer through mc::ModelChecker (which reads the
/// environment), so the knobs are scrubbed before any benchmark runs.
const bool kEnvScrubbed = [] {
  for (const char* knob : {"SYMBAD_OPT", "SYMBAD_OPT_SWEEP",
                           "SYMBAD_OPT_SWEEP_ROUNDS",
                           "SYMBAD_OPT_SWEEP_MAX_PROOFS"}) {
    ::unsetenv(knob);
  }
  return true;
}();

/// Pinned defaults for the pipeline benches.
opt::OptimizerOptions pinned(bool sweep) {
  opt::OptimizerOptions o;
  o.sweep = sweep;
  return o;
}

void BM_Opt_PipelineOnRoot(benchmark::State& state) {
  // Full pipeline over the ROOT core (the biggest seed netlist), sweep off
  // (Arg 0) vs on (Arg 1): how much the structural passes alone reclaim,
  // and what the SAT proofs add on top.
  const auto n = app::build_root_rtl();
  const auto options = pinned(state.range(0) != 0);
  opt::OptimizeResult result;
  for (auto _ : state) {
    result = opt::optimize(n, options);
    benchmark::DoNotOptimize(result.netlist.gate_count());
  }
  state.counters["sweep"] = static_cast<double>(state.range(0));
  state.counters["gates_before"] = static_cast<double>(result.gates_before());
  state.counters["gates_after"] = static_cast<double>(result.gates_after());
  state.counters["sweep_proofs"] = static_cast<double>(result.sweep_proofs());
  state.counters["sweep_conflicts"] = static_cast<double>(result.sweep_conflicts());
}
BENCHMARK(BM_Opt_PipelineOnRoot)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_Opt_PipelineOnDistancePe(benchmark::State& state) {
  const auto n = app::build_distance_rtl(12, 20);
  const auto options = pinned(state.range(0) != 0);
  opt::OptimizeResult result;
  for (auto _ : state) {
    result = opt::optimize(n, options);
    benchmark::DoNotOptimize(result.netlist.gate_count());
  }
  state.counters["sweep"] = static_cast<double>(state.range(0));
  state.counters["gates_before"] = static_cast<double>(result.gates_before());
  state.counters["gates_after"] = static_cast<double>(result.gates_after());
  state.counters["sweep_proofs"] = static_cast<double>(result.sweep_proofs());
  state.counters["sweep_conflicts"] = static_cast<double>(result.sweep_conflicts());
}
BENCHMARK(BM_Opt_PipelineOnDistancePe)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_Opt_DeepBmcPreprocessOnRootDatapath(benchmark::State& state) {
  // The payoff measurement: a deep (30-bound) BMC run on a datapath-heavy
  // ROOT property, preprocessing off (Arg 0) vs on (Arg 1). The one-time
  // optimize cost is amortised over 31 frames of a much smaller encoding;
  // encoded_vars / encoded_clauses pin the reduction deterministically.
  const auto n = app::build_root_rtl();
  const mc::ModelChecker checker{n};
  const auto prop = mc::Property::invariant(
      "done_implies_high_bits_consistent",
      mc::Expr::signal("done").implies(
          !(mc::Expr::signal("result[11]") && mc::Expr::signal("result[10]")) ||
          mc::Expr::signal("result[9]") || !mc::Expr::signal("result[9]")));
  mc::ModelChecker::Options options;
  options.max_bound = 30;
  options.induction_depth = 3;
  options.optimize = state.range(0) != 0;
  std::optional<obs::Scope> last;  // the last iteration's registry deltas
  for (auto _ : state) {
    last.emplace();
    const auto result = checker.check(prop, options);
    benchmark::DoNotOptimize(result.status);
  }
  state.counters["opt"] = static_cast<double>(state.range(0));
  state.counters["encoded_vars"] = static_cast<double>(last->delta("mc.encoded_vars"));
  state.counters["encoded_clauses"] = static_cast<double>(last->delta("mc.encoded_clauses"));
  state.counters["sat_conflicts_total"] =
      static_cast<double>(last->delta("mc.sat_conflicts"));
}
BENCHMARK(BM_Opt_DeepBmcPreprocessOnRootDatapath)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_Opt_CheckAllLiveConeOnRoot(benchmark::State& state) {
  // The live-cone satellite end to end, on the ROOT core: a datapath
  // property (full 24-bit cone) falsifies mid-horizon — sqrt(op<<8) sets
  // result[11] once op >= 16384, first reachable when the 12-cycle pipe
  // drains — while the control property (busy/done cone only) survives to
  // the full bound. With live_cone on (Arg 1), every bound after the
  // falsification stops encoding the retired datapath cone.
  const auto n = app::build_root_rtl();
  const mc::ModelChecker checker{n};
  std::vector<mc::Property> props;
  props.push_back(mc::Property::invariant(
      "done_implies_result11_clear",
      mc::Expr::signal("done").implies(!mc::Expr::signal("result[11]"))));
  props.push_back(mc::Property::invariant(
      "busy_done_exclusive",
      !(mc::Expr::signal("busy") && mc::Expr::signal("done"))));
  mc::ModelChecker::Options options;
  options.max_bound = 20;
  options.induction_depth = 3;
  options.live_cone = state.range(0) != 0;
  options.canonical_counterexample = false;  // falsification-only sweep
  mc::MultiCheckResult result;
  std::optional<obs::Scope> last;  // the last iteration's registry deltas
  for (auto _ : state) {
    last.emplace();
    result = checker.check_all(props, options);
    benchmark::DoNotOptimize(result.results.size());
  }
  state.counters["live_cone"] = static_cast<double>(state.range(0));
  state.counters["cone_recomputes"] =
      static_cast<double>(last->delta("mc.portfolio.cone_recomputes"));
  state.counters["falsified_bound"] = static_cast<double>(result.results[0].bound_used);
  state.counters["encoded_vars"] =
      static_cast<double>(last->delta("mc.portfolio.encoded_vars"));
  state.counters["encoded_clauses"] =
      static_cast<double>(last->delta("mc.portfolio.encoded_clauses"));
}
BENCHMARK(BM_Opt_CheckAllLiveConeOnRoot)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
