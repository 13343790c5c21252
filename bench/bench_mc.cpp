// E9 — Incremental bounded model checking (paper §3.4): the lazy unrolling
// engine on the deepest case-study instances. Complements bench_mc_pcc
// (whole property suites / PCC): here the focus is the per-bound cost
// profile — deep clean runs, early falsification (where laziness saves the
// whole tail of the horizon), and the shared-solver k-induction step. These
// pin the SAT engine, so they call mc::BmcChecker directly: through
// mc::ModelChecker the wrapper's and ROOT's busy/done checks go to the table
// engine, which BM_Mc_TablesWrapperEveryFault measures.
// Cost counters are the last iteration's registry deltas (obs::Scope).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "app/rtl_blocks.hpp"
#include "mc/mc.hpp"
#include "mc/tables.hpp"
#include "obs/obs.hpp"

namespace {

using namespace symbad;

void BM_Mc_LazyBmcDeepUnrolling(benchmark::State& state) {
  // Deep clean BMC run on the ROOT core: every bound is checked, so this
  // measures steady-state per-bound cost (encode one frame + one solve on
  // the long-lived solver) plus the induction step.
  const auto n = app::build_root_rtl();
  const mc::BmcChecker checker{n};
  const auto prop = mc::Property::invariant(
      "busy_and_done_exclusive",
      !(mc::Expr::signal("busy") && mc::Expr::signal("done")));
  std::optional<obs::Scope> last;
  for (auto _ : state) {
    last.emplace();
    const auto result = checker.check(prop, {static_cast<int>(state.range(0)), 3});
    benchmark::DoNotOptimize(result.status);
  }
  state.counters["bound"] = static_cast<double>(state.range(0));
  state.counters["sat_conflicts_total"] = static_cast<double>(last->delta("mc.sat_conflicts"));
}
BENCHMARK(BM_Mc_LazyBmcDeepUnrolling)->Arg(15)->Arg(30)->Unit(benchmark::kMillisecond);

void BM_Mc_EarlyFalsificationUnderDeepHorizon(benchmark::State& state) {
  // A property that fails almost immediately, checked with a deep max
  // bound: the lazy unrolling only ever encodes the frames up to the
  // failing bound, not the whole horizon.
  const auto n = app::build_wrapper_fsm();
  const mc::BmcChecker checker{n};
  const auto prop = mc::Property::invariant(
      "never_busy", !mc::Expr::signal("busy"));  // false after one start
  mc::CheckResult result;
  std::optional<obs::Scope> last;
  for (auto _ : state) {
    last.emplace();
    result = checker.check(prop, {40, 4});
    benchmark::DoNotOptimize(result.status);
  }
  state.counters["falsified"] = result.status == mc::CheckStatus::falsified ? 1.0 : 0.0;
  state.counters["bound_used"] = static_cast<double>(result.bound_used);
  state.counters["sat_conflicts"] = static_cast<double>(last->delta("mc.sat_conflicts"));
}
BENCHMARK(BM_Mc_EarlyFalsificationUnderDeepHorizon)->Unit(benchmark::kMillisecond);

void BM_Mc_ConeOfInfluenceOnRootControl(benchmark::State& state) {
  // The cone cut on a multi-output netlist: the ROOT core carries a 12-bit
  // result datapath, but the property observes only the control outputs
  // (busy/done) — a strict subset — so the datapath is encoded in no frame.
  // The encoded_vars / encoded_clauses counters are deterministic and pin
  // the cut (and, with the encode cache, stay flat per bound).
  const auto n = app::build_root_rtl();
  const mc::BmcChecker checker{n};
  const auto prop = mc::Property::invariant(
      "busy_and_done_exclusive",
      !(mc::Expr::signal("busy") && mc::Expr::signal("done")));
  mc::ModelChecker::Options options;
  options.max_bound = 15;
  options.induction_depth = 3;
  std::optional<obs::Scope> last;
  for (auto _ : state) {
    last.emplace();
    const auto result = checker.check(prop, options);
    benchmark::DoNotOptimize(result.status);
  }
  state.counters["encoded_vars"] = static_cast<double>(last->delta("mc.encoded_vars"));
  state.counters["encoded_clauses"] = static_cast<double>(last->delta("mc.encoded_clauses"));
  state.counters["sat_conflicts_total"] = static_cast<double>(last->delta("mc.sat_conflicts"));
  state.counters["arena_bytes"] = static_cast<double>(last->delta("mc.arena_bytes"));
  state.counters["arena_live"] = static_cast<double>(last->delta("mc.arena_live"));
}
BENCHMARK(BM_Mc_ConeOfInfluenceOnRootControl)->Unit(benchmark::kMillisecond);

void BM_Mc_CheckAllWrapperSuite(benchmark::State& state) {
  // The portfolio API on the paper's verification plan: all 12 wrapper
  // properties on ONE long-lived solver — one portfolio solve per bound
  // clears every surviving property, versus one full BMC sweep each.
  const auto n = app::build_wrapper_fsm();
  const mc::BmcChecker checker{n};
  const auto props = app::wrapper_properties_extended();
  mc::ModelChecker::Options options;
  options.max_bound = 12;
  options.induction_depth = 4;
  mc::MultiCheckResult result;
  std::optional<obs::Scope> last;
  for (auto _ : state) {
    last.emplace();
    result = checker.check_all(props, options);
    benchmark::DoNotOptimize(result.results.size());
  }
  state.counters["properties"] = static_cast<double>(result.results.size());
  state.counters["falsified"] = static_cast<double>(result.count(mc::CheckStatus::falsified));
  state.counters["encoded_vars"] = static_cast<double>(last->delta("mc.encoded_vars"));
  state.counters["encoded_clauses"] = static_cast<double>(last->delta("mc.encoded_clauses"));
  state.counters["sat_conflicts_total"] = static_cast<double>(last->delta("mc.sat_conflicts"));
  state.counters["arena_bytes"] = static_cast<double>(last->delta("mc.arena_bytes"));
  state.counters["arena_live"] = static_cast<double>(last->delta("mc.arena_live"));
  state.counters["sat_compactions"] = static_cast<double>(last->delta("mc.compactions"));
}
BENCHMARK(BM_Mc_CheckAllWrapperSuite)->Unit(benchmark::kMillisecond);

void BM_Mc_CheckAllMixedConesOnRoot(benchmark::State& state) {
  // A portfolio over two cones of the ROOT core: a datapath property (full
  // 24-bit cone) falsifies mid-horizon — sqrt(op<<8) sets result[11] once
  // op >= 16384, first reachable when the 12-cycle pipe drains — while the
  // control property (busy/done cone only) survives to the full bound.
  // Every frame encodes the union cone of both properties.
  const auto n = app::build_root_rtl();
  const mc::BmcChecker checker{n};
  std::vector<mc::Property> props;
  props.push_back(mc::Property::invariant(
      "done_implies_result11_clear",
      mc::Expr::signal("done").implies(!mc::Expr::signal("result[11]"))));
  props.push_back(mc::Property::invariant(
      "busy_done_exclusive", !(mc::Expr::signal("busy") && mc::Expr::signal("done"))));
  mc::ModelChecker::Options options;
  options.max_bound = 20;
  options.induction_depth = 3;
  options.canonical_counterexample = false;  // falsification-only sweep
  mc::MultiCheckResult result;
  std::optional<obs::Scope> last;
  for (auto _ : state) {
    last.emplace();
    result = checker.check_all(props, options);
    benchmark::DoNotOptimize(result.results.size());
  }
  state.counters["falsified_bound"] = static_cast<double>(result.results[0].bound_used);
  state.counters["encoded_vars"] = static_cast<double>(last->delta("mc.encoded_vars"));
  state.counters["encoded_clauses"] = static_cast<double>(last->delta("mc.encoded_clauses"));
}
BENCHMARK(BM_Mc_CheckAllMixedConesOnRoot)->Unit(benchmark::kMillisecond);

void BM_Mc_SharedSolverInductionProof(benchmark::State& state) {
  // An inductive invariant on the DISTANCE PE: the k-induction solve runs
  // on the same solver (and learned clauses) as the preceding BMC sweep.
  const auto n = app::build_distance_rtl(8, 16);
  const mc::BmcChecker checker{n};
  const auto prop = mc::Property::next(
      "overflow_sticky",
      mc::Expr::signal("overflow") && !mc::Expr::signal("clear_in"),
      mc::Expr::signal("overflow"));
  mc::CheckResult result;
  std::optional<obs::Scope> last;
  for (auto _ : state) {
    last.emplace();
    result = checker.check(prop, {static_cast<int>(state.range(0)), 3});
    benchmark::DoNotOptimize(result.status);
  }
  state.counters["proved"] = result.status == mc::CheckStatus::proved ? 1.0 : 0.0;
  state.counters["sat_conflicts_total"] = static_cast<double>(last->delta("mc.sat_conflicts"));
}
BENCHMARK(BM_Mc_SharedSolverInductionProof)->Arg(10)->Unit(benchmark::kMillisecond);

void BM_Mc_TablesWrapperEveryFault(benchmark::State& state) {
  // The table engine on PCC's inner loop: the extended wrapper plan checked
  // on the fault-free design and under every stuck-at fault of every net,
  // at PCC's bound and induction depth. Each check enumerates the cone's
  // 2^(2+3) (state, input) pairs; tables_pairs pins that size.
  const auto n = app::build_wrapper_fsm();
  const mc::TableChecker checker{n};
  const auto props = app::wrapper_properties_extended();
  std::vector<std::map<rtl::Net, bool>> variants{{}};
  for (std::size_t net = 0; net < n.gate_count(); ++net) {
    for (const bool stuck_to : {false, true}) {
      variants.push_back({{static_cast<rtl::Net>(net), stuck_to}});
    }
  }
  mc::ModelChecker::Options options;
  options.max_bound = 8;
  options.induction_depth = 4;
  std::size_t falsified = 0;
  std::optional<obs::Scope> last;
  for (auto _ : state) {
    last.emplace();
    falsified = 0;
    for (const auto& faults : variants) {
      falsified += checker.check_all(props, options, faults).count(mc::CheckStatus::falsified);
    }
    benchmark::DoNotOptimize(falsified);
  }
  state.counters["checks"] = static_cast<double>(variants.size());
  state.counters["falsified"] = static_cast<double>(falsified);
  state.counters["tables_checks"] = static_cast<double>(last->delta("mc.tables.checks"));
  state.counters["tables_pairs"] = static_cast<double>(last->delta("mc.tables.pairs"));
}
BENCHMARK(BM_Mc_TablesWrapperEveryFault)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
