// E7 — Level-4 formal verification (paper §3.4/§4.2): model-checking times
// for the wrapper/ROOT RTL property suites and PCC property-coverage before
// and after extending the verification plan.

#include <benchmark/benchmark.h>

#include <optional>

#include "app/rtl_blocks.hpp"
#include "mc/mc.hpp"
#include "obs/obs.hpp"
#include "pcc/pcc.hpp"

namespace {

using namespace symbad;

/// Shared body of the multi-fault grading benches: runs the PCC campaign
/// and exports the deterministic formal-grading footprint, the last
/// iteration's registry deltas: the SAT engine's per-fault encodings
/// (pcc.encoded_vars / encoded_clauses) and the table engine's enumerated
/// pairs (tables_pairs). All three are hard-gated by
/// scripts/bench_compare.py, so a campaign that changes engine fails the
/// gate until it is re-recorded.
pcc::PccReport run_fault_grading(benchmark::State& state, const rtl::Netlist& n,
                                 const std::vector<mc::Property>& properties,
                                 pcc::PccOptions options) {
  pcc::PccReport report;
  std::optional<obs::Scope> last;
  for (auto _ : state) {
    last.emplace();
    report = pcc::check_property_coverage(n, properties, options);
    benchmark::DoNotOptimize(report.detected);
  }
  state.counters["coverage_pct"] = report.coverage_percent();
  state.counters["encoded_vars"] = static_cast<double>(last->delta("pcc.encoded_vars"));
  state.counters["encoded_clauses"] = static_cast<double>(last->delta("pcc.encoded_clauses"));
  state.counters["tables_pairs"] = static_cast<double>(last->delta("mc.tables.pairs"));
  return report;
}

void BM_Mc_WrapperPropertySuite(benchmark::State& state) {
  const auto n = app::build_wrapper_fsm();
  const mc::ModelChecker checker{n};
  const auto properties = app::wrapper_properties_extended();
  int proved = 0;
  for (auto _ : state) {
    proved = 0;
    for (const auto& prop : properties) {
      if (checker.check(prop).status == mc::CheckStatus::proved) ++proved;
    }
    benchmark::DoNotOptimize(proved);
  }
  state.counters["properties"] = static_cast<double>(properties.size());
  state.counters["proved"] = proved;
}
BENCHMARK(BM_Mc_WrapperPropertySuite)->Unit(benchmark::kMillisecond);

void BM_Mc_RootCoreInvariant(benchmark::State& state) {
  const auto n = app::build_root_rtl();
  const mc::BmcChecker checker{n};
  const auto prop = mc::Property::invariant(
      "busy_and_done_exclusive",
      !(mc::Expr::signal("busy") && mc::Expr::signal("done")));
  mc::CheckResult result;
  std::optional<obs::Scope> last;
  for (auto _ : state) {
    last.emplace();
    result = checker.check(prop, {static_cast<int>(state.range(0)), 3});
    benchmark::DoNotOptimize(result.status);
  }
  state.counters["bound"] = static_cast<double>(state.range(0));
  state.counters["falsified"] = result.status == mc::CheckStatus::falsified ? 1.0 : 0.0;
  state.counters["sat_conflicts"] = static_cast<double>(last->delta("mc.sat_conflicts"));
}
BENCHMARK(BM_Mc_RootCoreInvariant)->Arg(5)->Arg(15)->Unit(benchmark::kMillisecond);

void BM_Pcc_InitialPlan(benchmark::State& state) {
  const auto n = app::build_wrapper_fsm();
  pcc::PccOptions options;
  options.bmc_bound = 8;
  pcc::PccReport report;
  for (auto _ : state) {
    report = pcc::check_property_coverage(n, app::wrapper_properties_initial(), options);
    benchmark::DoNotOptimize(report.detected);
  }
  state.counters["coverage_pct"] = report.coverage_percent();
  state.counters["faults"] = static_cast<double>(report.total_faults);
}
BENCHMARK(BM_Pcc_InitialPlan)->Unit(benchmark::kMillisecond);

void BM_Pcc_ExtendedPlan(benchmark::State& state) {
  const auto n = app::build_wrapper_fsm();
  pcc::PccOptions options;
  options.bmc_bound = 8;
  pcc::PccReport report;
  for (auto _ : state) {
    report = pcc::check_property_coverage(n, app::wrapper_properties_extended(), options);
    benchmark::DoNotOptimize(report.detected);
  }
  state.counters["coverage_pct"] = report.coverage_percent();
  state.counters["by_simulation"] = static_cast<double>(report.detected_by_simulation);
  state.counters["by_bmc"] = static_cast<double>(report.detected_by_bmc);
  state.counters["undetected"] = static_cast<double>(report.undetected.size());
}
BENCHMARK(BM_Pcc_ExtendedPlan)->Unit(benchmark::kMillisecond);

void BM_Pcc_DistancePeSampledFaults(benchmark::State& state) {
  const auto n = app::build_distance_rtl(8, 16);
  std::vector<mc::Property> properties;
  // A valid saturating beat (not being cleared) latches the overflow flag.
  properties.push_back(mc::Property::next(
      "saturating_sets_overflow",
      mc::Expr::signal("saturating") && mc::Expr::signal("valid_in") &&
          !mc::Expr::signal("clear_in"),
      mc::Expr::signal("overflow")));
  // Overflow is sticky while not cleared.
  properties.push_back(mc::Property::next(
      "overflow_sticky",
      mc::Expr::signal("overflow") && !mc::Expr::signal("clear_in"),
      mc::Expr::signal("overflow")));
  pcc::PccOptions options;
  options.bmc_bound = 5;
  options.max_faults = static_cast<std::size_t>(state.range(0));
  // The PE's overflow cone is far past the table engine's size limit, so
  // this is the campaign whose encoding counters gate PCC's SAT path.
  const auto report = run_fault_grading(state, n, properties, options);
  state.counters["faults"] = static_cast<double>(report.total_faults);
}
BENCHMARK(BM_Pcc_DistancePeSampledFaults)->Arg(24)->Unit(benchmark::kMillisecond);

void BM_Pcc_WrapperFaultGrading(benchmark::State& state) {
  // A wrapper-FSM fault campaign where random simulation is kept
  // deliberately weak, so most faults reach formal grading. The wrapper's
  // cone fits the table engine: 32 pairs per graded fault, no encoding.
  const auto n = app::build_wrapper_fsm();
  pcc::PccOptions options;
  options.bmc_bound = 6;
  options.simulation_runs = 1;
  options.simulation_cycles = 8;
  run_fault_grading(state, n, app::wrapper_properties_initial(), options);
}
BENCHMARK(BM_Pcc_WrapperFaultGrading)->Unit(benchmark::kMillisecond);

void BM_Pcc_RootFaultCampaign(benchmark::State& state) {
  // ROOT-core campaign: the control property survives random simulation on
  // nearly every sampled fault, so the campaign is bound by formal grading.
  // The busy/done cone (6 flip-flops, 1 input) fits the table engine: 128
  // pairs per graded fault, no encoding.
  const auto n = app::build_root_rtl();
  std::vector<mc::Property> properties;
  properties.push_back(mc::Property::invariant(
      "busy_done_exclusive",
      !(mc::Expr::signal("busy") && mc::Expr::signal("done"))));
  pcc::PccOptions options;
  options.bmc_bound = 4;
  options.simulation_runs = 1;
  options.simulation_cycles = 8;
  options.max_faults = 12;
  run_fault_grading(state, n, properties, options);
}
BENCHMARK(BM_Pcc_RootFaultCampaign)->Unit(benchmark::kMillisecond);

void BM_Pcc_RootFullFaultCampaign(benchmark::State& state) {
  // The same campaign over ROOT's full 1,760-fault list, as flowbench's
  // fault_grading runs it: the pre-pass walks the busy/done cone (56 of 980
  // nets) and draws its one input, the simulation-missed faults outside
  // that cone are pruned (lint_pruned_faults), and one table engine grades
  // the good-design probe and every other fault. tables_checks counts those
  // checks, sim_passes the pre-pass's 64-lane passes.
  const auto n = app::build_root_rtl();
  const std::vector<mc::Property> properties{mc::Property::invariant(
      "busy_done_exclusive", !(mc::Expr::signal("busy") && mc::Expr::signal("done")))};
  pcc::PccOptions options;
  options.bmc_bound = 4;
  options.simulation_runs = 1;
  options.simulation_cycles = 8;
  pcc::PccReport report;
  std::optional<obs::Scope> last;
  for (auto _ : state) {
    last.emplace();
    report = pcc::check_property_coverage(n, properties, options);
    benchmark::DoNotOptimize(report.detected);
  }
  state.counters["faults"] = static_cast<double>(report.total_faults);
  state.counters["detected"] = static_cast<double>(report.detected);
  state.counters["lint_pruned_faults"] = static_cast<double>(report.lint_pruned_faults);
  state.counters["tables_checks"] = static_cast<double>(last->delta("mc.tables.checks"));
  state.counters["sim_passes"] = static_cast<double>(last->delta("pcc.sim_passes"));
}
BENCHMARK(BM_Pcc_RootFullFaultCampaign)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
