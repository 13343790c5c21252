// The verification cascade in isolation (paper §3): ATPG engines compared,
// bit-coverage fault grading, SAT-based RTL test generation, model checking
// with counter-example extraction, and PCC property-set grading.
//
//   $ ./examples/verification_suite

#include <cstdio>

#include "app/rtl_blocks.hpp"
#include "atpg/atpg.hpp"
#include "mc/mc.hpp"
#include "obs/obs.hpp"
#include "pcc/pcc.hpp"

namespace atpg = symbad::atpg;
namespace app = symbad::app;
namespace mc = symbad::mc;

int main() {
  std::printf("== Symbad verification suite ==\n");

  // ------------------------------------------------------------- ATPG
  std::printf("\n-- ATPG (Laerte++-style) --\n");
  atpg::Laerte laerte{{6, 3, 64, {}, 8}};
  const auto random_tb = laerte.random_testbench(5, 17);
  const auto random_est = laerte.evaluate(random_tb, true);
  std::printf("random engine (5 frames):   stmt %5.1f%%  branch %5.1f%%  cond %5.1f%%  "
              "bit %5.1f%%\n",
              random_est.coverage.statement_percent(),
              random_est.coverage.branch_percent(),
              random_est.coverage.condition_percent(), random_est.bit_faults.percent());
  const auto genetic_tb = laerte.genetic_testbench(5, 8, 5, 17);
  const auto genetic_est = laerte.evaluate(genetic_tb, true);
  std::printf("genetic engine (5 frames):  stmt %5.1f%%  branch %5.1f%%  cond %5.1f%%  "
              "bit %5.1f%%\n",
              genetic_est.coverage.statement_percent(),
              genetic_est.coverage.branch_percent(),
              genetic_est.coverage.condition_percent(), genetic_est.bit_faults.percent());
  std::printf("seeded memory bug found:    %s\n",
              laerte.detects_seeded_memory_bug(genetic_tb) ? "YES" : "no");

  // ------------------------------------------------ SAT test generation
  std::printf("\n-- SAT-based ATPG on RTL --\n");
  const auto pe = app::build_distance_rtl(8, 16);
  int detected = 0;
  int total = 0;
  for (const auto ff : pe.flip_flops()) {
    for (const bool stuck : {false, true}) {
      ++total;
      if (atpg::sat_generate_test(pe, ff, stuck, 3).has_value()) ++detected;
    }
  }
  std::printf("DISTANCE PE register faults: %d/%d detectable within 3 frames\n",
              detected, total);

  // ----------------------------------------------------- model checking
  std::printf("\n-- Model checking (cone transition tables or BMC + k-induction) --\n");
  const auto wrapper = app::build_wrapper_fsm();
  const mc::ModelChecker checker{wrapper};
  for (const auto& prop : app::wrapper_properties_extended()) {
    const symbad::obs::Scope cost;  // the check's cost, from the registry
    const auto result = checker.check(prop);
    const char* verdict = result.status == mc::CheckStatus::proved ? "PROVED"
                          : result.status == mc::CheckStatus::falsified
                              ? "FALSIFIED"
                              : "no cex within bound";
    // The wrapper's cone is small enough for the table engine.
    if (cost.delta("mc.tables.checks") > 0) {
      std::printf("  %-28s %s (%llu table pairs)\n", prop.name.c_str(), verdict,
                  static_cast<unsigned long long>(cost.delta("mc.tables.pairs")));
    } else {
      std::printf("  %-28s %s (%llu conflicts)\n", prop.name.c_str(), verdict,
                  static_cast<unsigned long long>(cost.delta("mc.sat_conflicts")));
    }
  }
  // A deliberately false property, to show counter-example extraction.
  const auto false_prop =
      mc::Property::invariant("wrapper_never_acks", !mc::Expr::signal("ack"));
  const auto cex = checker.check(false_prop);
  std::printf("  %-28s %s", false_prop.name.c_str(),
              cex.status == mc::CheckStatus::falsified ? "FALSIFIED" : "?");
  if (cex.counterexample.has_value()) {
    std::printf(" — counter-example of %zu cycles\n", cex.counterexample->inputs.size());
  } else {
    std::printf("\n");
  }

  // ------------------------------------------------------------- PCC
  std::printf("\n-- Property coverage checking --\n");
  symbad::pcc::PccOptions options;
  options.bmc_bound = 8;
  const auto initial = symbad::pcc::check_property_coverage(
      wrapper, app::wrapper_properties_initial(), options);
  const auto extended = symbad::pcc::check_property_coverage(
      wrapper, app::wrapper_properties_extended(), options);
  std::printf("initial property plan:  %5.1f%% of %zu faults (%zu by sim, %zu by BMC)\n",
              initial.coverage_percent(), initial.total_faults,
              initial.detected_by_simulation, initial.detected_by_bmc);
  std::printf("extended property plan: %5.1f%% of %zu faults (%zu by sim, %zu by BMC)\n",
              extended.coverage_percent(), extended.total_faults,
              extended.detected_by_simulation, extended.detected_by_bmc);
  std::printf("uncovered faults remaining (missing-property hints): %zu\n",
              extended.undetected.size());
  return 0;
}
