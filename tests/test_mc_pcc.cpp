// Tests for the model checker (src/mc), the property coverage checker
// (src/pcc) and the case study's level-4 RTL blocks (src/app).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <sstream>

#include "app/rtl_blocks.hpp"
#include "gen/gen.hpp"
#include "mc/mc.hpp"
#include "mc/tables.hpp"
#include "obs/obs.hpp"
#include "pcc/pcc.hpp"
#include "rtl/wordops.hpp"
#include "sat/solver.hpp"
#include "support/atpg_oracle.hpp"
#include "support/stuck_at_netlist.hpp"
#include "support/test_util.hpp"
#include "verif/rng.hpp"

namespace gen = symbad::gen;
namespace mc = symbad::mc;
namespace obs = symbad::obs;
namespace pcc = symbad::pcc;
namespace app = symbad::app;
namespace rtl = symbad::rtl;
namespace sat = symbad::sat;

namespace {

/// Saturating 3-bit up-counter with an enable: stops at 7.
rtl::Netlist saturating_counter() {
  rtl::Netlist n{"satcnt"};
  const auto en = n.add_input("en");
  const auto regs = rtl::make_registers(n, "c", 3, 0);
  const auto one = rtl::make_constant(n, 1, 3);
  const auto [inc, carry] = rtl::add(n, regs, one);
  (void)carry;
  const auto at_max = rtl::equal_constant(n, regs, 7);
  const auto hold = n.add_or(at_max, n.add_not(en));
  const auto next = rtl::mux_word(n, hold, regs, inc);
  rtl::connect_registers(n, regs, next);
  rtl::set_output_word(n, "c", regs);
  n.set_output("at_max", at_max);
  n.set_output("en_out", en);
  return n;
}

}  // namespace

// ----------------------------------------------------------------- Expr

TEST(McExpr, EvaluatesAgainstSimulator) {
  const auto n = saturating_counter();
  rtl::Simulator sim{n};
  const auto e = !mc::Expr::signal("at_max") || mc::Expr::signal("c[0]");
  sim.eval();
  EXPECT_TRUE(e.eval(sim, n));  // at reset at_max=0
  EXPECT_NE(e.to_string().find("at_max"), std::string::npos);
}

// ------------------------------------------------------------------- MC

TEST(Mc, InvariantProvedByInduction) {
  // "c <= 7" is trivially true (3 bits) — pick a real invariant instead:
  // at_max -> all bits set. Inductive and true.
  const auto n = saturating_counter();
  const mc::ModelChecker checker{n};
  const auto inv = mc::Property::invariant(
      "at_max_means_all_ones",
      mc::Expr::signal("at_max").implies(mc::Expr::signal("c[0]") &&
                                         mc::Expr::signal("c[1]") &&
                                         mc::Expr::signal("c[2]")));
  const auto result = checker.check(inv);
  EXPECT_EQ(result.status, mc::CheckStatus::proved);
}

TEST(Mc, FalseInvariantFalsifiedWithCounterexample) {
  const auto n = saturating_counter();
  const mc::ModelChecker checker{n};
  // "the counter never reaches 7" is false after 7 enabled cycles.
  const auto inv = mc::Property::invariant("never_max", !mc::Expr::signal("at_max"));
  const auto result = checker.check(inv);
  EXPECT_EQ(result.status, mc::CheckStatus::falsified);
  ASSERT_TRUE(result.counterexample.has_value());
  EXPECT_GE(result.counterexample->inputs.size(), 7u);
  // The counterexample must enable the counter at least 7 times.
  int enables = 0;
  for (const auto& frame : result.counterexample->inputs) {
    if (frame.at("en")) ++enables;
  }
  EXPECT_GE(enables, 7);
}

TEST(Mc, NextImplicationProved) {
  // Once saturated, the counter stays saturated (en or not).
  const auto n = saturating_counter();
  const mc::ModelChecker checker{n};
  const auto prop = mc::Property::next("saturation_is_sticky",
                                       mc::Expr::signal("at_max"),
                                       mc::Expr::signal("at_max"));
  const auto result = checker.check(prop);
  EXPECT_EQ(result.status, mc::CheckStatus::proved);
}

TEST(Mc, NextImplicationFalsified) {
  // "c[0] stays set" is false: bit 0 toggles.
  const auto n = saturating_counter();
  const mc::ModelChecker checker{n};
  const auto prop = mc::Property::next("bit0_sticky", mc::Expr::signal("c[0]"),
                                       mc::Expr::signal("c[0]"));
  const auto result = checker.check(prop);
  EXPECT_EQ(result.status, mc::CheckStatus::falsified);
}

TEST(Mc, BoundedResponse) {
  const auto n = saturating_counter();
  const mc::ModelChecker checker{n};
  // en in 3 consecutive... simpler: from reset, at_max within 6 steps of en
  // is NOT guaranteed (en may drop) -> falsified quickly.
  const auto bad = mc::Property::respond("max_too_soon", mc::Expr::signal("en_out"),
                                         mc::Expr::signal("at_max"), 3);
  EXPECT_EQ(checker.check(bad).status, mc::CheckStatus::falsified);
  // A response that always holds within the bound: c[0] set within 1 cycle of
  // (en & !c[0])? Not guaranteed either. Use a trivially-true response:
  const auto ok = mc::Property::respond("trivial", mc::Expr::signal("at_max"),
                                        mc::Expr::signal("c[0]"), 0);
  EXPECT_EQ(checker.check(ok).status, mc::CheckStatus::no_cex_within_bound);
}

TEST(Mc, ConflictCountsArePerBoundDeltas) {
  // mc.sat_conflicts sums the per-solve conflict deltas of every BMC and
  // induction solve; sat.conflicts counts every solve the session ran.
  const symbad::test::CountersOn counting;
  const auto n = saturating_counter();
  const mc::BmcChecker checker{n};

  // Falsified at bound 7 and canonicalised: the canonicalisation solves
  // count in sat.conflicts only.
  const obs::Scope falsified_cost;
  const auto falsified =
      checker.check(mc::Property::invariant("never_max", !mc::Expr::signal("at_max")), {});
  ASSERT_EQ(falsified.status, mc::CheckStatus::falsified);
  EXPECT_LE(falsified_cost.delta("mc.sat_conflicts"), falsified_cost.delta("sat.conflicts"));

  // Proved: nothing is canonicalised, so every solve is a BMC or induction
  // solve and the two figures agree.
  const obs::Scope proved_cost;
  const auto proved = checker.check(mc::Property::invariant(
      "at_max_means_all_ones",
      mc::Expr::signal("at_max").implies(mc::Expr::signal("c[0]") &&
                                         mc::Expr::signal("c[1]") &&
                                         mc::Expr::signal("c[2]"))), {});
  ASSERT_EQ(proved.status, mc::CheckStatus::proved);
  EXPECT_EQ(proved_cost.delta("mc.sat_conflicts"), proved_cost.delta("sat.conflicts"));
}

TEST(Mc, CounterexampleReplaysOnSimulator) {
  // The lazy incremental unrolling must still produce concrete traces that
  // actually violate the property in cycle-accurate simulation.
  const auto n = saturating_counter();
  const mc::ModelChecker checker{n};
  const auto result =
      checker.check(mc::Property::invariant("never_max", !mc::Expr::signal("at_max")));
  ASSERT_EQ(result.status, mc::CheckStatus::falsified);
  ASSERT_TRUE(result.counterexample.has_value());

  rtl::Simulator sim{n};
  bool violated = false;
  for (const auto& frame : result.counterexample->inputs) {
    for (const auto& [name, value] : frame) sim.set_input(name, value);
    sim.eval();
    if (sim.output("at_max")) violated = true;
    sim.step();
  }
  EXPECT_TRUE(violated);
}

// ------------------------------------------------- cone of influence

namespace {

/// Every seed property of the saturating-counter fixture, all three kinds.
std::vector<mc::Property> counter_properties() {
  std::vector<mc::Property> props;
  props.push_back(mc::Property::invariant(
      "at_max_means_all_ones",
      mc::Expr::signal("at_max").implies(mc::Expr::signal("c[0]") &&
                                         mc::Expr::signal("c[1]") &&
                                         mc::Expr::signal("c[2]"))));
  props.push_back(mc::Property::invariant("never_max", !mc::Expr::signal("at_max")));
  props.push_back(mc::Property::next("saturation_is_sticky", mc::Expr::signal("at_max"),
                                     mc::Expr::signal("at_max")));
  props.push_back(mc::Property::next("bit0_sticky", mc::Expr::signal("c[0]"),
                                     mc::Expr::signal("c[0]")));
  props.push_back(mc::Property::respond("max_too_soon", mc::Expr::signal("en_out"),
                                        mc::Expr::signal("at_max"), 3));
  props.push_back(mc::Property::respond("trivial", mc::Expr::signal("at_max"),
                                        mc::Expr::signal("c[0]"), 0));
  return props;
}

/// A SAT check's verdict plus the cost it added to the mc.* counters, read
/// through an obs::Scope (callers hold a CountersOn).
struct CostedCheck : mc::CheckResult {
  std::uint64_t vars = 0, clauses = 0, conflicts = 0, arena_bytes = 0, compactions = 0;
};

CostedCheck costed_check(const mc::BmcChecker& checker, const mc::Property& prop,
                         const std::map<symbad::rtl::Net, bool>& faults,
                         const mc::ModelChecker::Options& options) {
  const obs::Scope cost;
  CostedCheck c{checker.check(prop, options, faults)};
  c.vars = cost.delta("mc.encoded_vars");
  c.clauses = cost.delta("mc.encoded_clauses");
  c.conflicts = cost.delta("mc.sat_conflicts");
  c.arena_bytes = cost.delta("mc.arena_bytes");
  c.compactions = cost.delta("mc.compactions");
  return c;
}

/// Verdict, bound_used and (canonical) counterexample of one property on
/// the SAT engine against the table engine.
void expect_same_result(const mc::CheckResult& sat, const mc::CheckResult& tables,
                        const std::string& what) {
  EXPECT_EQ(sat.status, tables.status) << what;
  EXPECT_EQ(sat.bound_used, tables.bound_used) << what;
  ASSERT_EQ(sat.counterexample.has_value(), tables.counterexample.has_value()) << what;
  if (sat.counterexample.has_value()) {
    EXPECT_EQ(sat.counterexample->inputs, tables.counterexample->inputs) << what;
  }
}

/// Checks one property on BmcChecker, whose chain is cut to the property's
/// cone, and on TableChecker, an exact search of that cone that encodes
/// nothing, and requires the two results to be bit-identical. The cone's own
/// evidence is independent of both engines (see expect_engines_agree).
void expect_cut_matches_tables(const rtl::Netlist& n, const mc::Property& prop,
                               const std::map<rtl::Net, bool>& faults,
                               const mc::ModelChecker::Options& options) {
  expect_same_result(mc::BmcChecker{n}.check(prop, options, faults),
                     mc::TableChecker{n}.check(prop, options, faults), prop.name);
}

}  // namespace

TEST(McCoi, EquivalentOnEverySeedProperty) {
  // For every seed property (counter, wrapper FSM, ROOT core), the SAT
  // check on the chain cut to the property's cone and the table engine's
  // search agree on verdict, bound_used and counterexample.
  const auto counter = saturating_counter();
  for (const auto& prop : counter_properties()) {
    expect_cut_matches_tables(counter, prop, {}, {});
  }
  const auto fsm = app::build_wrapper_fsm();
  for (const auto& prop : app::wrapper_properties_extended()) {
    expect_cut_matches_tables(fsm, prop, {}, {12, 4});
  }
  const auto root = app::build_root_rtl();
  const auto prop = mc::Property::invariant(
      "busy_xor_done_weak", !(mc::Expr::signal("busy") && mc::Expr::signal("done")));
  expect_cut_matches_tables(root, prop, {}, {10, 3});
}

TEST(McCoi, EquivalentUnderInjectedFaults) {
  // The fault variants PCC exercises: stuck-at faults on internal wrapper
  // nets, both polarities, each property checked on its own cut chain and
  // by the table engine.
  const auto fsm = app::build_wrapper_fsm();
  const auto props = app::wrapper_properties_initial();
  std::vector<rtl::Net> sites;
  for (std::size_t i = 0; i < fsm.gate_count() && sites.size() < 4; ++i) {
    const auto kind = fsm.gate(static_cast<rtl::Net>(i)).kind;
    if (kind == rtl::GateKind::and_gate || kind == rtl::GateKind::dff) {
      sites.push_back(static_cast<rtl::Net>(i));
    }
  }
  ASSERT_GE(sites.size(), 2u);
  for (const auto site : sites) {
    for (const bool stuck_to : {false, true}) {
      const std::map<rtl::Net, bool> faults{{site, stuck_to}};
      for (const auto& prop : props) {
        expect_cut_matches_tables(fsm, prop, faults, {6, 3});
      }
    }
  }
}

TEST(McCoi, ReducesEncodingWhenPropertyObservesOutputSubset) {
  // The ROOT core has a wide result datapath; a property over the control
  // outputs only (busy/done — a strict subset of the outputs) encodes only
  // their cone: the whole unrolling to bound 10 takes fewer variables than
  // ROOT has nets.
  const auto root = app::build_root_rtl();
  ASSERT_GT(root.outputs().size(), 2u);  // busy, done, result[11:0]
  const auto prop = mc::Property::invariant(
      "busy_done_exclusive", !(mc::Expr::signal("busy") && mc::Expr::signal("done")));
  const mc::ModelChecker::Options options{10, 3};
  const symbad::test::CountersOn counting;
  const auto check = costed_check(mc::BmcChecker{root}, prop, {}, options);
  EXPECT_EQ(check.status, mc::TableChecker{root}.check(prop, options).status);
  EXPECT_LT(check.vars, root.gate_count());
  EXPECT_GT(check.vars, 0u);
}

// ----------------------------------------------------- arena compaction

namespace {

/// Reduction schedule that keeps the solver's learned DB under constant
/// churn: a reduction after every conflict, keeping nothing by glue. This
/// maximises arena garbage, so compaction (when enabled) actually runs.
sat::Solver::ReduceOptions aggressive_reduce(sat::CompactMode compact) {
  sat::Solver::ReduceOptions r;
  r.base = 1;
  r.increment = 1;
  r.keep_lbd = 0;
  r.compact = compact;
  return r;
}

/// Checks one property with arena compaction forced on every reduction vs
/// disabled and requires verdict, bound_used, canonical counterexample and
/// the total conflict count to be bit-identical — compaction must be pure
/// relocation, invisible to the search. Returns the forced run's compaction
/// count so callers can assert the mode actually exercised the mover.
std::uint64_t expect_compact_equivalent(const mc::BmcChecker& checker,
                                        const mc::Property& prop,
                                        mc::ModelChecker::Options options) {
  const symbad::test::CountersOn counting;
  options.sat_reduce = aggressive_reduce(sat::CompactMode::always);
  const auto forced = costed_check(checker, prop, {}, options);
  options.sat_reduce = aggressive_reduce(sat::CompactMode::never);
  const auto never = costed_check(checker, prop, {}, options);
  EXPECT_EQ(forced.status, never.status) << prop.name;
  EXPECT_EQ(forced.bound_used, never.bound_used) << prop.name;
  EXPECT_EQ(forced.conflicts, never.conflicts) << prop.name;
  EXPECT_EQ(forced.counterexample.has_value(), never.counterexample.has_value())
      << prop.name;
  if (forced.counterexample.has_value() && never.counterexample.has_value()) {
    EXPECT_EQ(forced.counterexample->inputs, never.counterexample->inputs)
        << prop.name;
  }
  // With compaction off the arena only ever grows; forced compaction must
  // never leave it larger, and the never-mode must not have compacted.
  EXPECT_LE(forced.arena_bytes, never.arena_bytes) << prop.name;
  EXPECT_EQ(never.compactions, 0u) << prop.name;
  return forced.compactions;
}

}  // namespace

TEST(McCompact, ForcedVsNeverIsBitIdenticalOnSeedProperties) {
  // Acceptance gate of the clause-arena tentpole at the mc level: for every
  // seed property of the counter and wrapper fixtures, forcing a compaction
  // on every DB reduction changes nothing observable — verdict, bound,
  // counterexample and conflict count all match a compaction-free run.
  std::uint64_t compactions = 0;
  {
    const auto counter = saturating_counter();
    const mc::BmcChecker checker{counter};
    for (const auto& prop : counter_properties()) {
      compactions += expect_compact_equivalent(checker, prop, {});
    }
  }
  {
    const auto fsm = app::build_wrapper_fsm();
    const mc::BmcChecker checker{fsm};
    for (const auto& prop : app::wrapper_properties_extended()) {
      compactions += expect_compact_equivalent(checker, prop, {12, 4});
    }
  }
  // The suite as a whole must actually have compacted — otherwise the test
  // only compared two identical no-op configurations.
  EXPECT_GT(compactions, 0u);
}

TEST(McCompact, ForcedVsNeverIsBitIdenticalOnRandomNetlists) {
  // Fuzz round: random mixed-logic netlists (every gate kind, registers,
  // deep output cones) checked for a falsifiable and a typically-provable
  // property under both compaction modes. Seeded via SYMBAD_TEST_SEED.
  auto rng = symbad::test::rng("mc_compact_fuzz");
  for (int round = 0; round < 4; ++round) {
    // redundancy = 0: plain mixed logic, matching this test's original
    // hand-rolled builder (compaction identity must not rely on the
    // encoder's folds having anything to chew on).
    const auto n = gen::random_netlist(rng, {4, 3, 40, 2, 0.0},
                                       "fuzz" + std::to_string(round));

    const mc::BmcChecker checker{n};
    expect_compact_equivalent(
        checker, mc::Property::invariant("o0_never", !mc::Expr::signal("o0")), {8, 2});
    expect_compact_equivalent(
        checker,
        mc::Property::next("o0_sticky", mc::Expr::signal("o0"), mc::Expr::signal("o1")),
        {8, 2});
  }
}

TEST(McCompact, GeneratedTierNetlistsCompactBitIdentical) {
  // Compaction purity on generator-scale designs: a couple of seeds per size
  // tier from the shared sweep stream (this pins the clause mover against
  // 300+-gate cones too).
  gen::SweepConfig cfg;
  cfg.count = 2;
  for (const auto tier : cfg.tiers()) {
    for (int i = 0; i < cfg.count; ++i) {
      const std::uint64_t seed = cfg.seed_at(i);
      const auto n = gen::generate_netlist(seed, tier);
      const mc::BmcChecker checker{n};
      const auto o0 = mc::Expr::signal("o0");
      const auto o1 = mc::Expr::signal("o1");
      expect_compact_equivalent(
          checker, mc::Property::invariant("inv_nand", !(o0 && o1)), {4, 2});
    }
  }
}

// ----------------------------------------------------- encode cache

TEST(McEncodeCache, ReEncodingSameNodeAndFrameAddsNothing) {
  // Regression for the duplicate aux-var/clause leak: before the cache,
  // every `Expr::encode` of the same node at the same frame minted fresh
  // Tseitin variables and clauses (O(bound^2) growth for bounded_response).
  const auto n = saturating_counter();
  symbad::sat::Solver solver;
  rtl::CnfEncoder encoder{n, solver};
  encoder.begin_chain({});
  mc::EncodeCache cache;
  const auto expr = mc::Expr::signal("at_max") &&
                    (mc::Expr::signal("c[0]") || !mc::Expr::signal("c[1]"));

  const auto first = expr.encode(encoder, 2, cache);
  const int vars_after_first = solver.variable_count();
  const std::size_t clauses_after_first = solver.problem_clause_count();
  const auto second = expr.encode(encoder, 2, cache);
  EXPECT_EQ(first, second);
  EXPECT_EQ(solver.variable_count(), vars_after_first);
  EXPECT_EQ(solver.problem_clause_count(), clauses_after_first);
  // A different frame is a different cache entry.
  const auto deeper = expr.encode(encoder, 3, cache);
  EXPECT_NE(deeper, first);
  EXPECT_GT(solver.variable_count(), vars_after_first);
}

TEST(McEncodeCache, BoundedResponseSolverGrowthIsLinearInBound) {
  // bounded_response at bound i re-visits the consequent at frames i..i+k;
  // without the cache every deeper bound re-Tseitins those nodes afresh and
  // the encoding grows quadratically. With it, each extra bound pays a
  // constant: one new frame plus one new (node, frame) set — so the clause
  // and variable growth per 8 bounds is *exactly* the same at any depth.
  const auto n = saturating_counter();
  const mc::BmcChecker checker{n};
  const auto prop = mc::Property::respond(
      "max_settles", mc::Expr::signal("at_max"),
      mc::Expr::signal("c[0]") && mc::Expr::signal("c[1]"), 2);
  const symbad::test::CountersOn counting;
  auto clean_check = [&](int max_bound) {
    mc::ModelChecker::Options options;
    options.max_bound = max_bound;
    const auto result = costed_check(checker, prop, {}, options);
    EXPECT_EQ(result.status, mc::CheckStatus::no_cex_within_bound);
    return result;
  };
  const auto r8 = clean_check(8);
  const auto r16 = clean_check(16);
  const auto r24 = clean_check(24);
  EXPECT_EQ(r24.clauses - r16.clauses, r16.clauses - r8.clauses);
  EXPECT_EQ(r24.vars - r16.vars, r16.vars - r8.vars);
}

// ------------------------------------------------- portfolio check_all

namespace {

/// Verdict, bound_used and canonical counterexample, property by property,
/// of a check_all against the per-property checks of the same variant.
void expect_portfolio_matches_singles(const mc::MultiCheckResult& multi,
                                      const mc::BmcChecker& checker,
                                      const std::vector<mc::Property>& props,
                                      const std::map<rtl::Net, bool>& faults,
                                      const mc::ModelChecker::Options& options,
                                      const std::string& what) {
  ASSERT_EQ(multi.results.size(), props.size()) << what;
  for (std::size_t i = 0; i < props.size(); ++i) {
    const auto single = checker.check(props[i], options, faults);
    const auto& shared = multi.results[i];
    EXPECT_EQ(shared.status, single.status) << what << " " << props[i].name;
    EXPECT_EQ(shared.bound_used, single.bound_used) << what << " " << props[i].name;
    ASSERT_EQ(shared.counterexample.has_value(), single.counterexample.has_value())
        << what << " " << props[i].name;
    if (shared.counterexample.has_value()) {
      EXPECT_EQ(shared.counterexample->inputs, single.counterexample->inputs)
          << what << " " << props[i].name;
    }
  }
}

/// Up to `want` internal fault sites (no constants or inputs), spread over
/// the netlist by a fixed stride.
std::vector<rtl::Net> sample_fault_sites(const rtl::Netlist& n, std::size_t want) {
  std::vector<rtl::Net> sites;
  const std::size_t stride = n.gate_count() / want + 1;
  for (std::size_t i = 0; i < n.gate_count() && sites.size() < want; ++i) {
    const auto net = static_cast<rtl::Net>((i * stride) % n.gate_count());
    const auto kind = n.gate(net).kind;
    if (kind == rtl::GateKind::const0 || kind == rtl::GateKind::const1 ||
        kind == rtl::GateKind::input) {
      continue;
    }
    if (std::find(sites.begin(), sites.end(), net) == sites.end()) sites.push_back(net);
  }
  return sites;
}

/// Two independent blocks: a wide OR-tree feeding one register (property
/// falsified at bound 1, big cone) and a quiet 2-bit chain that never
/// rises (clean through every bound, tiny cone).
rtl::Netlist two_block_netlist() {
  rtl::Netlist n{"twoblock"};
  const rtl::Word wide = rtl::make_inputs(n, "w", 16);
  const auto any = rtl::reduce_or(n, wide);
  const auto a = n.add_dff(false, "a");
  n.connect_next(a, any);
  const auto en = n.add_input("en");
  const auto b0 = n.add_dff(false, "b0");
  const auto b1 = n.add_dff(false, "b1");
  n.connect_next(b0, n.add_and(b0, en));
  n.connect_next(b1, n.add_and(b0, b1));
  n.set_output("a_out", a);
  n.set_output("b_out", b1);
  return n;
}

}  // namespace

TEST(McPortfolio, CheckAllMatchesIndividualChecks) {
  // The portfolio runs every property on one solver; verdicts, bounds and
  // canonical counterexamples must match per-property checks exactly.
  const symbad::test::CountersOn counting;
  const auto n = saturating_counter();
  const mc::BmcChecker checker{n};
  const auto props = counter_properties();
  const mc::ModelChecker::Options options;
  const obs::Scope multi_cost;
  const auto multi = checker.check_all(props, options);
  EXPECT_GT(multi_cost.delta("mc.frames_encoded"), 0u);
  expect_portfolio_matches_singles(multi, checker, props, {}, options, "counter");
  EXPECT_EQ(multi.count(mc::CheckStatus::falsified), 3u);
  EXPECT_EQ(multi.count(mc::CheckStatus::proved), 2u);
  EXPECT_EQ(multi.count(mc::CheckStatus::no_cex_within_bound), 1u);

  // And under injected faults, the way a PCC campaign grades: the wrapper's
  // initial plan on four sampled sites, both polarities.
  const auto fsm = app::build_wrapper_fsm();
  const mc::BmcChecker fsm_checker{fsm};
  const auto plan = app::wrapper_properties_initial();
  const auto sites = sample_fault_sites(fsm, 4);
  ASSERT_EQ(sites.size(), 4u);
  for (const auto site : sites) {
    for (const bool stuck_to : {false, true}) {
      const std::map<rtl::Net, bool> faults{{site, stuck_to}};
      expect_portfolio_matches_singles(
          fsm_checker.check_all(plan, {6, 3}, faults), fsm_checker, plan, faults,
          {6, 3}, "wrapper net " + std::to_string(site) + " stuck-at " +
                      std::to_string(stuck_to));
    }
  }
}

TEST(McPortfolio, CheckAllOnWrapperSuiteProvesEverything) {
  const auto fsm = app::build_wrapper_fsm();
  const mc::ModelChecker checker{fsm};
  const auto multi = checker.check_all(app::wrapper_properties_extended(), {12, 4});
  for (const auto& r : multi.results) {
    EXPECT_NE(r.status, mc::CheckStatus::falsified);
  }
  EXPECT_EQ(multi.count(mc::CheckStatus::falsified), 0u);
}

TEST(McPortfolio, CheckAllConeEquivalence) {
  // check_all cuts its chain once, to the union of its properties' cones.
  // On every seed suite the table engine takes (the counter's properties,
  // the wrapper's extended plan, ROOT's busy/done pair) the portfolio's
  // results equal the table engine's exact search of that cone.
  const auto counter = saturating_counter();
  const auto fsm = app::build_wrapper_fsm();
  const auto root = app::build_root_rtl();
  const struct {
    const rtl::Netlist& n;
    std::vector<mc::Property> props;
    mc::ModelChecker::Options options;
  } suites[] = {
      {counter, counter_properties(), {}},
      {fsm, app::wrapper_properties_extended(), {12, 4}},
      {root,
       {mc::Property::invariant("busy_xor_done_weak",
                                !(mc::Expr::signal("busy") && mc::Expr::signal("done"))),
        mc::Property::invariant("never_busy", !mc::Expr::signal("busy"))},
       {10, 3}},
  };
  for (const auto& suite : suites) {
    const auto sat = mc::BmcChecker{suite.n}.check_all(suite.props, suite.options);
    const auto tables = mc::TableChecker{suite.n}.check_all(suite.props, suite.options);
    ASSERT_EQ(sat.results.size(), suite.props.size()) << suite.n.name();
    ASSERT_EQ(tables.results.size(), suite.props.size()) << suite.n.name();
    for (std::size_t i = 0; i < suite.props.size(); ++i) {
      expect_same_result(sat.results[i], tables.results[i],
                         suite.n.name() + " " + suite.props[i].name);
    }
  }
}

TEST(McPortfolio, EmptyPropertyListIsEmptyResult) {
  // An empty list still counts as one check, with nothing encoded or
  // solved.
  const symbad::test::CountersOn counting;
  const auto n = saturating_counter();
  const mc::ModelChecker checker{n};
  const obs::Scope cost;
  const auto multi = checker.check_all({});
  EXPECT_TRUE(multi.results.empty());
  EXPECT_EQ(cost.delta("mc.checks"), 1u);
  for (const char* name :
       {"mc.properties", "mc.tables.checks", "mc.tables.pairs", "mc.frames_encoded",
        "mc.sat_conflicts", "mc.encoded_vars", "mc.encoded_clauses", "mc.arena_bytes",
        "mc.arena_live", "mc.compactions", "sat.solves"}) {
    EXPECT_EQ(cost.delta(name), 0u) << name;
  }
}

TEST(McPortfolio, CheckAllDropsRetiredConesFromLaterBounds) {
  // Two properties with disjoint cones on one solver: 'a_never' (the OR
  // tree) retires at bound 1 while 'b_never' (the quiet chain) stays clean
  // through bound 12. The chain stays cut to the union of both cones; what
  // retiring drops is the property's violation logic at every later bound,
  // and its unit ~activation kills its share of the bound it retired at.
  const auto n = two_block_netlist();
  const mc::BmcChecker checker{n};
  const std::vector<mc::Property> props{
      mc::Property::invariant("a_never", !mc::Expr::signal("a_out")),   // falsified
      mc::Property::invariant("b_never", !mc::Expr::signal("b_out"))};  // clean
  mc::ModelChecker::Options options{12, 3};
  const auto multi = checker.check_all(props, options);
  expect_portfolio_matches_singles(multi, checker, props, {}, options, "twoblock");
  EXPECT_EQ(multi.results[0].status, mc::CheckStatus::falsified);
  EXPECT_EQ(multi.results[0].bound_used, 1);
  EXPECT_EQ(multi.results[1].status, mc::CheckStatus::proved);
  EXPECT_EQ(multi.results[1].bound_used, options.max_bound);

  // With model counterexamples (no canonicalisation solves) the portfolio
  // pays one solve per bound, one more for the round that retired 'a_never'
  // (a retired property that came back would fail the check with a logic
  // error) and one induction solve for the survivor.
  options.canonical_counterexample = false;
  const symbad::test::CountersOn counting;
  const obs::Scope cost;
  const auto plain = checker.check_all(props, options);
  EXPECT_EQ(plain.results[0].status, mc::CheckStatus::falsified);
  EXPECT_EQ(plain.results[0].bound_used, 1);
  EXPECT_EQ(plain.results[1].status, mc::CheckStatus::proved);
  EXPECT_EQ(cost.delta("sat.solves"), static_cast<std::uint64_t>(options.max_bound) + 1 + 2);
}

// ------------------------------------- counterexample edge cases

TEST(McCex, BoundedResponseFalsificationSpansResponseWindow) {
  // "en leads to at_max within 3" is violated from reset: the violation at
  // bound 0 spans frames 0..3 (`last = i + response_bound`), so the trace
  // must cover the whole response window, not just the failing bound.
  const auto n = saturating_counter();
  const mc::ModelChecker checker{n};
  const auto prop = mc::Property::respond("max_too_soon", mc::Expr::signal("en_out"),
                                          mc::Expr::signal("at_max"), 3);
  const auto result = checker.check(prop);
  ASSERT_EQ(result.status, mc::CheckStatus::falsified);
  ASSERT_TRUE(result.counterexample.has_value());
  const auto& inputs = result.counterexample->inputs;
  ASSERT_EQ(inputs.size(),
            static_cast<std::size_t>(result.bound_used + prop.response_bound + 1));

  // Replay: some cycle t has en asserted while at_max stays low through
  // t..t+3 — the bounded-response violation, observed in simulation.
  rtl::Simulator sim{n};
  std::vector<bool> p_trace;
  std::vector<bool> q_trace;
  for (const auto& frame : inputs) {
    for (const auto& [name, value] : frame) sim.set_input(name, value);
    sim.eval();
    p_trace.push_back(sim.output("en_out"));
    q_trace.push_back(sim.output("at_max"));
    sim.step();
  }
  bool violated = false;
  for (std::size_t t = 0; t + 3 < p_trace.size(); ++t) {
    if (!p_trace[t]) continue;
    bool responded = false;
    for (std::size_t d = t; d <= t + 3; ++d) responded = responded || q_trace[d];
    violated = violated || !responded;
  }
  EXPECT_TRUE(violated);
}

TEST(McCex, FaultyCounterexampleReplaysUnderInjectedFault) {
  // Stuck-at-0 on the counter's `hold` mux select (the OR of at_max and
  // !en) makes the counter free-run: "never_max" fails even with `en`
  // deasserted. The extracted trace must reproduce the violation on a
  // simulator carrying the same injected fault.
  const auto n = saturating_counter();
  const mc::ModelChecker checker{n};
  const symbad::rtl::Net at_max = n.output("at_max");
  symbad::rtl::Net hold = -1;
  for (std::size_t i = 0; i < n.gate_count(); ++i) {
    const auto& g = n.gate(static_cast<symbad::rtl::Net>(i));
    if (g.kind == symbad::rtl::GateKind::or_gate && g.a == at_max) {
      hold = static_cast<symbad::rtl::Net>(i);
      break;
    }
  }
  ASSERT_GE(hold, 0);
  const std::map<symbad::rtl::Net, bool> faults{{hold, false}};
  const auto prop = mc::Property::invariant("never_max", !mc::Expr::signal("at_max"));
  const auto result = checker.check(prop, {}, faults);
  ASSERT_EQ(result.status, mc::CheckStatus::falsified);
  ASSERT_TRUE(result.counterexample.has_value());
  // The canonical trace is all-false: the fault itself drives the counter.
  for (const auto& frame : result.counterexample->inputs) {
    for (const auto& [name, value] : frame) EXPECT_FALSE(value) << name;
  }

  rtl::Simulator sim{n};
  sim.inject_stuck_at(hold, false);
  bool violated = false;
  for (const auto& frame : result.counterexample->inputs) {
    for (const auto& [name, value] : frame) sim.set_input(name, value);
    sim.eval();
    violated = violated || !prop.antecedent.eval(sim, n);
    sim.step();
  }
  EXPECT_TRUE(violated);

  // Control: without the fault the same all-false trace is innocent.
  rtl::Simulator clean{n};
  bool clean_violated = false;
  for (const auto& frame : result.counterexample->inputs) {
    for (const auto& [name, value] : frame) clean.set_input(name, value);
    clean.eval();
    clean_violated = clean_violated || !prop.antecedent.eval(clean, n);
    clean.step();
  }
  EXPECT_FALSE(clean_violated);
}

// ------------------------------------------------------- case-study RTL

TEST(RootRtl, MatchesReferenceForSampledOperands) {
  const auto n = app::build_root_rtl();
  rtl::Simulator sim{n};
  rtl::Word op;
  for (int i = 0; i < 16; ++i) op.bits.push_back(n.input("op[" + std::to_string(i) + "]"));

  // Corner cases plus a deterministic random sample of the operand space.
  std::vector<std::uint32_t> operands = {0u,   1u,   2u,    9u,    100u,
                                         255u, 256u, 1000u, 4095u, 65535u};
  auto rng = symbad::test::rng("root_rtl_operands");
  for (int i = 0; i < 24; ++i) {
    operands.push_back(static_cast<std::uint32_t>(rng.below(65536)));
  }
  for (std::uint32_t value : operands) {
    sim.set_input("start", true);
    rtl::drive_word(sim, op, value);
    sim.step();  // load
    sim.set_input("start", false);
    for (int c = 0; c < app::kRootLatencyCycles; ++c) sim.step();
    EXPECT_TRUE(sim.output("done")) << value;
    rtl::Word result;
    for (int i = 0; i < 12; ++i) {
      result.bits.push_back(n.output("result[" + std::to_string(i) + "]"));
    }
    EXPECT_EQ(rtl::read_word(sim, result),
              app::root_reference(static_cast<std::uint16_t>(value)))
        << "operand " << value;
  }
}

TEST(DistanceRtl, AccumulatesAbsoluteDifferences) {
  const auto n = app::build_distance_rtl(8, 16);
  rtl::Simulator sim{n};
  rtl::Word a;
  rtl::Word b;
  rtl::Word acc;
  for (int i = 0; i < 8; ++i) {
    a.bits.push_back(n.input("a[" + std::to_string(i) + "]"));
    b.bits.push_back(n.input("b[" + std::to_string(i) + "]"));
  }
  for (int i = 0; i < 16; ++i) {
    acc.bits.push_back(n.output("acc[" + std::to_string(i) + "]"));
  }
  sim.set_input("clear", true);
  sim.set_input("valid", false);
  sim.step();
  sim.set_input("clear", false);
  sim.set_input("valid", true);
  std::uint64_t expected = 0;
  const std::pair<std::uint64_t, std::uint64_t> samples[] = {
      {10, 3}, {3, 10}, {255, 0}, {128, 128}, {77, 200}};
  for (const auto& [va, vb] : samples) {
    rtl::drive_word(sim, a, va);
    rtl::drive_word(sim, b, vb);
    sim.step();
    expected += va > vb ? va - vb : vb - va;
    EXPECT_EQ(rtl::read_word(sim, acc), expected);
  }
  EXPECT_FALSE(sim.output("overflow"));
  sim.set_input("clear", true);
  sim.step();
  EXPECT_EQ(rtl::read_word(sim, acc), 0u);
}

TEST(WrapperFsm, WalksThroughProtocol) {
  const auto n = app::build_wrapper_fsm();
  rtl::Simulator sim{n};
  EXPECT_FALSE(sim.output("busy"));
  sim.set_input("start", true);
  sim.step();
  sim.set_input("start", false);
  EXPECT_TRUE(sim.output("busy"));
  EXPECT_TRUE(sim.output("bus_req"));  // LOAD
  sim.set_input("xfer_done", true);
  sim.step();
  sim.set_input("xfer_done", false);
  EXPECT_TRUE(sim.output("dev_start"));  // EXEC
  EXPECT_FALSE(sim.output("bus_req"));
  sim.set_input("dev_done", true);
  sim.step();
  sim.set_input("dev_done", false);
  EXPECT_TRUE(sim.output("bus_req"));  // STORE
  sim.set_input("xfer_done", true);
  sim.eval();
  EXPECT_TRUE(sim.output("ack"));
  sim.step();
  sim.set_input("xfer_done", false);
  sim.eval();
  EXPECT_FALSE(sim.output("busy"));  // back to IDLE
}

TEST(WrapperFsm, SafetyPropertiesProved) {
  const auto n = app::build_wrapper_fsm();
  const mc::ModelChecker checker{n};
  // The device never starts while the bus is being used by the wrapper.
  const auto exclusive = mc::Property::invariant(
      "no_dev_start_during_bus_req",
      !(mc::Expr::signal("dev_start") && mc::Expr::signal("bus_req")));
  EXPECT_EQ(checker.check(exclusive).status, mc::CheckStatus::proved);
  // An ack only happens while busy.
  const auto ack_busy = mc::Property::invariant(
      "ack_implies_busy", mc::Expr::signal("ack").implies(mc::Expr::signal("busy")));
  EXPECT_EQ(checker.check(ack_busy).status, mc::CheckStatus::proved);
}

TEST(RootRtl, DoneStableInvariant) {
  const auto n = app::build_root_rtl();
  const mc::ModelChecker checker{n};
  // busy and done are never asserted together... done rises exactly when
  // busy drops; they can overlap for zero cycles by construction:
  const auto prop = mc::Property::invariant(
      "busy_xor_done_weak",
      !(mc::Expr::signal("busy") && mc::Expr::signal("done")));
  const auto result = checker.check(prop, {10, 3});
  // This invariant is in fact true (done set only when finishing clears
  // busy); accept proof or bounded-clean, reject counterexamples.
  EXPECT_NE(result.status, mc::CheckStatus::falsified);
}

// ------------------------------------------------------------------ PCC

TEST(Pcc, ExtendedPropertySuiteIsProvable) {
  const auto n = app::build_wrapper_fsm();
  const mc::ModelChecker checker{n};
  for (const auto& prop : app::wrapper_properties_extended()) {
    const auto result = checker.check(prop, {12, 4});
    EXPECT_NE(result.status, mc::CheckStatus::falsified) << prop.name;
  }
}

TEST(Pcc, ExtendedPropertySetCoversMostWrapperFaults) {
  const auto n = app::build_wrapper_fsm();
  pcc::PccOptions options;
  options.bmc_bound = 8;
  const auto report =
      pcc::check_property_coverage(n, app::wrapper_properties_extended(), options);
  EXPECT_GT(report.total_faults, 10u);
  EXPECT_GT(report.coverage_percent(), 60.0);
  EXPECT_EQ(report.detected, report.detected_by_simulation + report.detected_by_bmc);
}

TEST(Pcc, RicherPropertySetScoresHigher) {
  // The PCC workflow of §3.4: prove, measure coverage, find it lacking,
  // add properties, measure again — coverage must increase.
  const auto n = app::build_wrapper_fsm();
  pcc::PccOptions options;
  options.bmc_bound = 6;
  const auto weak_report =
      pcc::check_property_coverage(n, app::wrapper_properties_initial(), options);
  const auto strong_report =
      pcc::check_property_coverage(n, app::wrapper_properties_extended(), options);
  EXPECT_GE(strong_report.coverage_percent(), weak_report.coverage_percent());
  EXPECT_GT(strong_report.detected, weak_report.detected);
  EXPECT_FALSE(weak_report.undetected.empty());
}

TEST(Pcc, FaultSamplingCapRespected) {
  const auto n = app::build_distance_rtl(6, 10);
  std::vector<mc::Property> properties;
  properties.push_back(mc::Property::invariant(
      "overflow_implies_acc_msb_or_any",
      mc::Expr::signal("overflow").implies(mc::Expr::constant(true))));
  pcc::PccOptions options;
  options.max_faults = 20;
  options.bmc_bound = 4;
  const auto report = pcc::check_property_coverage(n, properties, options);
  EXPECT_EQ(report.total_faults, 20u);
}

TEST(Pcc, SatGradedVerdictsMatchStuckAtCopies) {
  // Every fault of the 4-bit DISTANCE PE, graded by BMC alone (no
  // simulation runs), against a plain fault-free BmcChecker::check_all of a
  // copy with the fault rebuilt as a constant gate. The PE's overflow cone
  // is beyond the table engine's size limit, so every check runs on SAT,
  // faults included through the CNF encoder; faults pruned outside the
  // observed cone must be undetected on their copies too.
  const auto pe = app::build_distance_rtl(4, 6);
  const auto sig = [](const char* name) { return mc::Expr::signal(name); };
  const std::vector<mc::Property> props{
      mc::Property::next("saturating_sets_overflow",
                         sig("saturating") && sig("valid_in") && !sig("clear_in"),
                         sig("overflow")),
      mc::Property::next("overflow_sticky", sig("overflow") && !sig("clear_in"),
                         sig("overflow"))};
  ASSERT_FALSE(mc::table_cone(pe, {props.data(), props.size()}).fits());
  pcc::PccOptions options;
  options.bmc_bound = 4;
  options.simulation_runs = 0;
  const symbad::test::CountersOn counting;
  const obs::Scope cost;
  const auto report = pcc::check_property_coverage(pe, props, options);
  EXPECT_EQ(cost.delta("mc.tables.checks"), 0u);

  mc::ModelChecker::Options mc_options;
  mc_options.max_bound = options.bmc_bound;
  std::size_t detected = 0;
  std::vector<std::pair<rtl::Net, bool>> undetected;
  for (std::size_t i = 0; i < pe.gate_count(); ++i) {
    const auto net = static_cast<rtl::Net>(i);
    const auto kind = pe.gate(net).kind;
    if (kind == rtl::GateKind::const0 || kind == rtl::GateKind::const1 ||
        kind == rtl::GateKind::input) {
      continue;
    }
    for (const bool stuck_to : {false, true}) {
      const auto copy = symbad::test::with_stuck_at(pe, net, stuck_to);
      const auto multi = mc::BmcChecker{copy}.check_all(props, mc_options);
      if (multi.count(mc::CheckStatus::falsified) > 0) {
        ++detected;
      } else {
        undetected.emplace_back(net, stuck_to);
      }
    }
  }
  EXPECT_EQ(report.total_faults, detected + undetected.size());
  EXPECT_EQ(report.detected, detected);
  EXPECT_EQ(report.detected_by_bmc, detected);
  EXPECT_EQ(report.detected_by_simulation, 0u);
  std::vector<std::pair<rtl::Net, bool>> got;
  for (const auto& f : report.undetected) got.emplace_back(f.net, f.stuck_to);
  EXPECT_EQ(got, undetected);
  EXPECT_GE(detected, 1u);
  EXPECT_GT(report.lint_pruned_faults, 0u);
}

TEST(Pcc, TableGradedVerdictsMatchStuckAtCopies) {
  // The table-path twin of SatGradedVerdictsMatchStuckAtCopies: campaigns
  // whose cone fits the table engine, graded without simulation, so one
  // engine grades every fault inside the observed cone. Each fault's verdict
  // must equal a plain BmcChecker::check_all of its stuck-at copy. The
  // wrapper plans are referenced fault by fault; ROOT's every in-cone fault
  // and every 16th out-of-cone one, the rest of which no property observes.
  const auto fsm = app::build_wrapper_fsm();
  const auto root = app::build_root_rtl();
  const std::vector<mc::Property> exclusive{mc::Property::invariant(
      "busy_done_exclusive", !(mc::Expr::signal("busy") && mc::Expr::signal("done")))};
  struct Campaign {
    const char* what;
    const rtl::Netlist* netlist;
    std::vector<mc::Property> props;
    int bound;
    std::size_t outside_stride;  ///< reference every n-th out-of-cone fault
  };
  const std::vector<Campaign> campaigns{
      {"wrapper initial", &fsm, app::wrapper_properties_initial(), 6, 1},
      {"wrapper extended", &fsm, app::wrapper_properties_extended(), 6, 1},
      {"root busy/done", &root, exclusive, 4, 16}};
  for (const auto& c : campaigns) {
    const rtl::Netlist& n = *c.netlist;
    const auto cone = mc::table_cone(n, {c.props.data(), c.props.size()});
    ASSERT_TRUE(cone.fits()) << c.what;
    mc::ModelChecker::Options mc_options;
    mc_options.max_bound = c.bound;
    std::size_t detected = 0;
    std::vector<std::pair<rtl::Net, bool>> undetected;
    std::size_t outside = 0;
    for (std::size_t i = 0; i < n.gate_count(); ++i) {
      const auto net = static_cast<rtl::Net>(i);
      const auto kind = n.gate(net).kind;
      if (kind == rtl::GateKind::const0 || kind == rtl::GateKind::const1 ||
          kind == rtl::GateKind::input) {
        continue;
      }
      const bool in_cone = cone.nets[i] != 0;
      for (const bool stuck_to : {false, true}) {
        if (!in_cone && outside++ % c.outside_stride != 0) {
          undetected.emplace_back(net, stuck_to);
          continue;
        }
        const auto copy = symbad::test::with_stuck_at(n, net, stuck_to);
        if (mc::BmcChecker{copy}.check_all(c.props, mc_options).count(
                mc::CheckStatus::falsified) > 0) {
          ASSERT_TRUE(in_cone) << c.what << " net " << net;
          ++detected;
        } else {
          undetected.emplace_back(net, stuck_to);
        }
      }
    }
    EXPECT_GE(detected, 1u) << c.what;
    pcc::PccOptions options;
    options.bmc_bound = c.bound;
    options.simulation_runs = 0;
    const symbad::test::CountersOn counting;
    const obs::Scope cost;
    const auto report = pcc::check_property_coverage(n, c.props, options);
    EXPECT_EQ(report.total_faults, detected + undetected.size()) << c.what;
    EXPECT_EQ(report.detected, detected) << c.what;
    EXPECT_EQ(report.detected_by_bmc, detected) << c.what;
    EXPECT_EQ(report.detected_by_simulation, 0u) << c.what;
    std::vector<std::pair<rtl::Net, bool>> got;
    for (const auto& f : report.undetected) got.emplace_back(f.net, f.stuck_to);
    EXPECT_EQ(got, undetected) << c.what;
    // Every fault not pruned went to the tables, plus the one good-design
    // probe a prune needs.
    const std::size_t pruned = report.lint_pruned_faults;
    EXPECT_GT(cost.delta("mc.tables.checks"), 0u) << c.what;
    EXPECT_EQ(cost.delta("mc.tables.checks"),
              report.total_faults - pruned + (pruned > 0 ? 1 : 0))
        << c.what;
  }
}

TEST(McFaults, GeneratedTierSweepMatchesStuckAtCopies) {
  // The generated corpus (small/medium/large tiers), one stuck-at site per
  // netlist in both polarities, alternating an internal net and a primary
  // input: per-property checks and the portfolio on the SAT engine against
  // plain checks of the stuck-at copy. A stuck input reads its forced value
  // in the faulty check's trace but false (unread) in the copy's, so only
  // traces of internal faults are compared. SYMBAD_GEN_COUNT / _TIER / _SEED
  // reshape the sweep.
  const auto o0 = mc::Expr::signal("o0");
  const auto o1 = mc::Expr::signal("o1");
  const std::vector<mc::Property> props{mc::Property::invariant("inv", !(o0 && o1)),
                                        mc::Property::next("next_imp", o0, o1)};
  const mc::ModelChecker::Options options{4, 2};
  const auto cfg = gen::SweepConfig::from_env();
  std::size_t falsified = 0;
  for (const auto tier : cfg.tiers()) {
    for (int i = 0; i < cfg.count; ++i) {
      const std::uint64_t seed = cfg.seed_at(i);
      const auto n = gen::generate_netlist(seed, tier);
      const bool on_input = i % 2 != 0;
      const auto sites = sample_fault_sites(n, 1);
      ASSERT_FALSE(sites.empty()) << gen::to_string(tier) << " seed " << seed;
      const rtl::Net site = on_input ? n.inputs()[static_cast<std::size_t>(i) %
                                                  n.inputs().size()]
                                     : sites.front();
      const mc::BmcChecker checker{n};
      for (const bool stuck_to : {false, true}) {
        const std::map<rtl::Net, bool> faults{{site, stuck_to}};
        const auto multi = checker.check_all(props, options, faults);
        const auto copy = symbad::test::with_stuck_at(n, site, stuck_to);
        const mc::BmcChecker reference{copy};
        for (std::size_t k = 0; k < props.size(); ++k) {
          const std::string what = std::string{gen::to_string(tier)} + " seed " +
                                   std::to_string(seed) + " net " + std::to_string(site) +
                                   " stuck-at " + std::to_string(stuck_to) + " " +
                                   props[k].name;
          const auto want = reference.check(props[k], options);
          const auto single = checker.check(props[k], options, faults);
          for (const auto* got : {&single, &multi.results[k]}) {
            EXPECT_EQ(got->status, want.status) << what;
            EXPECT_EQ(got->bound_used, want.bound_used) << what;
            ASSERT_EQ(got->counterexample.has_value(), want.counterexample.has_value())
                << what;
            if (want.counterexample && !on_input) {
              EXPECT_EQ(got->counterexample->inputs, want.counterexample->inputs) << what;
            }
          }
          if (want.status == mc::CheckStatus::falsified) ++falsified;
        }
      }
    }
  }
  EXPECT_GT(falsified, 0u);
}

namespace {

/// Observed cone o = f(a); side cone s = g(b). Faults in the side cone are
/// invisible to any property over "o".
rtl::Netlist two_cone_netlist() {
  rtl::Netlist n{"twocone"};
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto d = n.add_dff(false, "r");
  const auto obs = n.add_xor(a, d);
  n.connect_next(d, obs);
  const auto side = n.add_not(b);
  const auto side2 = n.add_and(side, b);  // also provably 0
  n.set_output("o", obs);
  n.set_output("s", side2);
  return n;
}

}  // namespace

TEST(McFaults, StuckInputOutsideConeKeepsItsForcedValue) {
  // Fault map: one visible fault plus a stuck-at-1 on an input that only
  // feeds the unobserved output (outside the property's cone). The trace
  // still reports that input at its forced value.
  const auto n = two_cone_netlist();
  const mc::ModelChecker checker{n};
  const auto prop = mc::Property::invariant("o_never", !mc::Expr::signal("o"));
  const std::map<rtl::Net, bool> faults{{n.input("b"), true},
                                        {n.output("o"), true}};
  mc::ModelChecker::Options options;
  options.max_bound = 4;
  const auto result = checker.check(prop, options, faults);
  ASSERT_EQ(result.status, mc::CheckStatus::falsified);
  ASSERT_TRUE(result.counterexample.has_value());
  for (const auto& frame : result.counterexample->inputs) {
    EXPECT_TRUE(frame.at("b"));
  }
}

// ------------------------------------------- PCC simulation pre-pass

namespace {

/// The per-fault simulation pre-pass the word-parallel one replaced, kept as
/// the test reference: a fresh one-lane simulator per fault, random
/// stimulus from one stream shared sequentially across the fault list, and
/// the first property violated (or nullptr).
const mc::Property* reference_simulate_detects(const rtl::Netlist& netlist,
                                               const std::vector<mc::Property>& properties,
                                               rtl::Net fault_net, bool stuck_to,
                                               const pcc::PccOptions& options,
                                               symbad::verif::Rng& rng) {
  rtl::Simulator sim{netlist};
  for (int run = 0; run < options.simulation_runs; ++run) {
    sim.reset();
    sim.clear_faults();
    sim.inject_stuck_at(fault_net, stuck_to);
    std::vector<bool> prev_p(properties.size(), false);
    std::vector<std::deque<int>> pending(properties.size());  // response deadlines
    bool first_cycle = true;
    for (int cycle = 0; cycle < options.simulation_cycles; ++cycle) {
      for (const rtl::Net in : netlist.inputs()) sim.set_input(in, (rng.next() & 1) != 0);
      sim.eval();
      for (std::size_t i = 0; i < properties.size(); ++i) {
        const auto& prop = properties[i];
        const bool p = prop.antecedent.eval(sim, netlist);
        switch (prop.kind) {
          case mc::PropertyKind::invariant:
            if (!p) return &prop;
            break;
          case mc::PropertyKind::next_implication: {
            const bool q = prop.consequent.eval(sim, netlist);
            if (!first_cycle && prev_p[i] && !q) return &prop;
            prev_p[i] = p;
            break;
          }
          case mc::PropertyKind::bounded_response: {
            const bool q = prop.consequent.eval(sim, netlist);
            auto& deadlines = pending[i];
            if (q) {
              deadlines.clear();
            } else {
              for (int& d : deadlines) {
                if (--d < 0) return &prop;
              }
            }
            if (p && !q) deadlines.push_back(prop.response_bound);
            break;
          }
        }
      }
      first_cycle = false;
      sim.step();
    }
  }
  return nullptr;
}

/// The formal-grading footprint a campaign sums over its BMC-graded faults
/// (pcc.* production counters, mc.* per fault).
constexpr const char* kFootprint[] = {"encoded_vars", "encoded_clauses"};

/// A campaign's verdicts plus its footprint, in kFootprint order.
struct Graded {
  pcc::PccReport report;
  std::array<std::uint64_t, std::size(kFootprint)> footprint{};
};

/// pcc::check_property_coverage, with the footprint it added to pcc.*.
Graded production_coverage(const rtl::Netlist& netlist,
                           const std::vector<mc::Property>& properties,
                           const pcc::PccOptions& options) {
  const symbad::test::CountersOn counting;
  const obs::Scope cost;
  Graded graded{pcc::check_property_coverage(netlist, properties, options)};
  for (std::size_t i = 0; i < std::size(kFootprint); ++i) {
    graded.footprint[i] = cost.delta(std::string{"pcc."} + kFootprint[i]);
  }
  return graded;
}

/// PCC's fault list: both polarities on every internal net, sampled
/// uniformly down to `max_faults` (0 = all).
std::vector<std::pair<rtl::Net, bool>> pcc_faults(const rtl::Netlist& netlist,
                                                  std::size_t max_faults) {
  std::vector<std::pair<rtl::Net, bool>> faults;
  for (std::size_t i = 0; i < netlist.gate_count(); ++i) {
    const auto kind = netlist.gate(static_cast<rtl::Net>(i)).kind;
    if (kind == rtl::GateKind::const0 || kind == rtl::GateKind::const1 ||
        kind == rtl::GateKind::input) {
      continue;
    }
    faults.emplace_back(static_cast<rtl::Net>(i), false);
    faults.emplace_back(static_cast<rtl::Net>(i), true);
  }
  if (max_faults > 0 && faults.size() > max_faults) {
    std::vector<std::pair<rtl::Net, bool>> sampled;
    const double stride =
        static_cast<double>(faults.size()) / static_cast<double>(max_faults);
    for (std::size_t k = 0; k < max_faults; ++k) {
      sampled.push_back(faults[static_cast<std::size_t>(k * stride)]);
    }
    faults = std::move(sampled);
  }
  return faults;
}

/// The cone of influence of the outputs `properties` observe, computed
/// here from Netlist::cone_of_influence rather than taken from mc.
std::vector<char> observed_cone(const rtl::Netlist& netlist,
                                const std::vector<mc::Property>& properties) {
  std::vector<rtl::Net> roots;
  for (const auto& name : mc::observed_outputs({properties.data(), properties.size()})) {
    roots.push_back(netlist.output(name));
  }
  return netlist.cone_of_influence(roots);
}

/// pcc::check_property_coverage with the per-fault pre-pass above in place
/// of the word-parallel one; the fault list, the prune on the observed
/// cone, the good-design probe and the formal stage follow the production
/// code, with the cone computed independently.
Graded reference_coverage(const rtl::Netlist& netlist,
                          const std::vector<mc::Property>& properties,
                          const pcc::PccOptions& options) {
  const symbad::test::CountersOn counting;
  const auto faults = pcc_faults(netlist, options.max_faults);
  Graded graded;
  pcc::PccReport& report = graded.report;
  report.total_faults = faults.size();
  symbad::verif::Rng rng{options.seed};
  const mc::ModelChecker checker{netlist};
  mc::ModelChecker::Options mc_opts;
  mc_opts.max_bound = options.bmc_bound;
  mc_opts.canonical_counterexample = false;
  const std::vector<char> cone = observed_cone(netlist, properties);
  std::optional<bool> good_design_passes;

  for (const auto& [net, stuck_to] : faults) {
    if (reference_simulate_detects(netlist, properties, net, stuck_to, options, rng) !=
        nullptr) {
      ++report.detected;
      ++report.detected_by_simulation;
      continue;
    }
    if (cone[static_cast<std::size_t>(net)] == 0) {
      if (!good_design_passes) {
        good_design_passes = checker.check_all(properties, mc_opts).count(
                                 mc::CheckStatus::falsified) == 0;
      }
      if (*good_design_passes) {
        ++report.lint_pruned_faults;
        report.undetected.push_back({net, stuck_to});
        continue;
      }
    }
    std::map<rtl::Net, bool> fault_map{{net, stuck_to}};
    const obs::Scope cost;
    const auto multi = checker.check_all(properties, mc_opts, fault_map);
    for (std::size_t i = 0; i < std::size(kFootprint); ++i) {
      graded.footprint[i] += cost.delta(std::string{"mc."} + kFootprint[i]);
    }
    if (multi.count(mc::CheckStatus::falsified) > 0) {
      ++report.detected;
      ++report.detected_by_bmc;
    } else {
      report.undetected.push_back({net, stuck_to});
    }
  }
  return graded;
}

/// Every PccReport field, the undetected list element by element, and the
/// footprint.
void expect_same_report(const Graded& got_graded, const Graded& want_graded,
                        const std::string& what) {
  EXPECT_EQ(got_graded.footprint, want_graded.footprint) << what;
  const pcc::PccReport& got = got_graded.report;
  const pcc::PccReport& want = want_graded.report;
  EXPECT_EQ(got.total_faults, want.total_faults) << what;
  EXPECT_EQ(got.detected, want.detected) << what;
  EXPECT_EQ(got.detected_by_simulation, want.detected_by_simulation) << what;
  EXPECT_EQ(got.detected_by_bmc, want.detected_by_bmc) << what;
  EXPECT_EQ(got.lint_pruned_faults, want.lint_pruned_faults) << what;
  ASSERT_EQ(got.undetected.size(), want.undetected.size()) << what;
  for (std::size_t i = 0; i < got.undetected.size(); ++i) {
    const auto& g = got.undetected[i];
    const auto& w = want.undetected[i];
    EXPECT_EQ(g.net, w.net) << what << " undetected[" << i << "]";
    EXPECT_EQ(g.stuck_to, w.stuck_to) << what << " undetected[" << i << "]";
  }
}

/// Simulation shapes the pre-pass must reproduce: the default 4x64, the
/// flow bench's 1x8, short odd shapes that end runs mid-window, and none.
constexpr std::pair<int, int> kRunsByCycles[] = {{4, 64}, {1, 8}, {2, 5}, {3, 33}, {0, 8}};
constexpr std::uint64_t kPrepassSeeds[] = {0x9CC5EEDULL, 1, 0xDEADBEEFCAFEULL};

/// Grades `properties` both ways over every simulation shape and seed.
void expect_matches_reference(const rtl::Netlist& netlist,
                              const std::vector<mc::Property>& properties,
                              pcc::PccOptions options, const std::string& what) {
  for (const auto& [runs, cycles] : kRunsByCycles) {
    for (const std::uint64_t seed : kPrepassSeeds) {
      options.simulation_runs = runs;
      options.simulation_cycles = cycles;
      options.seed = seed;
      std::ostringstream tag;
      tag << what << " " << runs << "x" << cycles << " seed " << seed;
      expect_same_report(production_coverage(netlist, properties, options),
                         reference_coverage(netlist, properties, options), tag.str());
    }
  }
}

/// Bounded-response properties the wrapper meets fault-free (bounds 0, 1, 2
/// and a long 40-cycle window), mixed with one invariant and one
/// next-implication so every window kind runs side by side.
std::vector<mc::Property> wrapper_response_properties() {
  const auto sig = [](const char* name) { return mc::Expr::signal(name); };
  std::vector<mc::Property> props;
  props.push_back(mc::Property::respond("exec_done_leaves_exec",
                                        sig("dev_start") && sig("dev_done_in"),
                                        !sig("dev_start"), 0));
  props.push_back(mc::Property::respond("load_xfer_reaches_exec",
                                        sig("bus_req") && !sig("state[1]") &&
                                            sig("xfer_done_in"),
                                        sig("dev_start"), 1));
  props.push_back(mc::Property::invariant("ack_implies_busy",
                                          sig("ack").implies(sig("busy"))));
  props.push_back(mc::Property::respond("ack_then_idle", sig("ack"), !sig("busy"), 2));
  props.push_back(mc::Property::next("store_exit_goes_idle", sig("ack"), !sig("busy")));
  props.push_back(mc::Property::respond("start_served", sig("start_in") && !sig("busy"),
                                        sig("ack"), 40));
  return props;
}

}  // namespace

TEST(PccPrepass, WrapperPlansMatchPerFaultReference) {
  // The paper's two wrapper plans: detections sparse (initial) and dense
  // (extended) across one 60-lane batch, every shape and seed.
  const auto fsm = app::build_wrapper_fsm();
  pcc::PccOptions options;
  options.bmc_bound = 4;
  expect_matches_reference(fsm, app::wrapper_properties_initial(), options, "initial");
  expect_matches_reference(fsm, app::wrapper_properties_extended(), options, "extended");
}

TEST(PccPrepass, BoundedResponseSetMatchesPerFaultReference) {
  const auto fsm = app::build_wrapper_fsm();
  pcc::PccOptions options;
  options.bmc_bound = 3;
  expect_matches_reference(fsm, wrapper_response_properties(), options, "response");
}

TEST(PccPrepass, DetectionHeavySetMatchesPerFaultReference) {
  // "never busy" fails fault-free within a few cycles, so nearly every lane
  // detects and most passes commit a single fault: the re-grading path.
  const std::vector<mc::Property> never_busy{
      mc::Property::invariant("never_busy", !mc::Expr::signal("busy"))};
  pcc::PccOptions options;
  options.bmc_bound = 2;
  expect_matches_reference(app::build_wrapper_fsm(), never_busy, options, "wrapper !busy");
  options.max_faults = 150;
  expect_matches_reference(app::build_root_rtl(), never_busy, options, "root !busy");
}

TEST(PccPrepass, RootCampaignMatchesPerFaultReference) {
  // The flow bench's ROOT campaign: the full 1,760-fault list at 1x8 (28
  // batches) for every seed, and a sampled list across every shape.
  const auto root = app::build_root_rtl();
  const std::vector<mc::Property> exclusive{mc::Property::invariant(
      "busy_done_exclusive", !(mc::Expr::signal("busy") && mc::Expr::signal("done")))};
  pcc::PccOptions options;
  options.bmc_bound = 4;
  options.simulation_runs = 1;
  options.simulation_cycles = 8;
  for (const std::uint64_t seed : kPrepassSeeds) {
    options.seed = seed;
    expect_same_report(production_coverage(root, exclusive, options),
                       reference_coverage(root, exclusive, options),
                       "root full seed " + std::to_string(seed));
  }
  options.bmc_bound = 2;
  options.max_faults = 200;
  expect_matches_reference(root, exclusive, options, "root sampled");
}

TEST(PccPrepass, PaperFiguresArePinned) {
  // Goldens recorded from the per-fault pre-pass: the paper's 11.7% ->
  // 86.7% wrapper coverage with its 8 uncovered (net, polarity) sites, and
  // the flow bench's ROOT campaign figures.
  const auto fsm = app::build_wrapper_fsm();
  pcc::PccOptions options;
  options.bmc_bound = 8;
  const auto initial =
      pcc::check_property_coverage(fsm, app::wrapper_properties_initial(), options);
  EXPECT_EQ(initial.total_faults, 60u);
  EXPECT_EQ(initial.detected, 7u);
  const auto extended =
      pcc::check_property_coverage(fsm, app::wrapper_properties_extended(), options);
  EXPECT_EQ(extended.total_faults, 60u);
  EXPECT_EQ(extended.detected, 52u);
  EXPECT_EQ(extended.detected_by_simulation, 52u);
  std::vector<std::pair<rtl::Net, bool>> uncovered;
  for (const auto& f : extended.undetected) uncovered.emplace_back(f.net, f.stuck_to);
  const std::vector<std::pair<rtl::Net, bool>> golden{
      {16, false}, {17, false}, {18, true},  {24, false},
      {25, false}, {26, false}, {27, false}, {28, false}};
  EXPECT_EQ(uncovered, golden);

  const std::vector<mc::Property> exclusive{mc::Property::invariant(
      "busy_done_exclusive", !(mc::Expr::signal("busy") && mc::Expr::signal("done")))};
  pcc::PccOptions root_options;
  root_options.bmc_bound = 4;
  root_options.simulation_runs = 1;
  root_options.simulation_cycles = 8;
  const auto root = pcc::check_property_coverage(app::build_root_rtl(), exclusive, root_options);
  EXPECT_EQ(root.total_faults, 1760u);
  EXPECT_EQ(root.lint_pruned_faults, 1670u);
  EXPECT_EQ(root.detected, 4u);
  EXPECT_EQ(root.detected_by_simulation, 4u);
}

// ------------------------------------------- PCC's observed-cone prune

namespace {

/// Grades a PCC report against plain BmcChecker::check_all runs of each
/// fault's stuck-at copy. A fault whose copy falsifies within `bmc_bound`
/// must be detected. A detected fault's copy falsifies within the
/// simulation horizon too: the pre-pass detects at some cycle of a run from
/// reset, so a violation starts within `simulation_cycles` frames. With the
/// simulation stage off the two bounds coincide, and the report must equal
/// the copies' verdicts field by field.
void expect_graded_like_stuck_at_copies(const rtl::Netlist& n,
                                        const std::vector<mc::Property>& props,
                                        const pcc::PccOptions& options,
                                        const pcc::PccReport& report,
                                        const std::string& what) {
  const bool simulated = options.simulation_runs > 0 && options.simulation_cycles > 0;
  mc::ModelChecker::Options within_bound;
  within_bound.max_bound = options.bmc_bound;
  mc::ModelChecker::Options within_horizon;
  within_horizon.max_bound =
      simulated ? std::max(options.bmc_bound, options.simulation_cycles) : options.bmc_bound;
  std::vector<std::pair<rtl::Net, bool>> got;
  for (const auto& f : report.undetected) got.emplace_back(f.net, f.stuck_to);
  const auto faults = pcc_faults(n, options.max_faults);
  std::vector<std::pair<rtl::Net, bool>> clean;  // copies clean within bmc_bound
  for (const auto& fault : faults) {
    const auto copy = symbad::test::with_stuck_at(n, fault.first, fault.second);
    const mc::BmcChecker checker{copy};
    const bool reported_undetected = std::find(got.begin(), got.end(), fault) != got.end();
    const std::string tag = what + " net " + std::to_string(fault.first) + " stuck-at " +
                            std::to_string(fault.second);
    if (checker.check_all(props, within_bound).count(mc::CheckStatus::falsified) > 0) {
      EXPECT_FALSE(reported_undetected) << tag;
      continue;
    }
    clean.push_back(fault);
    if (simulated &&
        checker.check_all(props, within_horizon).count(mc::CheckStatus::falsified) == 0) {
      EXPECT_TRUE(reported_undetected) << tag;
    }
  }
  EXPECT_EQ(report.total_faults, faults.size()) << what;
  EXPECT_EQ(report.detected + report.undetected.size(), faults.size()) << what;
  EXPECT_EQ(report.detected_by_simulation + report.detected_by_bmc, report.detected) << what;
  if (!simulated) {
    EXPECT_EQ(got, clean) << what;
    EXPECT_EQ(report.detected_by_simulation, 0u) << what;
  }
}

/// Faults of PCC's list on nets outside the observed cone.
std::size_t out_of_cone_faults(const rtl::Netlist& n, const std::vector<mc::Property>& props,
                               std::size_t max_faults) {
  const std::vector<char> cone = observed_cone(n, props);
  std::size_t outside = 0;
  for (const auto& [net, stuck_to] : pcc_faults(n, max_faults)) {
    if (cone[static_cast<std::size_t>(net)] == 0) ++outside;
  }
  return outside;
}

}  // namespace

TEST(PccPrune, CoverageIdenticalAndFaultsActuallyPruned) {
  // ROOT core, one control-path property: the result datapath is outside
  // the observed cone, so its faults are undetectable. The prune classifies
  // the simulation-missed ones without a formal check, and the report still
  // grades like the stuck-at copies.
  const auto n = app::build_root_rtl();
  const std::vector<mc::Property> properties{mc::Property::invariant(
      "busy_xor_done_weak", !(mc::Expr::signal("busy") && mc::Expr::signal("done")))};
  pcc::PccOptions options;
  options.bmc_bound = 3;
  options.simulation_cycles = 16;
  options.simulation_runs = 2;
  options.max_faults = 40;
  const symbad::test::CountersOn counting;
  const obs::Scope cost;
  const auto report = pcc::check_property_coverage(n, properties, options);
  const auto tables_checks = cost.delta("mc.tables.checks");
  expect_graded_like_stuck_at_copies(n, properties, options, report, "root");
  EXPECT_GT(report.lint_pruned_faults, 0u);
  // Every simulation-missed fault either was pruned or took one table check,
  // plus the one fault-free probe the prune runs.
  EXPECT_EQ(tables_checks,
            report.total_faults - report.detected_by_simulation - report.lint_pruned_faults + 1);
  // The pruned faults are exactly the out-of-cone faults simulation missed.
  const std::vector<char> cone = observed_cone(n, properties);
  std::size_t undetected_outside = 0;
  for (const auto& f : report.undetected) {
    if (cone[static_cast<std::size_t>(f.net)] == 0) ++undetected_outside;
  }
  EXPECT_EQ(undetected_outside, report.lint_pruned_faults);
}

TEST(PccPrune, DirtyGoodDesignDisablesPrune) {
  // A property the GOOD design falsifies detects every fault in this
  // grading, visible or not, so the one-time probe must turn the prune off:
  // with the simulation stage off, every fault, the out-of-cone ones
  // included, goes through the campaign's one table engine.
  const auto n = app::build_root_rtl();
  const std::vector<mc::Property> properties{
      mc::Property::invariant("never_busy", !mc::Expr::signal("busy"))};
  pcc::PccOptions options;
  options.bmc_bound = 3;
  options.simulation_runs = 0;
  options.max_faults = 10;
  ASSERT_GT(out_of_cone_faults(n, properties, options.max_faults), 0u);
  const symbad::test::CountersOn counting;
  const obs::Scope cost;
  const auto report = pcc::check_property_coverage(n, properties, options);
  expect_graded_like_stuck_at_copies(n, properties, options, report, "root !busy");
  EXPECT_EQ(report.lint_pruned_faults, 0u);
  EXPECT_EQ(cost.delta("mc.tables.checks"), report.total_faults + 1);
}

TEST(PccPrune, WrapperCampaignIdenticalUnderPrune) {
  // The wrapper's properties observe every net, so nothing is pruned and
  // no probe runs: every simulation-missed fault takes one table check.
  const auto n = app::build_wrapper_fsm();
  const auto properties = app::wrapper_properties_initial();
  pcc::PccOptions options;
  options.bmc_bound = 6;
  ASSERT_EQ(out_of_cone_faults(n, properties, 0), 0u);
  const symbad::test::CountersOn counting;
  const obs::Scope cost;
  const auto report = pcc::check_property_coverage(n, properties, options);
  expect_graded_like_stuck_at_copies(n, properties, options, report, "wrapper");
  EXPECT_EQ(report.lint_pruned_faults, 0u);
  EXPECT_EQ(cost.delta("mc.tables.checks"),
            report.total_faults - report.detected_by_simulation);
}

TEST(PccPrune, UnknownObservedOutputThrows) {
  const auto fsm = app::build_wrapper_fsm();
  const std::vector<mc::Property> ghost{
      mc::Property::invariant("ghost", mc::Expr::signal("nonexistent"))};
  EXPECT_THROW((void)pcc::check_property_coverage(fsm, ghost, {}), std::out_of_range);
}

// ------------------------------------------- table engine vs SAT engine

namespace {

/// Verdict, bound_used and canonical counterexample, property by property.
void expect_same_answers(const mc::MultiCheckResult& tables, const mc::MultiCheckResult& sat,
                         const std::vector<mc::Property>& props, const std::string& what) {
  ASSERT_EQ(tables.results.size(), props.size()) << what;
  ASSERT_EQ(sat.results.size(), props.size()) << what;
  for (std::size_t i = 0; i < props.size(); ++i) {
    const auto& t = tables.results[i];
    const auto& s = sat.results[i];
    EXPECT_EQ(t.status, s.status) << what << " " << props[i].name;
    EXPECT_EQ(t.bound_used, s.bound_used) << what << " " << props[i].name;
    ASSERT_EQ(t.counterexample.has_value(), s.counterexample.has_value())
        << what << " " << props[i].name;
    if (t.counterexample) {
      EXPECT_EQ(t.counterexample->inputs, s.counterexample->inputs)
          << what << " " << props[i].name;
    }
  }
}

/// Both engines' check_all on one fault variant. The two share one input,
/// the observed cone (mc::table_cone): the tables enumerate it and the SAT
/// chain is cut to it. The evidence that the cone holds every net a
/// property can see is independent of both engines: the cone-form
/// Simulator rejects a mask that is not closed under fan-in,
/// LaneSimulator.ConeWalkMatchesTheFullWalk compares the cone walk with the
/// full walk, and CnfChain.ConeRestrictionSkipsOutOfConeLogicAndPreservesBehaviour
/// compares cut and uncut encodings.
void expect_engines_agree(const rtl::Netlist& n, const std::vector<mc::Property>& props,
                          const std::map<rtl::Net, bool>& faults,
                          const mc::ModelChecker::Options& options, const std::string& what) {
  const auto tables = mc::TableChecker{n}.check_all(props, options, faults);
  const auto sat = mc::BmcChecker{n}.check_all(props, options, faults);
  expect_same_answers(tables, sat, props,
                      what + " bound " + std::to_string(options.max_bound) + " depth " +
                          std::to_string(options.induction_depth));
}

/// Wrapper properties the fault-free design violates, every kind, at
/// several bounds.
std::vector<mc::Property> wrapper_falsifiable_properties() {
  const auto sig = [](const char* name) { return mc::Expr::signal(name); };
  std::vector<mc::Property> props;
  props.push_back(mc::Property::invariant("never_acks", !sig("ack")));
  props.push_back(mc::Property::invariant("never_busy", !sig("busy")));
  props.push_back(mc::Property::invariant("never_store", !(sig("state[0]") && sig("state[1]"))));
  props.push_back(mc::Property::next("busy_stays_busy", sig("busy"), sig("busy")));
  props.push_back(mc::Property::next("idle_stays_idle", !sig("busy"), !sig("busy")));
  props.push_back(mc::Property::respond("start_acked_next", sig("start_in"), sig("ack"), 1));
  props.push_back(mc::Property::respond("load_reaches_exec", sig("bus_req") && !sig("state[1]"),
                                        sig("dev_start"), 2));
  return props;
}

/// Bound 0..12 x induction depth 1..4, indexed 0..51.
mc::ModelChecker::Options bound_depth(std::size_t index) {
  mc::ModelChecker::Options options;
  options.max_bound = static_cast<int>(index % 13);
  options.induction_depth = 1 + static_cast<int>(index / 13 % 4);
  return options;
}

/// Properties over a generated netlist's first three outputs, every kind.
std::vector<mc::Property> generated_properties() {
  const auto o0 = mc::Expr::signal("o0");
  const auto o1 = mc::Expr::signal("o1");
  const auto o2 = mc::Expr::signal("o2");
  return {mc::Property::invariant("excl", !(o0 && o1)),
          mc::Property::invariant("implies", o0.implies(o2)),
          mc::Property::next("next", o0, o1 || o2),
          mc::Property::respond("respond", o1, o2, 2)};
}

}  // namespace

TEST(McTables, CounterEveryFaultAgreesWithSat) {
  // Every stuck-at fault of the saturating counter plus the fault-free
  // design, its five property kinds together (check_all) and one by one
  // (check), at the default options and across bounds 0-12 and depths 1-4.
  const auto counter = saturating_counter();
  const auto props = counter_properties();
  std::vector<std::map<rtl::Net, bool>> variants{{}};
  for (const auto& [net, stuck_to] : symbad::test::all_stuck_at_faults(counter)) {
    variants.push_back({{net, stuck_to}});
  }
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const std::string what = "counter variant " + std::to_string(v);
    expect_engines_agree(counter, props, variants[v], {}, what + " defaults");
    const auto options = bound_depth(v * 7);
    expect_engines_agree(counter, props, variants[v], options, what);
    mc::MultiCheckResult tables;
    mc::MultiCheckResult sat;
    for (const auto& p : props) {
      tables.results.push_back(
          mc::TableChecker{counter}.check(p, options, variants[v]));
      sat.results.push_back(mc::BmcChecker{counter}.check(p, options, variants[v]));
    }
    expect_same_answers(tables, sat, props, what + " single checks");
  }
}

TEST(McTables, WrapperEveryFaultAgreesWithSat) {
  // Every stuck-at fault on every wrapper net plus the fault-free design,
  // across the extended plan, the bounded-response set and falsifiable
  // properties; each (variant, set) pair takes its own (bound, depth) so
  // the sweep covers bounds 0-12 and depths 1-4.
  const auto fsm = app::build_wrapper_fsm();
  const std::vector<std::vector<mc::Property>> sets{app::wrapper_properties_extended(),
                                                    wrapper_response_properties(),
                                                    wrapper_falsifiable_properties()};
  std::vector<std::map<rtl::Net, bool>> variants{{}};
  for (const auto& [net, stuck_to] : symbad::test::all_stuck_at_faults(fsm)) {
    variants.push_back({{net, stuck_to}});
  }
  for (std::size_t v = 0; v < variants.size(); ++v) {
    for (std::size_t s = 0; s < sets.size(); ++s) {
      const std::size_t run = v * sets.size() + s;
      expect_engines_agree(fsm, sets[s], variants[v], bound_depth(run * 5),
                           "wrapper variant " + std::to_string(v) + " set " +
                               std::to_string(s));
    }
  }
}

TEST(McTables, SingleChecksMatchTheTableCheckAll) {
  // check (one property, its own cone) against check_all (the union cone)
  // on the table engine, and ModelChecker's dispatch against it.
  const auto fsm = app::build_wrapper_fsm();
  auto props = app::wrapper_properties_extended();
  for (const auto& p : wrapper_falsifiable_properties()) props.push_back(p);
  const auto faults = symbad::test::all_stuck_at_faults(fsm);
  for (std::size_t f = 0; f < faults.size(); f += 7) {
    const std::map<rtl::Net, bool> fault{faults[f]};
    const auto options = bound_depth(f);
    const auto all = mc::TableChecker{fsm}.check_all(props, options, fault);
    const auto dispatched = mc::ModelChecker{fsm}.check_all(props, options, fault);
    mc::MultiCheckResult single;
    for (const auto& p : props) {
      single.results.push_back(mc::TableChecker{fsm}.check(p, options, fault));
    }
    expect_same_answers(single, all, props, "single vs all, fault " + std::to_string(f));
    expect_same_answers(dispatched, all, props, "dispatch, fault " + std::to_string(f));
  }
}

TEST(McTables, RandomNetlistsAgreeWithSat) {
  // gen::random_netlist with redundancy (constants, equal-arm muxes and
  // duplicated logic), fault-free and under sampled stuck-at faults.
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    auto rng = symbad::test::rng(9100 + seed);
    const auto n = gen::random_netlist(rng, {4, 3, 40, 3, 0.25});
    const auto props = generated_properties();
    ASSERT_TRUE(mc::table_cone(n, {props.data(), props.size()}).fits()) << seed;
    const auto faults = symbad::test::all_stuck_at_faults(n);
    for (std::size_t k = 0; k < 6; ++k) {
      std::map<rtl::Net, bool> fault;
      if (k > 0) fault.insert(faults[rng.next() % faults.size()]);
      expect_engines_agree(n, props, fault, bound_depth(seed * 6 + k),
                           "random seed " + std::to_string(seed) + " run " + std::to_string(k));
    }
  }
}

TEST(McTables, DeepInductionStepsAgreeWithSat) {
  // Next-implications whose k-induction step closes only at depth >= 2 on
  // these netlists (fixed instances, found by search): there the step's
  // coupling matters — p(f) -> q(f+1) reads frame f+1's input, which the
  // next frame's obligation reads too. Every literal pair over four
  // outputs, depths 1-4.
  std::vector<mc::Property> props;
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      const auto lit = [](int l) {
        const auto sig = mc::Expr::signal("o" + std::to_string(l / 2));
        return l % 2 == 0 ? sig : !sig;
      };
      props.push_back(mc::Property::next(
          "n" + std::to_string(a) + "_" + std::to_string(b), lit(a), lit(b)));
    }
  }
  for (const std::uint64_t seed : {7, 64, 86, 135}) {
    symbad::verif::Rng rng{9300 + seed};
    const auto n = gen::random_netlist(rng, {3, 3, 30, 4, 0.25});
    for (int depth = 1; depth <= 4; ++depth) {
      mc::ModelChecker::Options options;
      options.max_bound = 4;
      options.induction_depth = depth;
      expect_engines_agree(n, props, {}, options, "deep seed " + std::to_string(seed));
    }
  }
}

TEST(McTables, GeneratedTiersThatFitAgreeWithSat) {
  // Small- and medium-tier generated netlists whose cone passes the size
  // test, fault-free and under one stuck-at fault each.
  const std::vector<mc::Property> props{
      mc::Property::invariant("excl", !(mc::Expr::signal("o0") && mc::Expr::signal("o1"))),
      mc::Property::next("next", mc::Expr::signal("o0"), mc::Expr::signal("o1"))};
  std::size_t checked = 0;
  for (const auto tier : {gen::SizeTier::small, gen::SizeTier::medium}) {
    for (std::uint64_t seed = 0; seed < 24; ++seed) {
      const auto n = gen::generate_netlist(seed, tier);
      if (!mc::table_cone(n, {props.data(), props.size()}).fits()) continue;
      ++checked;
      const auto faults = symbad::test::all_stuck_at_faults(n);
      const std::map<rtl::Net, bool> fault{faults[(seed * 37) % faults.size()]};
      const std::string what = std::string{gen::to_string(tier)} + " seed " + std::to_string(seed);
      expect_engines_agree(n, props, {}, bound_depth(seed * 11), what);
      expect_engines_agree(n, props, fault, bound_depth(seed * 11 + 3), what + " faulty");
    }
  }
  EXPECT_GE(checked, 12u);
}

TEST(McTables, RootBusyDoneEveryFaultAgreesWithSat) {
  // Every stuck-at fault of ROOT against busy_done_exclusive: 66 flip-flops
  // and 17 inputs in the netlist, 6 and 1 in the cone the tables enumerate.
  const auto root = app::build_root_rtl();
  const std::vector<mc::Property> exclusive{mc::Property::invariant(
      "busy_done_exclusive", !(mc::Expr::signal("busy") && mc::Expr::signal("done")))};
  const auto cone = mc::table_cone(root, {exclusive.data(), exclusive.size()});
  EXPECT_EQ(cone.flip_flops.size(), 6u);
  EXPECT_EQ(cone.inputs.size(), 1u);
  ASSERT_TRUE(cone.fits());
  mc::ModelChecker::Options options;
  options.max_bound = 4;  // the flow bench's PCC bound
  options.induction_depth = 4;
  const auto faults = symbad::test::all_stuck_at_faults(root);
  for (std::size_t f = 0; f < faults.size(); ++f) {
    expect_engines_agree(root, exclusive, {faults[f]}, options,
                         "root fault " + std::to_string(f));
  }
}

// ------------------------------------------------- ModelChecker dispatch

TEST(McDispatch, SatConesAnswerAndCountAsBmcChecker) {
  // ModelChecker computes a check's cone once and hands the mask to the SAT
  // engine when the cone does not fit the tables; BmcChecker computes its
  // own. Verdict, bound_used, canonical counterexample and every SAT cost
  // counter must be equal, fault-free and under two stuck-at faults inside
  // the cone: equal footprints show the same cone was encoded.
  const auto root = app::build_root_rtl();
  const auto pe = app::build_distance_rtl(4, 6);
  const auto sig = [](const char* name) { return mc::Expr::signal(name); };
  const struct {
    const char* what;
    const rtl::Netlist& n;
    mc::Property prop;
    mc::ModelChecker::Options options;
  } cases[] = {
      {"root datapath", root,
       mc::Property::invariant("done_implies_result11_clear",
                               sig("done").implies(!sig("result[11]"))),
       {13, 3}},
      {"pe overflow", pe,
       mc::Property::next("overflow_sticky", sig("overflow") && !sig("clear_in"),
                          sig("overflow")),
       {6, 3}},
  };
  constexpr const char* kCounters[] = {
      "mc.checks",        "mc.properties",     "mc.tables.checks", "mc.tables.pairs",
      "mc.sat_conflicts", "mc.frames_encoded", "mc.encoded_vars",  "mc.encoded_clauses",
      "mc.arena_bytes",   "mc.arena_live",     "mc.compactions",   "sat.solves",
      "sat.conflicts"};
  const symbad::test::CountersOn counting;
  std::size_t falsified = 0;
  for (const auto& c : cases) {
    const auto cone = mc::table_cone(c.n, {&c.prop, 1});
    ASSERT_FALSE(cone.fits()) << c.what;
    std::vector<rtl::Net> sites;  // internal nets of the cone
    for (std::size_t i = 0; i < c.n.gate_count(); ++i) {
      const auto kind = c.n.gate(static_cast<rtl::Net>(i)).kind;
      if (cone.nets[i] != 0 && kind != rtl::GateKind::input &&
          kind != rtl::GateKind::const0 && kind != rtl::GateKind::const1) {
        sites.push_back(static_cast<rtl::Net>(i));
      }
    }
    ASSERT_GE(sites.size(), 3u) << c.what;
    const std::map<rtl::Net, bool> variants[] = {
        {}, {{sites[sites.size() / 3], false}}, {{sites[2 * sites.size() / 3], true}}};
    for (std::size_t v = 0; v < std::size(variants); ++v) {
      const std::string what = std::string{c.what} + " variant " + std::to_string(v);
      std::array<std::uint64_t, std::size(kCounters)> dispatched_cost{};
      std::array<std::uint64_t, std::size(kCounters)> direct_cost{};
      mc::CheckResult dispatched;
      {
        const obs::Scope cost;
        dispatched = mc::ModelChecker{c.n}.check(c.prop, c.options, variants[v]);
        for (std::size_t i = 0; i < std::size(kCounters); ++i) {
          dispatched_cost[i] = cost.delta(kCounters[i]);
        }
      }
      mc::CheckResult direct;
      {
        const obs::Scope cost;
        direct = mc::BmcChecker{c.n}.check(c.prop, c.options, variants[v]);
        for (std::size_t i = 0; i < std::size(kCounters); ++i) {
          direct_cost[i] = cost.delta(kCounters[i]);
        }
      }
      expect_same_result(dispatched, direct, what);
      for (std::size_t i = 0; i < std::size(kCounters); ++i) {
        EXPECT_EQ(dispatched_cost[i], direct_cost[i]) << what << " " << kCounters[i];
      }
      EXPECT_EQ(dispatched_cost[0], 1u) << what;  // mc.checks
      EXPECT_EQ(dispatched_cost[2], 0u) << what;  // mc.tables.checks
      EXPECT_GT(dispatched_cost[6], 0u) << what;  // mc.encoded_vars
      if (direct.status == mc::CheckStatus::falsified) ++falsified;
    }
  }
  EXPECT_GT(falsified, 0u);
}

// ------------------------------------------------ check argument handling

namespace {

/// 2-bit saturating counter 0 -> 1 -> 2 -> 3 -> 3 from reset 0.
rtl::Netlist two_bit_saturating_counter() {
  rtl::Netlist n{"sat2"};
  const auto c0 = n.add_dff(false, "c0");
  const auto c1 = n.add_dff(false, "c1");
  const auto at_max = n.add_and(c0, c1);
  n.connect_next(c0, n.add_or(n.add_not(c0), at_max));  // 0->1, 1->0, 2->1, 3->1
  n.connect_next(c1, n.add_or(c1, c0));                 // 0->0, 1->1, 2->1, 3->1
  n.set_output("c[0]", c0);
  n.set_output("c[1]", c1);
  return n;
}

}  // namespace

TEST(McInductionBase, ProvedOnlyWhenBmcCoversTheInductionBase) {
  // !(count == 2) fails at bound 2; its 3- and 4-step induction closes
  // (no state path of that length ends in 2). With max_bound below
  // induction_depth - 1 BMC misses the base case, so neither engine may
  // report proved — through check or check_all.
  const auto n = two_bit_saturating_counter();
  const std::vector<mc::Property> props{mc::Property::invariant(
      "never_two", !(mc::Expr::signal("c[1]") && !mc::Expr::signal("c[0]")))};
  const mc::BmcChecker sat{n};
  const mc::TableChecker tables{n};
  for (const int depth : {3, 4}) {
    for (int bound = 0; bound <= 3; ++bound) {
      const mc::ModelChecker::Options options{bound, depth};
      const auto want = bound >= 2 ? mc::CheckStatus::falsified
                                   : mc::CheckStatus::no_cex_within_bound;
      const std::string what = "bound " + std::to_string(bound) + " depth " +
                               std::to_string(depth);
      EXPECT_EQ(sat.check(props[0], options).status, want) << what;
      EXPECT_EQ(tables.check(props[0], options).status, want) << what;
      EXPECT_EQ(sat.check_all(props, options).results[0].status, want) << what;
      EXPECT_EQ(tables.check_all(props, options).results[0].status, want) << what;
      EXPECT_EQ(mc::ModelChecker{n}.check(props[0], options).status, want) << what;
    }
  }
  // The sound case: a true invariant with BMC past the base is proved.
  const auto tautology = mc::Property::invariant(
      "tautology", mc::Expr::signal("c[1]") || !mc::Expr::signal("c[1]"));
  EXPECT_EQ(sat.check(tautology, {3, 4}).status, mc::CheckStatus::proved);
  EXPECT_EQ(tables.check(tautology, {3, 4}).status, mc::CheckStatus::proved);
}

TEST(McArguments, NegativeInductionDepthThrowsBeforeEitherEngineRuns) {
  const auto fsm = app::build_wrapper_fsm();
  const auto props = app::wrapper_properties_initial();
  const mc::ModelChecker::Options options{4, -1};
  EXPECT_THROW((void)mc::ModelChecker{fsm}.check(props[0], options), std::invalid_argument);
  EXPECT_THROW((void)mc::ModelChecker{fsm}.check_all(props, options), std::invalid_argument);
  EXPECT_THROW((void)mc::BmcChecker{fsm}.check(props[0], options), std::invalid_argument);
  EXPECT_THROW((void)mc::BmcChecker{fsm}.check_all(props, options), std::invalid_argument);
  EXPECT_THROW((void)mc::TableChecker{fsm}.check(props[0], options), std::invalid_argument);
  EXPECT_THROW((void)mc::TableChecker{fsm}.check_all(props, options), std::invalid_argument);
  // A design whose cone goes to SAT rejects it through ModelChecker too.
  const auto pe = app::build_distance_rtl(6, 10);
  const auto overflow =
      mc::Property::invariant("overflow_or_not", mc::Expr::signal("overflow") ||
                                                     !mc::Expr::signal("overflow"));
  ASSERT_FALSE(mc::table_cone(pe, {&overflow, 1}).fits());
  EXPECT_THROW((void)mc::ModelChecker{pe}.check(overflow, options), std::invalid_argument);
}

TEST(McArguments, NegativeResponseBoundThrowsBeforeAnyWork) {
  // Property's fields are public, so a bounded response built as an
  // aggregate skips Property::respond's check. mc::table_cone rejects it,
  // and every entry point and PCC call it before anything else: no check
  // is counted and nothing is solved.
  const auto fsm = app::build_wrapper_fsm();
  mc::Property busy_acked;
  busy_acked.name = "busy_acked";
  busy_acked.kind = mc::PropertyKind::bounded_response;
  busy_acked.antecedent = mc::Expr::signal("busy");
  busy_acked.consequent = mc::Expr::signal("ack");
  busy_acked.response_bound = -1;
  const std::vector<mc::Property> props{busy_acked};
  const mc::ModelChecker::Options options{8, 4};
  const symbad::test::CountersOn counting;
  const obs::Scope cost;
  EXPECT_THROW((void)mc::table_cone(fsm, {props.data(), props.size()}),
               std::invalid_argument);
  EXPECT_THROW((void)mc::ModelChecker{fsm}.check(busy_acked, options), std::invalid_argument);
  EXPECT_THROW((void)mc::ModelChecker{fsm}.check_all(props, options), std::invalid_argument);
  EXPECT_THROW((void)mc::BmcChecker{fsm}.check(busy_acked, options), std::invalid_argument);
  EXPECT_THROW((void)mc::BmcChecker{fsm}.check_all(props, options), std::invalid_argument);
  EXPECT_THROW((void)mc::TableChecker{fsm}.check(busy_acked, options), std::invalid_argument);
  EXPECT_THROW((void)mc::TableChecker{fsm}.check_all(props, options), std::invalid_argument);
  pcc::PccOptions pcc_options;
  pcc_options.bmc_bound = 8;
  EXPECT_THROW((void)pcc::check_property_coverage(fsm, props, pcc_options),
               std::invalid_argument);
  for (const char* name : {"mc.checks", "sat.solves", "pcc.campaigns"}) {
    EXPECT_EQ(cost.delta(name), 0u) << name;
  }
}

TEST(McArguments, FaultOnUnknownNetThrowsFromBothEngines) {
  const auto fsm = app::build_wrapper_fsm();
  const auto props = app::wrapper_properties_initial();
  const auto gates = static_cast<rtl::Net>(fsm.gate_count());
  for (const rtl::Net net : {rtl::Net{-1}, gates, rtl::Net{100000}}) {
    const std::map<rtl::Net, bool> faults{{net, true}};
    const mc::ModelChecker::Options options{4, 2};
    EXPECT_THROW((void)mc::ModelChecker{fsm}.check(props[0], options, faults),
                 std::out_of_range);
    EXPECT_THROW((void)mc::ModelChecker{fsm}.check_all(props, options, faults),
                 std::out_of_range);
    EXPECT_THROW((void)mc::BmcChecker{fsm}.check(props[0], options, faults),
                 std::out_of_range);
    EXPECT_THROW((void)mc::BmcChecker{fsm}.check_all(props, options, faults),
                 std::out_of_range);
    EXPECT_THROW((void)mc::TableChecker{fsm}.check(props[0], options, faults),
                 std::out_of_range);
    EXPECT_THROW((void)mc::TableChecker{fsm}.check_all(props, options, faults),
                 std::out_of_range);
  }
}
