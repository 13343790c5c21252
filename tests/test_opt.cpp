// Tests for the netlist optimization engine (src/opt): rewrite rules,
// structural hashing, dead-gate elimination, SAT sweeping, the sequential
// equivalence self-check, and — the acceptance gate — bit-identical formal
// verdicts with the default-on preprocessing enabled vs disabled, on both
// hand-built fixtures and a randomized netlist fuzz harness.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <vector>

#include "app/rtl_blocks.hpp"
#include "atpg/atpg.hpp"
#include "gen/gen.hpp"
#include "mc/mc.hpp"
#include "obs/obs.hpp"
#include "opt/equiv.hpp"
#include "opt/optimizer.hpp"
#include "opt/sweep.hpp"
#include "rtl/netlist.hpp"
#include "rtl/wordops.hpp"
#include "support/atpg_oracle.hpp"
#include "support/test_util.hpp"

namespace opt = symbad::opt;
namespace mc = symbad::mc;
namespace obs = symbad::obs;
namespace rtl = symbad::rtl;
namespace app = symbad::app;
namespace atpg = symbad::atpg;
namespace gen = symbad::gen;
using symbad::verif::Rng;

namespace {

/// Optimizer options that keep the pipeline deterministic regardless of
/// the SYMBAD_OPT* environment (tests must not depend on ambient knobs).
opt::OptimizerOptions pinned_options() {
  opt::OptimizerOptions o;  // defaults, not from_env
  return o;
}

// ------------------------------------------------ random netlist harness

/// Seeded random netlist with deliberate redundancy — the recipe now lives
/// in gen::random_netlist (this harness is where it was grown; the shared
/// generator reproduces the exact same instances for the same Rng stream).
rtl::Netlist random_netlist(Rng& rng, int n_inputs, int n_dffs, int n_gates,
                            int n_outputs) {
  return gen::random_netlist(rng, {n_inputs, n_dffs, n_gates, n_outputs, 0.25});
}

/// Drives both netlists with the same random stimulus and requires every
/// shared output to agree on every cycle.
void expect_simulation_equivalent(const rtl::Netlist& a, const rtl::Netlist& b,
                                  Rng& rng, int runs, int cycles) {
  rtl::Simulator sim_a{a};
  rtl::Simulator sim_b{b};
  for (int run = 0; run < runs; ++run) {
    sim_a.reset();
    sim_b.reset();
    for (int cycle = 0; cycle < cycles; ++cycle) {
      for (const rtl::Net in : a.inputs()) {
        const bool value = (rng.next() & 1) != 0;
        sim_a.set_input(a.net_name(in), value);
        sim_b.set_input(a.net_name(in), value);
      }
      sim_a.eval();
      sim_b.eval();
      for (const auto& [name, net] : b.outputs()) {
        ASSERT_EQ(sim_a.value(a.output(name)), sim_b.value(net))
            << "output '" << name << "' diverged at run " << run << " cycle "
            << cycle;
      }
      sim_a.step();
      sim_b.step();
    }
  }
}

/// Checks one property with preprocessing on and off on the SAT engine
/// (the only one preprocessing shapes) and requires verdict, bound_used and
/// the canonical counterexample to be bit-identical — the McCoi
/// equivalence pattern, now pinning the optimizer.
void expect_opt_equivalent(const mc::BmcChecker& checker, const mc::Property& prop,
                           const std::map<rtl::Net, bool>& faults,
                           mc::ModelChecker::Options options) {
  const symbad::test::CountersOn counting;
  options.optimize = true;
  const obs::Scope with_opt_cost;
  const auto with_opt = checker.check_with_faults(prop, faults, options);
  const auto with_opt_vars = with_opt_cost.delta("mc.encoded_vars");
  options.optimize = false;
  const obs::Scope without_cost;
  const auto without = checker.check_with_faults(prop, faults, options);
  EXPECT_EQ(with_opt.status, without.status) << prop.name;
  EXPECT_EQ(with_opt.bound_used, without.bound_used) << prop.name;
  ASSERT_EQ(with_opt.counterexample.has_value(), without.counterexample.has_value())
      << prop.name;
  if (with_opt.counterexample.has_value()) {
    EXPECT_EQ(with_opt.counterexample->inputs, without.counterexample->inputs)
        << prop.name;
  }
  // Preprocessing may only shrink the encoding, never grow it.
  EXPECT_LE(with_opt_vars, without_cost.delta("mc.encoded_vars")) << prop.name;
}

}  // namespace

// ----------------------------------------------------------- rewrite rules

TEST(OptRewrite, FoldsLocalRedundancy) {
  rtl::Netlist n{"rules"};
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  n.set_output("dup1", n.add_and(a, b));
  n.set_output("dup2", n.add_and(b, a));        // commuted duplicate
  n.set_output("idem", n.add_and(a, a));        // x & x
  n.set_output("contra", n.add_and(a, n.add_not(a)));  // x & ~x
  n.set_output("dneg", n.add_not(n.add_not(b)));       // ~~x
  n.set_output("xzero", n.add_xor(a, a));       // x ^ x
  const auto t = n.add_or(a, b);
  n.set_output("muxeq", n.add_mux(a, t, t));    // equal arms

  const auto result = opt::optimize(n, pinned_options());
  const auto& o = result.netlist;
  // Commutative hashing: one AND serves both outputs.
  EXPECT_EQ(o.output("dup1"), o.output("dup2"));
  // x & x collapses to x itself (the input net).
  EXPECT_EQ(o.gate(o.output("idem")).kind, rtl::GateKind::input);
  // x & ~x is constant false, ~~x is x, x ^ x is constant false.
  EXPECT_EQ(o.gate(o.output("contra")).kind, rtl::GateKind::const0);
  EXPECT_EQ(o.gate(o.output("dneg")).kind, rtl::GateKind::input);
  EXPECT_EQ(o.gate(o.output("xzero")).kind, rtl::GateKind::const0);
  // Equal mux arms short the mux away entirely.
  EXPECT_EQ(o.gate(o.output("muxeq")).kind, rtl::GateKind::or_gate);
  EXPECT_LT(o.gate_count(), n.gate_count());
  EXPECT_EQ(result.gates_before(), n.gate_count());
  EXPECT_EQ(result.gates_after(), o.gate_count());
  // Per-pass histograms stay consistent with the pass's gate count.
  for (const auto& pass : result.passes) {
    std::size_t total = 0;
    for (const auto count : pass.histogram_after) total += count;
    EXPECT_EQ(total, pass.gates_after) << pass.pass;
  }
}

TEST(OptRewrite, DisabledOptionsReturnIdentity) {
  rtl::Netlist n{"idle"};
  const auto a = n.add_input("a");
  n.set_output("y", n.add_and(a, n.add_not(a)));  // foldable on purpose
  auto options = pinned_options();
  options.enabled = false;
  const auto result = opt::optimize(n, options);
  EXPECT_EQ(result.netlist.gate_count(), n.gate_count());
  EXPECT_TRUE(result.map.total());
  for (std::size_t i = 0; i < n.gate_count(); ++i) {
    EXPECT_EQ(result.map.translate(static_cast<rtl::Net>(i)),
              static_cast<rtl::Net>(i));
  }
  ASSERT_EQ(result.passes.size(), 1u);
  EXPECT_EQ(result.passes.front().pass, "disabled");
}

TEST(OptRewrite, ConstantArmsAndSelectInversion) {
  rtl::Netlist n{"muxrules"};
  const auto s = n.add_input("s");
  const auto e = n.add_input("e");
  const auto one = n.constant(true);
  const auto zero = n.constant(false);
  n.set_output("or_form", n.add_mux(s, one, e));    // s ? 1 : e  = s | e
  n.set_output("and_form", n.add_mux(s, e, zero));  // s ? e : 0  = s & e
  n.set_output("sel_const1", n.add_mux(one, s, e)); // 1 ? s : e  = s
  n.set_output("inv_sel", n.add_mux(n.add_not(s), e, one));  // = s | e

  const auto result = opt::optimize(n, pinned_options());
  const auto& o = result.netlist;
  EXPECT_EQ(o.gate(o.output("or_form")).kind, rtl::GateKind::or_gate);
  EXPECT_EQ(o.gate(o.output("and_form")).kind, rtl::GateKind::and_gate);
  EXPECT_EQ(o.gate(o.output("sel_const1")).kind, rtl::GateKind::input);
  // mux(~s, e, 1) = ~s ? e : 1 = mux(s, 1, e) = s | e — shares the gate.
  EXPECT_EQ(o.output("inv_sel"), o.output("or_form"));
}

TEST(OptRewrite, DeadGateEliminationFollowsPreservedOutputs) {
  rtl::Netlist n{"dead"};
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto live = n.add_and(a, b);
  const auto dead = n.add_xor(a, b);
  const auto dead_reg = n.add_dff(false, "deadreg");
  n.connect_next(dead_reg, dead);
  n.set_output("live", live);
  n.set_output("dead", dead_reg);

  auto options = pinned_options();
  options.preserve_outputs = {"live"};
  const auto result = opt::optimize(n, options);
  const auto& o = result.netlist;
  EXPECT_EQ(o.outputs().size(), 1u);
  EXPECT_EQ(result.map.translate(live), o.output("live"));
  EXPECT_EQ(result.map.translate(dead), -1);
  EXPECT_EQ(result.map.translate(dead_reg), -1);
  EXPECT_TRUE(o.flip_flops().empty());
  // Inputs are always kept, in declaration order, even when orphaned.
  ASSERT_EQ(o.inputs().size(), 2u);
  EXPECT_EQ(o.net_name(o.inputs()[0]), "a");
  EXPECT_EQ(o.net_name(o.inputs()[1]), "b");
}

TEST(OptRewrite, BakedFaultsFoldToConstants) {
  rtl::Netlist n{"faulty"};
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto g = n.add_and(a, b);
  n.set_output("y", n.add_or(g, a));

  const std::map<rtl::Net, bool> faults{{g, true}};  // and-gate stuck-at-1
  auto options = pinned_options();
  options.faults = &faults;
  const auto result = opt::optimize(n, options);
  // y = 1 | a = 1: the whole cone folds to the constant.
  EXPECT_EQ(result.netlist.gate(result.netlist.output("y")).kind,
            rtl::GateKind::const1);
}

// ------------------------------------------------------------ SAT sweeping

TEST(OptSweep, MergesStructurallyDifferentButEquivalentNets) {
  // x ^ y written two ways: the xor gate, and (x & ~y) | (~x & y). No
  // structural rule connects them — only the sweeper can.
  rtl::Netlist n{"sweepme"};
  const auto x = n.add_input("x");
  const auto y = n.add_input("y");
  const auto direct = n.add_xor(x, y);
  const auto expanded =
      n.add_or(n.add_and(x, n.add_not(y)), n.add_and(n.add_not(x), y));
  n.set_output("direct", direct);
  n.set_output("expanded", expanded);

  auto options = pinned_options();
  options.sweep = false;
  const auto unswept = opt::optimize(n, options);
  EXPECT_NE(unswept.netlist.output("direct"), unswept.netlist.output("expanded"));

  options.sweep = true;
  const auto swept = opt::optimize(n, options);
  EXPECT_EQ(swept.netlist.output("direct"), swept.netlist.output("expanded"));
  EXPECT_GE(swept.sweep_proofs(), 1u);
  EXPECT_LT(swept.netlist.gate_count(), unswept.netlist.gate_count());

  const auto check = opt::prove_equivalent(n, swept.netlist, {8, 3});
  EXPECT_NE(check.status, mc::CheckStatus::falsified);
}

TEST(OptSweep, ComplementMergesAndStateCutPoints) {
  // ~(x & y) vs (~x | ~y): equivalent with opposite structure (De Morgan),
  // merged with complement polarity through the same representative. The
  // flip-flop is a cut point: its output is never a victim.
  rtl::Netlist n{"demorgan"};
  const auto x = n.add_input("x");
  const auto y = n.add_input("y");
  const auto nand_form = n.add_not(n.add_and(x, y));
  const auto or_form = n.add_or(n.add_not(x), n.add_not(y));
  const auto d = n.add_dff(false, "state");
  n.connect_next(d, nand_form);
  n.set_output("nand_form", nand_form);
  n.set_output("or_form", or_form);
  n.set_output("state", d);

  const auto result = opt::optimize(n, pinned_options());
  EXPECT_EQ(result.netlist.output("nand_form"), result.netlist.output("or_form"));
  EXPECT_EQ(result.netlist.flip_flops().size(), 1u);
  const auto check = opt::prove_equivalent(n, result.netlist, {8, 3});
  EXPECT_NE(check.status, mc::CheckStatus::falsified);
}

TEST(OptSweep, SweeperStatsAreAccounted) {
  auto rng = symbad::test::rng("sweeper_stats");
  const auto n = random_netlist(rng, 4, 2, 40, 3);
  const auto pass1 = opt::optimize(n, [] {
    auto o = pinned_options();
    o.sweep = false;
    return o;
  }());
  opt::SatSweeper sweeper{pass1.netlist};
  const auto merges = sweeper.find_merges();
  const auto& stats = sweeper.stats();
  EXPECT_EQ(stats.proved, merges.size());
  EXPECT_LE(stats.proved + stats.refuted, stats.candidates);
  for (const auto& m : merges) {
    EXPECT_LT(m.onto, m.net);  // representative declared first
  }
}

// -------------------------------------------------- equivalence self-check

TEST(OptEquiv, DetectsARealDifference) {
  rtl::Netlist a{"left"};
  const auto ax = a.add_input("x");
  const auto ay = a.add_input("y");
  a.set_output("z", a.add_and(ax, ay));
  rtl::Netlist b{"right"};
  const auto bx = b.add_input("x");
  const auto by = b.add_input("y");
  b.set_output("z", b.add_or(bx, by));

  const auto differ = opt::prove_equivalent(a, b, {8, 3});
  EXPECT_EQ(differ.status, mc::CheckStatus::falsified);
  ASSERT_TRUE(differ.counterexample.has_value());

  const auto same = opt::prove_equivalent(a, a, {8, 3});
  EXPECT_NE(same.status, mc::CheckStatus::falsified);
}

TEST(OptEquiv, SeedRtlBlocksSurviveOptimization) {
  for (const auto& n : {app::build_wrapper_fsm(), app::build_distance_rtl(4, 8)}) {
    const auto result = opt::optimize(n, pinned_options());
    EXPECT_LE(result.netlist.gate_count(), n.gate_count()) << n.name();
    const auto check = opt::prove_equivalent(n, result.netlist, {8, 3});
    EXPECT_NE(check.status, mc::CheckStatus::falsified) << n.name();
  }
}

// ------------------------------------------------------------ fuzz harness

TEST(OptFuzz, OptimizedNetlistsSimulateIdentically) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    auto rng = symbad::test::rng(1000 + seed);
    const auto n = random_netlist(rng, 5, 3, 60, 4);
    const auto result = opt::optimize(n, pinned_options());
    EXPECT_LE(result.netlist.gate_count(), n.gate_count()) << "seed " << seed;
    auto stimulus = symbad::test::rng(2000 + seed);
    expect_simulation_equivalent(n, result.netlist, stimulus, 3, 32);
  }
}

TEST(OptFuzz, McVerdictsIdenticalOptOnVsOff) {
  // The acceptance gate, fuzzed: for random netlists and every property
  // kind, verdict / bound_used / canonical counterexample are identical
  // with preprocessing on or off.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto rng = symbad::test::rng(5000 + seed);
    const auto n = random_netlist(rng, 4, 3, 50, 3);
    const mc::BmcChecker checker{n};
    const mc::ModelChecker::Options options{8, 3};
    const auto o0 = mc::Expr::signal("o0");
    const auto o1 = mc::Expr::signal("o1");
    const auto o2 = mc::Expr::signal("o2");
    std::vector<mc::Property> props;
    props.push_back(mc::Property::invariant("inv_nand", !(o0 && o1)));
    props.push_back(mc::Property::invariant("inv_imp", o1.implies(o2)));
    props.push_back(mc::Property::next("next_imp", o0, o2));
    props.push_back(mc::Property::respond("resp", o2, o1, 2));
    for (const auto& prop : props) {
      expect_opt_equivalent(checker, prop, {}, options);
    }
  }
}

TEST(OptFuzz, McVerdictsIdenticalUnderInjectedFaults) {
  // Stuck-at variants (the PCC shape): the fault is baked into the
  // optimized netlist as a constant; verdicts must still match exactly.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    auto rng = symbad::test::rng(6000 + seed);
    const auto n = random_netlist(rng, 4, 3, 40, 2);
    const mc::BmcChecker checker{n};
    const auto o0 = mc::Expr::signal("o0");
    const auto o1 = mc::Expr::signal("o1");
    const auto inv = mc::Property::invariant("inv", !(o0 && o1));
    const auto next = mc::Property::next("next_imp", o0, o1);
    std::vector<rtl::Net> sites;
    for (std::size_t i = 0; i < n.gate_count() && sites.size() < 3; ++i) {
      const auto kind = n.gate(static_cast<rtl::Net>(i)).kind;
      if (kind == rtl::GateKind::and_gate || kind == rtl::GateKind::dff ||
          kind == rtl::GateKind::input) {
        sites.push_back(static_cast<rtl::Net>(i));
      }
    }
    for (const auto site : sites) {
      for (const bool stuck_to : {false, true}) {
        expect_opt_equivalent(checker, inv, {{site, stuck_to}}, {6, 3});
        expect_opt_equivalent(checker, next, {{site, stuck_to}}, {6, 3});
      }
    }
  }
}

// ------------------------------------------------- generative tier sweeps

TEST(OptGenerative, TieredNetlistsSimulateIdenticallyAfterOptimization) {
  // The shared generator's tier-shaped netlists (small/medium/large), each
  // optimized and required to simulate cycle-for-cycle like the original.
  // SYMBAD_GEN_COUNT / SYMBAD_GEN_TIER / SYMBAD_GEN_SEED reshape the sweep.
  const auto cfg = gen::SweepConfig::from_env();
  for (const auto tier : cfg.tiers()) {
    for (int i = 0; i < cfg.count; ++i) {
      const std::uint64_t seed = cfg.seed_at(i);
      const auto n = gen::generate_netlist(seed, tier);
      const auto result = opt::optimize(n, pinned_options());
      EXPECT_LE(result.netlist.gate_count(), n.gate_count())
          << gen::to_string(tier) << " seed " << seed;
      auto stimulus = symbad::test::rng(seed ^ 0xC0FFEEULL);
      expect_simulation_equivalent(n, result.netlist, stimulus, 2, 24);
    }
  }
}

TEST(OptGenerative, TieredMcVerdictsIdenticalOptOnVsOff) {
  // The opt-on/off differential gate over the generated corpus: for every
  // tier, N generated netlists, one invariant and one next property each —
  // verdict / bound_used / canonical counterexample bit-identical — plus
  // the invariant with a stuck-at on the first internal net, both
  // polarities (the per-fault rebuild a PCC campaign runs).
  const auto cfg = gen::SweepConfig::from_env();
  for (const auto tier : cfg.tiers()) {
    for (int i = 0; i < cfg.count; ++i) {
      const std::uint64_t seed = cfg.seed_at(i);
      const auto n = gen::generate_netlist(seed, tier);
      const mc::BmcChecker checker{n};
      const auto o0 = mc::Expr::signal("o0");
      const auto o1 = mc::Expr::signal("o1");
      const auto inv = mc::Property::invariant("inv_nand", !(o0 && o1));
      expect_opt_equivalent(checker, inv, {}, {4, 2});
      expect_opt_equivalent(checker, mc::Property::next("next_imp", o0, o1), {},
                            {4, 2});
      rtl::Net site = 0;
      while (n.gate(site).kind == rtl::GateKind::input ||
             n.gate(site).kind == rtl::GateKind::const0 ||
             n.gate(site).kind == rtl::GateKind::const1) {
        ++site;
      }
      for (const bool stuck_to : {false, true}) {
        expect_opt_equivalent(checker, inv, {{site, stuck_to}}, {4, 2});
      }
    }
  }
}

// ------------------------------------------------- seed-design equivalence

TEST(OptMc, SeedPropertiesIdenticalOptOnVsOff) {
  {
    const auto fsm = app::build_wrapper_fsm();
    const mc::BmcChecker checker{fsm};
    for (const auto& prop : app::wrapper_properties_extended()) {
      expect_opt_equivalent(checker, prop, {}, {12, 4});
    }
  }
  {
    const auto root = app::build_root_rtl();
    const mc::BmcChecker checker{root};
    const auto prop = mc::Property::invariant(
        "busy_xor_done_weak",
        !(mc::Expr::signal("busy") && mc::Expr::signal("done")));
    expect_opt_equivalent(checker, prop, {}, {10, 3});
  }
}

TEST(OptMc, SeedFaultVariantsIdenticalOptOnVsOff) {
  const auto fsm = app::build_wrapper_fsm();
  const mc::BmcChecker checker{fsm};
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
        expect_opt_equivalent(checker, prop, faults, {6, 3});
      }
    }
  }
}

TEST(OptMc, PreprocessingShrinksRootEncoding) {
  // The measurable point of the subsystem: on the ROOT core's control
  // property the optimized encoding is strictly smaller, compounding with
  // the cone-of-influence reduction (both on by default).
  const auto root = app::build_root_rtl();
  const mc::BmcChecker checker{root};
  const auto prop = mc::Property::invariant(
      "busy_done_exclusive", !(mc::Expr::signal("busy") && mc::Expr::signal("done")));
  const symbad::test::CountersOn counting;
  mc::ModelChecker::Options options{10, 3};
  options.optimize = true;
  const obs::Scope reduced_cost;
  const auto reduced = checker.check(prop, options);
  const auto reduced_vars = reduced_cost.delta("mc.encoded_vars");
  const auto reduced_clauses = reduced_cost.delta("mc.encoded_clauses");
  options.optimize = false;
  const obs::Scope full_cost;
  const auto full = checker.check(prop, options);
  EXPECT_EQ(reduced.status, full.status);
  EXPECT_LT(reduced_vars, full_cost.delta("mc.encoded_vars"));
  EXPECT_LT(reduced_clauses, full_cost.delta("mc.encoded_clauses"));
}

// ----------------------------------------------------------- ATPG parity

TEST(OptAtpg, DetectabilityIdenticalOptOnVsOff) {
  // SAT ATPG runs no netlist preprocessing, so the SYMBAD_OPT master
  // switch must not reach it: with the optimizer on and off, every verdict
  // equals the exhaustive-simulation oracle's.
  for (const auto& n : {app::build_wrapper_fsm(), app::build_distance_rtl(2, 4)}) {
    std::vector<std::pair<rtl::Net, bool>> faults;
    for (const rtl::Net ff : n.flip_flops()) {
      faults.emplace_back(ff, false);
      faults.emplace_back(ff, true);
    }
    for (const char* opt_env : {"1", "0"}) {
      ::setenv("SYMBAD_OPT", opt_env, 1);
      atpg::SatEngine engine{n, {3}};
      const auto results = engine.generate_tests(faults);
      ::unsetenv("SYMBAD_OPT");
      symbad::test::expect_matches_oracle(n, 3, results,
                                          n.name() + " SYMBAD_OPT=" + opt_env);
    }
  }
}

// ------------------------------------------- check_all live-cone shrink

namespace {

/// Two independent blocks: a wide OR-tree feeding one register (property
/// falsified at bound 1, big cone) and a quiet 2-bit chain that never
/// rises (clean through every bound, tiny cone).
rtl::Netlist two_block_netlist() {
  rtl::Netlist n{"twoblock"};
  rtl::Word wide = rtl::make_inputs(n, "w", 16);
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

TEST(OptLiveCone, CheckAllDropsRetiredConesFromLaterBounds) {
  const auto n = two_block_netlist();
  const mc::BmcChecker checker{n};
  std::vector<mc::Property> props;
  props.push_back(
      mc::Property::invariant("a_never", !mc::Expr::signal("a_out")));  // falsified
  props.push_back(
      mc::Property::invariant("b_never", !mc::Expr::signal("b_out")));  // clean
  mc::ModelChecker::Options options{12, 3};

  const symbad::test::CountersOn counting;
  options.live_cone = true;
  const obs::Scope live_cost;
  const auto live = checker.check_all(props, options);
  const auto live_recomputes = live_cost.delta("mc.portfolio.cone_recomputes");
  const auto live_vars = live_cost.delta("mc.portfolio.encoded_vars");
  const auto live_clauses = live_cost.delta("mc.portfolio.encoded_clauses");
  options.live_cone = false;
  const obs::Scope frozen_cost;
  const auto frozen = checker.check_all(props, options);

  // Same verdicts, bounds and canonical counterexamples...
  ASSERT_EQ(live.results.size(), frozen.results.size());
  for (std::size_t i = 0; i < props.size(); ++i) {
    EXPECT_EQ(live.results[i].status, frozen.results[i].status) << props[i].name;
    EXPECT_EQ(live.results[i].bound_used, frozen.results[i].bound_used)
        << props[i].name;
    ASSERT_EQ(live.results[i].counterexample.has_value(),
              frozen.results[i].counterexample.has_value());
    if (live.results[i].counterexample.has_value()) {
      EXPECT_EQ(live.results[i].counterexample->inputs,
                frozen.results[i].counterexample->inputs)
          << props[i].name;
    }
  }
  EXPECT_EQ(live.results[0].status, mc::CheckStatus::falsified);
  // ...but after 'a_never' retires, the 16-input OR tree stops being
  // encoded, so the final solver is strictly smaller.
  EXPECT_GE(live_recomputes, 1u);
  EXPECT_EQ(frozen_cost.delta("mc.portfolio.cone_recomputes"), 0u);
  EXPECT_LT(live_vars, frozen_cost.delta("mc.portfolio.encoded_vars"));
  EXPECT_LT(live_clauses, frozen_cost.delta("mc.portfolio.encoded_clauses"));

  // And the per-property results still match fully-individual checks.
  for (std::size_t i = 0; i < props.size(); ++i) {
    const auto single = checker.check(props[i], options);
    EXPECT_EQ(live.results[i].status, single.status) << props[i].name;
    EXPECT_EQ(live.results[i].bound_used, single.bound_used) << props[i].name;
  }
}

// ------------------------------------------------------- environment knobs

TEST(OptEnv, MasterSwitchDisablesPreprocessing) {
  const auto fsm = app::build_wrapper_fsm();
  const mc::BmcChecker checker{fsm};
  const auto prop = app::wrapper_properties_extended().front();

  const symbad::test::CountersOn counting;
  mc::ModelChecker::Options options{8, 3};
  options.optimize = false;
  const obs::Scope reference_cost;
  (void)checker.check(prop, options);
  const auto reference_vars = reference_cost.delta("mc.encoded_vars");
  const auto reference_clauses = reference_cost.delta("mc.encoded_clauses");

  ::setenv("SYMBAD_OPT", "0", 1);
  options.optimize = true;  // requested, but the env master switch wins
  const obs::Scope disabled_cost;
  (void)checker.check(prop, options);
  ::unsetenv("SYMBAD_OPT");
  EXPECT_EQ(disabled_cost.delta("mc.encoded_vars"), reference_vars);
  EXPECT_EQ(disabled_cost.delta("mc.encoded_clauses"), reference_clauses);
}

TEST(OptEnv, KnobsParseStrictly) {
  ::setenv("SYMBAD_OPT", "banana", 1);
  EXPECT_THROW(opt::OptimizerOptions::from_env(), std::invalid_argument);
  ::setenv("SYMBAD_OPT", "1", 1);
  ::setenv("SYMBAD_OPT_SWEEP_ROUNDS", "0", 1);  // out of [1, 64]
  EXPECT_THROW(opt::OptimizerOptions::from_env(), std::invalid_argument);
  ::unsetenv("SYMBAD_OPT_SWEEP_ROUNDS");
  ::setenv("SYMBAD_OPT_SWEEP", "0", 1);
  EXPECT_FALSE(opt::OptimizerOptions::from_env().sweep);
  ::unsetenv("SYMBAD_OPT_SWEEP");
  ::unsetenv("SYMBAD_OPT");
  EXPECT_TRUE(opt::OptimizerOptions::from_env().enabled);
}
