// Tests for the static-analysis engine (src/lint): per-rule positive
// detection with exact rule IDs, lint-cleanliness of every seed design and
// generated tier, and the strict SYMBAD_LINT environment knob.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "app/rtl_blocks.hpp"
#include "core/task_graph.hpp"
#include "gen/gen.hpp"
#include "lint/lint.hpp"
#include "mc/mc.hpp"
#include "rtl/netlist.hpp"
#include "support/test_util.hpp"

namespace app = symbad::app;
namespace core = symbad::core;
namespace gen = symbad::gen;
namespace lint = symbad::lint;
namespace mc = symbad::mc;
namespace rtl = symbad::rtl;

using lint::Rule;
using symbad::test::EnvGuard;

namespace {

/// Small clean fixture: two inputs, one register, an output cone covering
/// every gate. Lints with zero findings, so per-rule tests mutate it.
rtl::Netlist clean_netlist() {
  rtl::Netlist n{"clean"};
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto d = n.add_dff(false, "r");
  const auto x = n.add_and(a, b);
  const auto y = n.add_xor(x, d);
  n.connect_next(d, y);
  n.set_output("o", y);
  return n;
}

lint::NetlistView clean_view() { return lint::NetlistView::of(clean_netlist()); }

}  // namespace

// ------------------------------------------------------------ rule metadata

TEST(LintRules, IdsNamesAndSeveritiesAreStable) {
  EXPECT_STREQ(lint::rule_id(Rule::operand_range), "NL001");
  EXPECT_STREQ(lint::rule_id(Rule::operand_arity), "NL002");
  EXPECT_STREQ(lint::rule_id(Rule::bad_kind), "NL003");
  EXPECT_STREQ(lint::rule_id(Rule::forward_ref), "NL004");
  EXPECT_STREQ(lint::rule_id(Rule::comb_cycle), "NL005");
  EXPECT_STREQ(lint::rule_id(Rule::undriven_dff), "NL006");
  EXPECT_STREQ(lint::rule_id(Rule::dangling_logic), "NL007");
  EXPECT_STREQ(lint::rule_id(Rule::autonomous_register), "NL008");
  EXPECT_STREQ(lint::rule_id(Rule::const_net), "NL101");
  EXPECT_STREQ(lint::rule_id(Rule::unreachable_mux_arm), "NL102");
  EXPECT_STREQ(lint::rule_id(Rule::undetectable_fault), "NL103");
  EXPECT_STREQ(lint::rule_id(Rule::graph_cycle), "TG001");
  EXPECT_STREQ(lint::rule_id(Rule::graph_self_loop), "TG002");
  EXPECT_STREQ(lint::rule_id(Rule::graph_duplicate_channel), "TG003");
  EXPECT_STREQ(lint::rule_id(Rule::graph_isolated_task), "TG004");
  EXPECT_EQ(lint::kRuleCount, 15u);

  EXPECT_EQ(lint::rule_severity(Rule::operand_range), lint::Severity::error);
  EXPECT_EQ(lint::rule_severity(Rule::comb_cycle), lint::Severity::error);
  EXPECT_EQ(lint::rule_severity(Rule::graph_cycle), lint::Severity::error);
  EXPECT_EQ(lint::rule_severity(Rule::dangling_logic), lint::Severity::warning);
  EXPECT_EQ(lint::rule_severity(Rule::const_net), lint::Severity::warning);
  EXPECT_EQ(lint::rule_severity(Rule::graph_isolated_task), lint::Severity::warning);
  EXPECT_STREQ(lint::rule_name(Rule::comb_cycle), "comb-cycle");
}

TEST(LintRules, CleanFixtureHasNoFindings) {
  const auto report = lint::Linter{}.analyze(clean_view());
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.rules_checked, 8u);  // the structural netlist tier
  EXPECT_EQ(report.sat_proofs, 0u);
}

// --------------------------------------- per-rule positive detection (view)

TEST(LintStructural, NL001OperandRange) {
  auto v = clean_view();
  v.gates[3].a = 99;  // and-gate operand beyond gate_count
  const auto report = lint::Linter{}.analyze(v);
  EXPECT_TRUE(report.has(Rule::operand_range)) << report.to_string();
  EXPECT_GT(report.error_count(), 0u);
  EXPECT_NE(report.to_string().find("NL001"), std::string::npos);
}

TEST(LintStructural, NL001CoversInterfaceLists) {
  {
    auto v = clean_view();
    v.inputs.push_back(99);  // input list entry out of range
    EXPECT_TRUE(lint::Linter{}.analyze(v).has(Rule::operand_range));
  }
  {
    auto v = clean_view();
    v.inputs.push_back(3);  // net 3 is an and-gate, not an input
    EXPECT_TRUE(lint::Linter{}.analyze(v).has(Rule::operand_range));
  }
  {
    auto v = clean_view();
    v.dffs.push_back(0);  // net 0 is an input, not a flip-flop
    EXPECT_TRUE(lint::Linter{}.analyze(v).has(Rule::operand_range));
  }
  {
    auto v = clean_view();
    v.outputs["bad"] = -7;  // output bound outside the netlist
    EXPECT_TRUE(lint::Linter{}.analyze(v).has(Rule::operand_range));
  }
}

TEST(LintStructural, NL002OperandArity) {
  auto v = clean_view();
  v.gates.push_back(rtl::Gate{rtl::GateKind::not_gate, 0, 1, -1, false});
  const auto report = lint::Linter{}.analyze(v);
  EXPECT_TRUE(report.has(Rule::operand_arity)) << report.to_string();
  EXPECT_NE(report.to_string().find("NL002"), std::string::npos);
}

TEST(LintStructural, NL003BadKind) {
  auto v = clean_view();
  v.gates.push_back(rtl::Gate{static_cast<rtl::GateKind>(250), -1, -1, -1, false});
  const auto report = lint::Linter{}.analyze(v);
  EXPECT_TRUE(report.has(Rule::bad_kind)) << report.to_string();
  EXPECT_NE(report.to_string().find("NL003"), std::string::npos);
}

TEST(LintStructural, NL004ForwardRefWithoutCycle) {
  // net 1 reads net 2, which reads only net 0: a declaration-order
  // violation that is still a DAG — forward_ref must fire, comb_cycle not.
  lint::NetlistView v;
  v.gates.push_back(rtl::Gate{rtl::GateKind::input, -1, -1, -1, false});
  v.gates.push_back(rtl::Gate{rtl::GateKind::and_gate, 0, 2, -1, false});
  v.gates.push_back(rtl::Gate{rtl::GateKind::not_gate, 0, -1, -1, false});
  v.inputs = {0};
  v.outputs["o"] = 1;
  const auto report = lint::Linter{}.analyze(v);
  EXPECT_TRUE(report.has(Rule::forward_ref)) << report.to_string();
  EXPECT_FALSE(report.has(Rule::comb_cycle)) << report.to_string();
  EXPECT_NE(report.to_string().find("NL004"), std::string::npos);
}

TEST(LintStructural, NL005CombCycle) {
  // nets 1 and 2 read each other: unevaluable in any order.
  lint::NetlistView v;
  v.gates.push_back(rtl::Gate{rtl::GateKind::input, -1, -1, -1, false});
  v.gates.push_back(rtl::Gate{rtl::GateKind::and_gate, 0, 2, -1, false});
  v.gates.push_back(rtl::Gate{rtl::GateKind::or_gate, 1, 0, -1, false});
  v.inputs = {0};
  v.outputs["o"] = 2;
  const auto report = lint::Linter{}.analyze(v);
  EXPECT_TRUE(report.has(Rule::comb_cycle)) << report.to_string();
  EXPECT_NE(report.to_string().find("NL005"), std::string::npos);
}

TEST(LintStructural, NL006UndrivenDff) {
  auto v = clean_view();
  v.gates[2].a = -1;  // disconnect the register's next-state net
  const auto report = lint::Linter{}.analyze(v);
  EXPECT_TRUE(report.has(Rule::undriven_dff)) << report.to_string();
  EXPECT_GT(report.error_count(), 0u);
  EXPECT_NE(report.to_string().find("NL006"), std::string::npos);
}

TEST(LintStructural, NL007DanglingLogic) {
  auto v = clean_view();
  v.gates.push_back(rtl::Gate{rtl::GateKind::or_gate, 0, 1, -1, false});
  const auto report = lint::Linter{}.analyze(v);
  EXPECT_TRUE(report.has(Rule::dangling_logic)) << report.to_string();
  EXPECT_EQ(report.error_count(), 0u);  // warning severity
  EXPECT_NE(report.to_string().find("NL007"), std::string::npos);
}

TEST(LintStructural, NL008AutonomousRegister) {
  // A free-running toggle: the register's next state is its own negation,
  // never a function of any primary input.
  rtl::Netlist n{"toggle"};
  (void)n.add_input("unused");
  const auto d = n.add_dff(false, "t");
  const auto nd = n.add_not(d);
  n.connect_next(d, nd);
  n.set_output("o", d);
  n.set_output("u", n.input("unused"));
  const auto report = lint::Linter{}.analyze(lint::NetlistView::of(n));
  EXPECT_TRUE(report.has(Rule::autonomous_register)) << report.to_string();
  EXPECT_EQ(report.error_count(), 0u);  // warning severity
  EXPECT_NE(report.to_string().find("NL008"), std::string::npos);
}

TEST(LintStructural, SuppressionSkipsRuleAndCounter) {
  auto v = clean_view();
  v.gates.push_back(rtl::Gate{rtl::GateKind::or_gate, 0, 1, -1, false});
  lint::Options o;
  o.suppress = {Rule::dangling_logic};
  const auto report = lint::Linter{o}.analyze(v);
  EXPECT_FALSE(report.has(Rule::dangling_logic));
  EXPECT_EQ(report.rules_checked, 7u);
}

TEST(LintStructural, ReportsAreDeterministic) {
  auto v = clean_view();
  v.gates[3].a = 99;
  v.gates.push_back(rtl::Gate{rtl::GateKind::not_gate, 0, 1, -1, false});
  const auto first = lint::Linter{}.analyze(v);
  const auto second = lint::Linter{}.analyze(v);
  EXPECT_EQ(first.to_string(), second.to_string());
  EXPECT_EQ(first.rules_checked, second.rules_checked);
}

// ------------------------------------------------------------ semantic tier

TEST(LintSemantic, NL101ConstNetProved) {
  rtl::Netlist n{"constnet"};
  const auto a = n.add_input("a");
  const auto na = n.add_not(a);
  const auto z = n.add_and(a, na);  // provably 0 for every a
  const auto y = n.add_xor(z, a);
  n.set_output("o", y);
  lint::Options o;
  o.semantic = true;
  const auto report = lint::Linter{o}.analyze(n);
  EXPECT_TRUE(report.has(Rule::const_net)) << report.to_string();
  EXPECT_GT(report.sat_proofs, 0u);
  EXPECT_EQ(report.rules_checked, 11u);  // 8 structural + 3 semantic
  EXPECT_NE(report.to_string().find("NL101"), std::string::npos);
  // stuck-at-0 on the proven-0 net is a functional no-op: NL103 too.
  EXPECT_TRUE(report.has(Rule::undetectable_fault)) << report.to_string();
}

TEST(LintSemantic, NL102UnreachableMuxArm) {
  rtl::Netlist n{"deadarm"};
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto c = n.add_input("c");
  const auto sel = n.add_or(a, n.add_not(a));  // provably 1
  const auto m = n.add_mux(sel, b, c);
  n.set_output("o", m);
  lint::Options o;
  o.semantic = true;
  const auto report = lint::Linter{o}.analyze(n);
  EXPECT_TRUE(report.has(Rule::unreachable_mux_arm)) << report.to_string();
  EXPECT_NE(report.to_string().find("NL102"), std::string::npos);
}

TEST(LintSemantic, NL103CountsOutOfConeSites) {
  // Side logic feeding no output at all: every stuck-at on it (both
  // polarities) is invisible to any property over the declared outputs.
  rtl::Netlist n{"sidecone"};
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  (void)n.add_and(a, b);  // dangling — outside every output cone
  n.set_output("o", n.add_xor(a, b));
  lint::Options o;
  o.semantic = true;
  const auto report = lint::Linter{o}.analyze(n);
  EXPECT_TRUE(report.has(Rule::undetectable_fault)) << report.to_string();
  EXPECT_NE(report.to_string().find("NL103"), std::string::npos);
}

TEST(LintSemantic, SkippedWhenStructuralErrorsPresent) {
  // analyze(NetlistView) never runs the semantic tier; the rtl::Netlist
  // overload skips it when structural errors exist. Error-free netlists by
  // construction can't exercise that guard directly, so pin the view path:
  auto v = clean_view();
  v.gates[3].a = 99;
  lint::Options o;
  o.semantic = true;
  const auto report = lint::Linter{o}.analyze(v);
  EXPECT_FALSE(report.has(Rule::const_net));
  EXPECT_EQ(report.sat_proofs, 0u);
}

// ------------------------------------------------------------- graph rules

TEST(LintGraph, TG001Cycle) {
  core::TaskGraph g;
  g.add_task("a");
  g.add_task("b");
  g.add_task("c");
  g.add_channel("a", "b", 4);
  g.add_channel("b", "c", 4);
  g.add_channel("c", "a", 4);
  const auto report = lint::Linter{}.analyze(g);
  EXPECT_TRUE(report.has(Rule::graph_cycle)) << report.to_string();
  EXPECT_GT(report.error_count(), 0u);
  EXPECT_NE(report.to_string().find("TG001"), std::string::npos);
}

TEST(LintGraph, TG002SelfLoop) {
  core::TaskGraph g;
  g.add_task("a");
  g.add_task("b");
  g.add_channel("a", "a", 4);
  g.add_channel("a", "b", 4);
  const auto report = lint::Linter{}.analyze(g);
  EXPECT_TRUE(report.has(Rule::graph_self_loop)) << report.to_string();
  // The self-loop is excluded from Kahn's indegrees: no bogus TG001.
  EXPECT_FALSE(report.has(Rule::graph_cycle)) << report.to_string();
  EXPECT_NE(report.to_string().find("TG002"), std::string::npos);
}

TEST(LintGraph, TG003DuplicateChannel) {
  core::TaskGraph g;
  g.add_task("a");
  g.add_task("b");
  g.add_channel("a", "b", 4);
  g.add_channel("a", "b", 8);
  const auto report = lint::Linter{}.analyze(g);
  EXPECT_TRUE(report.has(Rule::graph_duplicate_channel)) << report.to_string();
  EXPECT_EQ(report.error_count(), 0u);  // warning severity
  EXPECT_NE(report.to_string().find("TG003"), std::string::npos);
}

TEST(LintGraph, TG004IsolatedTask) {
  core::TaskGraph g;
  g.add_task("a");
  g.add_task("b");
  g.add_task("loner");
  g.add_channel("a", "b", 4);
  const auto report = lint::Linter{}.analyze(g);
  EXPECT_TRUE(report.has(Rule::graph_isolated_task)) << report.to_string();
  EXPECT_EQ(report.error_count(), 0u);
  EXPECT_NE(report.to_string().find("TG004"), std::string::npos);
  // A single-task graph is trivially connected, not isolated.
  core::TaskGraph solo;
  solo.add_task("only");
  EXPECT_FALSE(lint::Linter{}.analyze(solo).has(Rule::graph_isolated_task));
}

TEST(LintGraph, CleanDagIsClean) {
  core::TaskGraph g;
  g.add_task("src");
  g.add_task("mid");
  g.add_task("sink");
  g.add_channel("src", "mid", 16);
  g.add_channel("mid", "sink", 16);
  const auto report = lint::Linter{}.analyze(g);
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.rules_checked, 4u);
}

// ----------------------------------------- seed designs & generated sweeps

TEST(LintClean, SeedDesignsHaveNoErrorFindings) {
  lint::Options o;
  o.semantic = true;
  const lint::Linter linter{o};
  using Builder = rtl::Netlist (*)();
  const Builder builders[] = {[] { return app::build_root_rtl(); },
                              [] { return app::build_wrapper_fsm(); },
                              [] { return app::build_distance_rtl(8, 16); }};
  for (const Builder build : builders) {
    const auto n = build();
    const auto report = linter.analyze(n);
    EXPECT_EQ(report.error_count(), 0u) << n.name() << "\n" << report.to_string();
  }
}

TEST(LintClean, GeneratedNetlistsAllTiersHaveNoErrorFindings) {
  // The ISSUE acceptance sweep: >= 20 generated platforms per tier lint
  // free of error findings (warnings — pool nets — are by construction).
  gen::SweepConfig cfg;
  ASSERT_GE(cfg.count, 20);
  const lint::Linter linter{};
  for (const auto tier : cfg.tiers()) {
    for (int i = 0; i < cfg.count; ++i) {
      const auto n = gen::generate_netlist(cfg.seed_at(i), tier);
      const auto report = linter.analyze(n);
      EXPECT_EQ(report.error_count(), 0u)
          << gen::to_string(tier) << " seed " << cfg.seed_at(i) << "\n"
          << report.to_string();
    }
  }
}

TEST(LintClean, GeneratedSmallTierIsSemanticErrorFree) {
  // The semantic tier only adds warnings today, but run it across the small
  // tier anyway: it must never crash, and never produce an error finding.
  gen::SweepConfig cfg;
  lint::Options o;
  o.semantic = true;
  const lint::Linter linter{o};
  for (int i = 0; i < cfg.count; ++i) {
    const auto n = gen::generate_netlist(cfg.seed_at(i), gen::SizeTier::small);
    const auto report = linter.analyze(n);
    EXPECT_EQ(report.error_count(), 0u) << report.to_string();
  }
}

TEST(LintClean, GeneratedTaskGraphsHaveNoErrorFindings) {
  gen::SweepConfig cfg;
  const lint::Linter linter{};
  for (const auto tier : cfg.tiers()) {
    for (int i = 0; i < cfg.count; ++i) {
      const auto p = gen::generate_platform(cfg.seed_at(i), tier);
      const auto report = linter.analyze(p.graph);
      EXPECT_EQ(report.error_count(), 0u)
          << gen::to_string(tier) << " seed " << p.seed << "\n" << report.to_string();
    }
  }
}

// ------------------------------------------------------- mc faulty check

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

TEST(LintMcPrune, VerdictAndCounterexampleIdenticalWithPrunedInputFault) {
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

// -------------------------------------------------- env knob & enforcement

TEST(LintEnv, ModeParsesStrictly) {
  {
    EnvGuard guard{"SYMBAD_LINT", nullptr};
    EXPECT_EQ(lint::mode_from_env(), lint::Mode::structural);  // default on
  }
  {
    EnvGuard guard{"SYMBAD_LINT", "0"};
    EXPECT_EQ(lint::mode_from_env(), lint::Mode::off);
  }
  {
    EnvGuard guard{"SYMBAD_LINT", "1"};
    EXPECT_EQ(lint::mode_from_env(), lint::Mode::structural);
  }
  {
    EnvGuard guard{"SYMBAD_LINT", "2"};
    EXPECT_EQ(lint::mode_from_env(), lint::Mode::semantic);
  }
  for (const char* bad : {"3", "-1", "banana", "1x", ""}) {
    EnvGuard guard{"SYMBAD_LINT", bad};
    EXPECT_THROW((void)lint::mode_from_env(), std::invalid_argument) << bad;
  }
}

TEST(LintEnforce, ThrowsOnErrorsListsRuleIds) {
  auto v = clean_view();
  v.gates[3].a = 99;
  const auto report = lint::Linter{}.analyze(v);
  try {
    lint::enforce(report);
    FAIL() << "enforce did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string{e.what()}.find("NL001"), std::string::npos) << e.what();
  }
}

TEST(LintEnforce, WarningsPassCheckNetlistCleanOnSeeds) {
  // enforce lets warning-only reports through...
  auto v = clean_view();
  v.gates.push_back(rtl::Gate{rtl::GateKind::or_gate, 0, 1, -1, false});
  EXPECT_NO_THROW(lint::enforce(lint::Linter{}.analyze(v)));
  // ...and the boundary helpers accept every seed design in every mode.
  for (const char* mode : {"1", "2"}) {
    EnvGuard guard{"SYMBAD_LINT", mode};
    EXPECT_NO_THROW(lint::check_netlist(app::build_wrapper_fsm(), "test"));
  }
  EnvGuard guard{"SYMBAD_LINT", "0"};  // off: no analysis, no throw
  EXPECT_NO_THROW(lint::check_netlist(app::build_wrapper_fsm(), "test"));
}
