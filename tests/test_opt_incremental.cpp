// Tests for fault-campaign preprocessing on the SAT engine (mc::BmcChecker,
// which ModelChecker uses for cones too large for the table engine): every
// BMC-graded fault of a campaign is checked on its own opt::optimize rebuild
// (fault baked in as a constant, sweep off), and a campaign's fault-free
// checks run the swept pipeline once for the whole property set. The acceptance gate is
// three-way identity per fault: optimize off, optimize on per property
// (check_with_faults) and optimize on through the portfolio a campaign
// grades with (check_all_with_faults) must agree bit-for-bit on verdict,
// bound_used and canonical counterexample; ATPG detectability must match
// the exhaustive-simulation oracle whether one engine serves a fault list
// or each fault gets a fresh one.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "app/rtl_blocks.hpp"
#include "atpg/atpg.hpp"
#include "gen/gen.hpp"
#include "mc/mc.hpp"
#include "obs/obs.hpp"
#include "opt/optimizer.hpp"
#include "rtl/netlist.hpp"
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

/// Same seeded random netlist generator as test_opt.cpp — the shared
/// gen::random_netlist recipe (identical Rng stream, identical instances).
rtl::Netlist random_netlist(Rng& rng, int n_inputs, int n_dffs, int n_gates,
                            int n_outputs) {
  return gen::random_netlist(rng, {n_inputs, n_dffs, n_gates, n_outputs, 0.25});
}

/// Internal fault sites of the PCC shape: a few gates/registers, skipping
/// constants and inputs, spread over the netlist.
std::vector<rtl::Net> sample_fault_sites(const rtl::Netlist& n, std::size_t want) {
  std::vector<rtl::Net> sites;
  const std::size_t stride = n.gate_count() / want + 1;
  for (std::size_t i = 0; i < n.gate_count() && sites.size() < want; ++i) {
    const std::size_t idx = (i * stride) % n.gate_count();
    const auto kind = n.gate(static_cast<rtl::Net>(idx)).kind;
    if (kind == rtl::GateKind::const0 || kind == rtl::GateKind::const1 ||
        kind == rtl::GateKind::input) {
      continue;
    }
    if (std::find(sites.begin(), sites.end(), static_cast<rtl::Net>(idx)) ==
        sites.end()) {
      sites.push_back(static_cast<rtl::Net>(idx));
    }
  }
  return sites;
}

/// The optimizer options mc runs for a check over `props` with `faults`:
/// the environment's pipeline, only the observed outputs preserved (cone
/// reduction is on by default), and for a faulty check the faults baked in
/// with the sweep off.
opt::OptimizerOptions campaign_options(const std::vector<mc::Property>& props,
                                       const std::map<rtl::Net, bool>& faults) {
  auto options = opt::OptimizerOptions::from_env();
  options.preserve_outputs = mc::observed_outputs(props);
  if (!faults.empty()) {
    options.faults = &faults;
    options.sweep = false;
  }
  return options;
}

/// Drives the original netlist with the fault injected into the simulator
/// against the rebuilt netlist with the fault baked in as a constant, and
/// requires every preserved output to agree on every cycle.
void expect_rebuild_simulates_fault(const rtl::Netlist& original,
                                    const std::map<rtl::Net, bool>& faults,
                                    const rtl::Netlist& rebuilt, Rng& rng, int runs,
                                    int cycles) {
  rtl::Simulator sim_ref{original};
  rtl::Simulator sim_opt{rebuilt};
  for (int run = 0; run < runs; ++run) {
    sim_ref.reset();
    sim_ref.clear_faults();
    for (const auto& [net, value] : faults) sim_ref.inject_stuck_at(net, value);
    sim_opt.reset();
    for (int cycle = 0; cycle < cycles; ++cycle) {
      for (const rtl::Net in : original.inputs()) {
        const bool value = (rng.next() & 1) != 0;
        sim_ref.set_input(original.net_name(in), value);
        sim_opt.set_input(original.net_name(in), value);
      }
      sim_ref.eval();
      sim_opt.eval();
      for (const auto& [name, net] : rebuilt.outputs()) {
        ASSERT_EQ(sim_ref.value(original.output(name)), sim_opt.value(net))
            << "output '" << name << "' diverged at run " << run << " cycle "
            << cycle;
      }
      sim_ref.step();
      sim_opt.step();
    }
  }
}

/// The acceptance gate: one property set, one fault map, three ways of
/// checking it — optimize off, optimize on per property, and optimize on
/// through the campaign portfolio (one rebuild shared by the whole set).
/// The verdict, bound_used and canonical counterexample must be
/// bit-identical, and the portfolio's encoding target must be exactly the
/// one-shot optimizer run a campaign check is documented to use.
void expect_three_way_identical(const mc::BmcChecker& checker,
                                const rtl::Netlist& netlist,
                                const std::vector<mc::Property>& props,
                                const std::map<rtl::Net, bool>& faults,
                                mc::ModelChecker::Options options) {
  const symbad::test::CountersOn counting;
  options.optimize = true;
  const obs::Scope campaign_cost;
  const auto campaign = checker.check_all_with_faults(props, faults, options);
  ASSERT_EQ(campaign.results.size(), props.size());
  const auto rebuild_options = campaign_options(props, faults);
  if (rebuild_options.enabled) {
    const auto rebuild = opt::optimize(netlist, rebuild_options);
    EXPECT_EQ(campaign_cost.delta("mc.portfolio.opt_gates_before"), rebuild.gates_before());
    EXPECT_EQ(campaign_cost.delta("mc.portfolio.opt_gates_after"), rebuild.gates_after());
  }
  for (std::size_t i = 0; i < props.size(); ++i) {
    const auto& prop = props[i];
    options.optimize = true;
    const auto r_on = checker.check_with_faults(prop, faults, options);
    options.optimize = false;
    const obs::Scope off_cost;
    const auto r_off = checker.check_with_faults(prop, faults, options);
    const auto& r_all = campaign.results[i];

    EXPECT_EQ(r_on.status, r_off.status) << prop.name;
    EXPECT_EQ(r_all.status, r_off.status) << prop.name;
    EXPECT_EQ(r_on.bound_used, r_off.bound_used) << prop.name;
    EXPECT_EQ(r_all.bound_used, r_off.bound_used) << prop.name;
    ASSERT_EQ(r_on.counterexample.has_value(), r_off.counterexample.has_value())
        << prop.name;
    ASSERT_EQ(r_all.counterexample.has_value(), r_off.counterexample.has_value())
        << prop.name;
    if (r_off.counterexample.has_value()) {
      EXPECT_EQ(r_on.counterexample->inputs, r_off.counterexample->inputs)
          << prop.name;
      EXPECT_EQ(r_all.counterexample->inputs, r_off.counterexample->inputs)
          << prop.name;
    }
    EXPECT_EQ(off_cost.delta("mc.opt_gates_before"), 0u) << prop.name;
  }
}

}  // namespace

// ------------------------------------------------------- mc-level identity

TEST(IncMc, WrapperFaultCampaignThreeWayIdentical) {
  const auto fsm = app::build_wrapper_fsm();
  const mc::BmcChecker checker{fsm};
  const auto props = app::wrapper_properties_initial();
  const auto sites = sample_fault_sites(fsm, 4);
  ASSERT_GE(sites.size(), 2u);
  for (const auto site : sites) {
    for (const bool stuck_to : {false, true}) {
      expect_three_way_identical(checker, fsm, props, {{site, stuck_to}}, {6, 3});
    }
  }
}

TEST(IncMc, FaultFreeChecksServedFromTheCachedBaseline) {
  // A campaign's fault-free checks (PCC's probe before grading) run the
  // swept pipeline once and serve every property from that one baseline.
  const auto fsm = app::build_wrapper_fsm();
  const mc::BmcChecker checker{fsm};
  expect_three_way_identical(checker, fsm, app::wrapper_properties_extended(), {},
                             {12, 4});
}

TEST(IncFuzz, RandomNetlistFaultCampaignsThreeWayIdentical) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    auto rng = symbad::test::rng(7000 + seed);
    const auto n = random_netlist(rng, 4, 3, 40, 2);
    const mc::BmcChecker checker{n};
    const auto o0 = mc::Expr::signal("o0");
    const auto o1 = mc::Expr::signal("o1");
    const std::vector<mc::Property> props{mc::Property::invariant("inv", !(o0 && o1)),
                                          mc::Property::next("next_imp", o0, o1)};
    for (const auto site : sample_fault_sites(n, 3)) {
      for (const bool stuck_to : {false, true}) {
        expect_three_way_identical(checker, n, props, {{site, stuck_to}}, {6, 3});
      }
    }
    // And the per-fault rebuilds themselves simulate like the injected fault.
    for (const auto site : sample_fault_sites(n, 2)) {
      const std::map<rtl::Net, bool> faults{{site, true}};
      opt::OptimizerOptions options;  // defaults, not from_env
      options.faults = &faults;
      options.sweep = false;
      const auto rebuild = opt::optimize(n, options);
      rebuild.netlist.validate();
      auto stimulus = symbad::test::rng(8000 + seed);
      expect_rebuild_simulates_fault(n, faults, rebuild.netlist, stimulus, 2, 24);
    }
  }
}

TEST(IncFuzz, GeneratedTierSweepThreeWayIdentical) {
  // The generated corpus (small/medium/large tiers) through the same
  // acceptance gate, one stuck-at site per netlist in both polarities.
  // SYMBAD_GEN_COUNT / _TIER / _SEED reshape the sweep.
  const auto cfg = gen::SweepConfig::from_env();
  for (const auto tier : cfg.tiers()) {
    for (int i = 0; i < cfg.count; ++i) {
      const std::uint64_t seed = cfg.seed_at(i);
      const auto n = gen::generate_netlist(seed, tier);
      const mc::BmcChecker checker{n};
      const std::vector<mc::Property> props{mc::Property::invariant(
          "inv", !(mc::Expr::signal("o0") && mc::Expr::signal("o1")))};
      const auto sites = sample_fault_sites(n, 1);
      ASSERT_FALSE(sites.empty()) << gen::to_string(tier) << " seed " << seed;
      for (const bool stuck_to : {false, true}) {
        expect_three_way_identical(checker, n, props, {{sites.front(), stuck_to}},
                                   {4, 2});
      }
    }
  }
}

// ------------------------------------------------------ atpg-level oracle

TEST(IncAtpg, DetectabilityIdenticalWithSharedSession) {
  // One engine serving the whole fault list (learned clauses, retired
  // miters and root-pinned cones carried from fault to fault) and one
  // fresh engine per fault must both match the exhaustive-simulation
  // oracle on every stuck-at fault of every net.
  for (const auto& n : {app::build_wrapper_fsm(), app::build_distance_rtl(2, 4)}) {
    const auto faults = symbad::test::all_stuck_at_faults(n);
    atpg::SatEngine shared{n, {3}};
    symbad::test::expect_matches_oracle(n, 3, shared.generate_tests(faults),
                                        n.name() + " shared");
    std::vector<atpg::SatEngine::FaultResult> fresh;
    for (const auto& [net, stuck_to] : faults) {
      fresh.push_back({net, stuck_to, atpg::sat_generate_test(n, net, stuck_to, 3)});
    }
    symbad::test::expect_matches_oracle(n, 3, fresh, n.name() + " fresh");
  }
}
