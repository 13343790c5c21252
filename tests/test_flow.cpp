// Tests for the FlowDriver (src/core/flow), the table model-checking engine
// on the wrapper FSM and its dispatch (src/mc/tables), LPV place invariants
// and the MOTION kernel added for the same-family webcam application.

#include <gtest/gtest.h>

#include "app/face_system.hpp"
#include "app/rtl_blocks.hpp"
#include "core/flow.hpp"
#include "lpv/lpv.hpp"
#include "lpv/petri.hpp"
#include "mc/tables.hpp"
#include "media/database.hpp"
#include "media/kernels.hpp"
#include "obs/obs.hpp"
#include "rtl/wordops.hpp"
#include "support/test_util.hpp"

namespace core = symbad::core;
namespace app = symbad::app;
namespace media = symbad::media;
namespace mc = symbad::mc;
namespace lpv = symbad::lpv;
namespace rtl = symbad::rtl;

// ------------------------------------------------------------ FlowDriver

namespace {

struct FlowFixture {
  media::FaceDatabase db = media::FaceDatabase::enroll(5, 3);
  core::TaskGraph graph = app::face_task_graph(db);
  FlowFixture() {
    const auto profile = app::profile_reference(db, 2);
    app::annotate_from_profile(graph, profile, 2);
  }
};

/// Enrolment + reference profiling is expensive; share one instance.
FlowFixture& flow_fixture() { return symbad::test::shared_fixture<FlowFixture>(); }

}  // namespace

TEST(FlowDriver, RunsAllLevelsWithMatchingTraces) {
  auto& fx = flow_fixture();
  app::FaceStageRuntime runtime{fx.db};
  core::FlowDriver::Config config;
  config.frames = 3;
  core::FlowDriver flow{fx.graph, runtime, config};
  flow.set_level2_partition(app::paper_level2_partition(fx.graph));
  flow.set_level3_partition(app::paper_level3_partition(fx.graph));

  const auto report = flow.run(3);
  ASSERT_EQ(report.levels.size(), 3u);
  EXPECT_TRUE(report.levels[0].trace_matches_previous);
  EXPECT_TRUE(report.levels[1].trace_matches_previous);
  EXPECT_TRUE(report.levels[2].trace_matches_previous);
  EXPECT_GT(report.levels[1].performance.frames_per_second, 0.0);
  EXPECT_GT(report.levels[2].performance.reconfigurations, 0u);
  EXPECT_TRUE(report.clean());
  EXPECT_NE(report.to_string().find("level 3"), std::string::npos);
}

TEST(FlowDriver, VerificationHooksRunAtTheirLevel) {
  auto& fx = flow_fixture();
  app::FaceStageRuntime runtime{fx.db};
  core::FlowDriver flow{fx.graph, runtime, {{}, 2}};
  flow.set_level2_partition(app::paper_level2_partition(fx.graph));
  flow.set_level3_partition(app::paper_level3_partition(fx.graph));
  int level1_calls = 0;
  int level2_calls = 0;
  flow.add_verification(1, [&](const core::TaskGraph&, const core::Partition&) {
    ++level1_calls;
    return core::VerificationOutcome{"T1", "ok", true};
  });
  flow.add_verification(2, [&](const core::TaskGraph&, const core::Partition&) {
    ++level2_calls;
    return core::VerificationOutcome{"T2", "nope", false};
  });
  const auto report = flow.run(2);
  EXPECT_EQ(level1_calls, 1);
  EXPECT_EQ(level2_calls, 1);
  EXPECT_TRUE(report.levels[0].all_passed());
  EXPECT_FALSE(report.levels[1].all_passed());
  EXPECT_FALSE(report.clean());
}

TEST(FlowDriver, Level3NeedsPartition) {
  auto& fx = flow_fixture();
  app::FaceStageRuntime runtime{fx.db};
  core::FlowDriver flow{fx.graph, runtime, {{}, 2}};
  EXPECT_THROW((void)flow.run(3), std::logic_error);
  EXPECT_THROW((void)flow.run(0), std::invalid_argument);
  EXPECT_THROW(flow.add_verification(4, nullptr), std::invalid_argument);
}

TEST(FlowDriver, StopAtLevelOne) {
  auto& fx = flow_fixture();
  app::FaceStageRuntime runtime{fx.db};
  core::FlowDriver flow{fx.graph, runtime, {{}, 2}};
  const auto report = flow.run(1);
  EXPECT_EQ(report.levels.size(), 1u);
  EXPECT_TRUE(report.clean());
}

// ------------------------------------------------ table model checking

TEST(ExplicitMc, WrapperFsmStateSpaceIsTiny) {
  // The extended plan's cone is the whole wrapper: 2 flip-flops and 3
  // inputs, so one table check enumerates 32 (state, input) pairs.
  const auto n = app::build_wrapper_fsm();
  const auto props = app::wrapper_properties_extended();
  const auto cone = mc::table_cone(n, {props.data(), props.size()});
  EXPECT_EQ(cone.flip_flops.size(), 2u);
  EXPECT_EQ(cone.inputs.size(), 3u);
  EXPECT_EQ(cone.pairs(), 32u);
  EXPECT_TRUE(cone.fits());
  const symbad::test::CountersOn counting;
  const symbad::obs::Scope cost;
  (void)mc::ModelChecker{n}.check_all(props);
  EXPECT_EQ(cost.delta("mc.tables.checks"), 1u);
  EXPECT_EQ(cost.delta("mc.tables.pairs"), 32u);
  EXPECT_EQ(cost.delta("mc.encoded_vars"), 0u);
}

TEST(ExplicitMc, ProvesWrapperInvariantsExhaustively) {
  const auto n = app::build_wrapper_fsm();
  const mc::TableChecker tables{n};
  for (const auto& prop : app::wrapper_properties_extended()) {
    const auto result = tables.check(prop, {});
    if (prop.kind == mc::PropertyKind::bounded_response) {
      EXPECT_EQ(result.status, mc::CheckStatus::no_cex_within_bound) << prop.name;
      continue;
    }
    EXPECT_EQ(result.status, mc::CheckStatus::proved) << prop.name;
  }
}

TEST(ExplicitMc, AgreesWithSatEngineOnFalsification) {
  const auto n = app::build_wrapper_fsm();
  const auto false_prop =
      mc::Property::invariant("never_acks", !mc::Expr::signal("ack"));
  const auto table_result = mc::TableChecker{n}.check(false_prop, {});
  const auto sat_result = mc::BmcChecker{n}.check(false_prop, {});
  EXPECT_EQ(table_result.status, mc::CheckStatus::falsified);
  EXPECT_EQ(sat_result.status, mc::CheckStatus::falsified);
  EXPECT_EQ(table_result.bound_used, sat_result.bound_used);
  ASSERT_TRUE(table_result.counterexample && sat_result.counterexample);
  EXPECT_EQ(table_result.counterexample->inputs, sat_result.counterexample->inputs);
  EXPECT_EQ(mc::ModelChecker{n}.check(false_prop).status, mc::CheckStatus::falsified);
}

TEST(ExplicitMc, RefusesWideInputDesigns) {
  // A register fed by the parity of 20 inputs: its cone has 2^21 (state,
  // input) pairs, so ModelChecker sends it to SAT and the table engine
  // refuses it when called directly.
  rtl::Netlist n{"wide"};
  rtl::Net parity = n.constant(false);
  for (int i = 0; i < 20; ++i) parity = n.add_xor(parity, n.add_input("i" + std::to_string(i)));
  const auto d = n.add_dff(false, "r");
  n.connect_next(d, parity);
  n.set_output("q", d);
  const auto prop = mc::Property::invariant("t", mc::Expr::signal("q") || !mc::Expr::signal("q"));
  const auto cone = mc::table_cone(n, {&prop, 1});
  EXPECT_EQ(cone.pairs(), std::uint64_t{1} << 21);
  EXPECT_FALSE(cone.fits());
  const symbad::test::CountersOn counting;
  const symbad::obs::Scope cost;
  mc::ModelChecker::Options options;
  options.max_bound = 2;
  options.induction_depth = 1;
  EXPECT_EQ(mc::ModelChecker{n}.check(prop, options).status, mc::CheckStatus::proved);
  EXPECT_EQ(cost.delta("mc.tables.checks"), 0u);
  EXPECT_GT(cost.delta("mc.frames_encoded"), 0u);
  EXPECT_THROW((void)mc::TableChecker{n}.check(prop, options), std::invalid_argument);
}

// ------------------------------------------------------- LPV invariants

TEST(LpvInvariant, ChannelConservationFound) {
  core::TaskGraph g;
  g.add_task("a");
  g.add_task("b");
  g.add_channel("a", "b", 4, 3);
  const auto net = lpv::petri_from_task_graph(g);
  const auto invariant = lpv::find_invariant_covering(net, 0);
  ASSERT_TRUE(invariant.has_value());
  EXPECT_TRUE(lpv::verify_invariant(net, invariant->weights));
  // tokens + slots is conserved at the channel capacity.
  EXPECT_NEAR(invariant->conserved_value, 3.0, 1e-6);
}

TEST(LpvInvariant, RejectsNonInvariantWeights) {
  core::TaskGraph g;
  g.add_task("a");
  g.add_task("b");
  g.add_channel("a", "b", 4, 2);
  const auto net = lpv::petri_from_task_graph(g);
  std::vector<double> bogus(net.place_count(), 0.0);
  bogus[0] = 1.0;  // tokens place alone is not conserved
  EXPECT_FALSE(lpv::verify_invariant(net, bogus));
  std::vector<double> wrong_size(net.place_count() + 1, 1.0);
  EXPECT_FALSE(lpv::verify_invariant(net, wrong_size));
}

TEST(LpvInvariant, NoInvariantForSourcePlace) {
  // A place only written by a source transition grows without bound: no
  // non-negative invariant with positive weight on it exists.
  lpv::PetriNet net;
  const int sink = net.add_place("sink", 0);
  const int t = net.add_transition("src");
  net.add_output_arc(t, sink);
  EXPECT_FALSE(lpv::find_invariant_covering(net, sink).has_value());
}

// ----------------------------------------------------------- MOTION

TEST(Motion, DetectsChangedRegion) {
  media::Image a{32, 32, 100};
  media::Image b{32, 32, 100};
  for (int y = 10; y < 20; ++y) {
    for (int x = 10; x < 20; ++x) b.px(x, y) = 220;
  }
  const auto r = media::frame_difference(b, a, 50);
  EXPECT_EQ(r.active_pixels, 100u);
  EXPECT_EQ(r.mask.px(15, 15), 1);
  EXPECT_EQ(r.mask.px(0, 0), 0);
  EXPECT_EQ(r.difference.px(15, 15), 120);
}

TEST(Motion, IdenticalFramesAreQuiet) {
  media::Image a{16, 16, 77};
  const auto r = media::frame_difference(a, a, 1);
  EXPECT_EQ(r.active_pixels, 0u);
}

TEST(Motion, SizeMismatchThrows) {
  media::Image a{16, 16};
  media::Image b{8, 8};
  EXPECT_THROW((void)media::frame_difference(a, b, 10), std::invalid_argument);
}
