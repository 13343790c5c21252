// Tests for the Laerte++-style ATPG (src/atpg): coverage estimation of
// testbenches, random and genetic engines, bit-coverage fault grading,
// seeded-bug hunting and the SAT-based test generator.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "app/rtl_blocks.hpp"
#include "atpg/atpg.hpp"
#include "gen/gen.hpp"
#include "obs/obs.hpp"
#include "rtl/wordops.hpp"
#include "support/atpg_oracle.hpp"
#include "support/test_util.hpp"

namespace atpg = symbad::atpg;
namespace media = symbad::media;
namespace verif = symbad::verif;
namespace rtl = symbad::rtl;
namespace app = symbad::app;
namespace gen = symbad::gen;

namespace {

atpg::Laerte& engine() {
  static atpg::Laerte instance{atpg::Laerte::Config{4, 2, 64, {}, 6}};
  return instance;
}

}  // namespace

TEST(Atpg, StimulusRoundTripsToPose) {
  auto rng = symbad::test::rng(3);
  const auto s = atpg::Stimulus::random(rng, 4);
  const auto pose = s.to_pose();
  EXPECT_EQ(pose.dx, s.dx);
  EXPECT_EQ(pose.rot_deg, s.rot_deg);
  EXPECT_EQ(pose.noise_seed, s.noise_seed);
  EXPECT_LT(s.identity, 4);
}

TEST(Atpg, CoverageGrowsWithTestbenchSize) {
  auto& laerte = engine();
  const auto small = laerte.evaluate(laerte.random_testbench(1, 7));
  const auto large = laerte.evaluate(laerte.random_testbench(12, 7));
  EXPECT_GT(small.coverage.statement_total, 0);
  EXPECT_GE(large.coverage.overall_percent(), small.coverage.overall_percent());
  EXPECT_GT(large.coverage.overall_percent(), 30.0);
}

TEST(Atpg, EvaluationIsDeterministic) {
  auto& laerte = engine();
  const auto tb = laerte.random_testbench(4, 99);
  const auto e1 = laerte.evaluate(tb);
  const auto e2 = laerte.evaluate(tb);
  EXPECT_DOUBLE_EQ(e1.fitness, e2.fitness);
  EXPECT_EQ(e1.coverage.statement_covered, e2.coverage.statement_covered);
}

TEST(Atpg, GeneticEngineBeatsOrMatchesRandom) {
  auto& laerte = engine();
  const auto random_tb = laerte.random_testbench(4, 11);
  const auto random_fitness = laerte.evaluate(random_tb).fitness;
  const auto genetic_tb = laerte.genetic_testbench(4, 6, 4, 11);
  const auto genetic_fitness = laerte.evaluate(genetic_tb).fitness;
  EXPECT_GE(genetic_fitness, random_fitness);
}

TEST(Atpg, BitFaultGrading) {
  auto& laerte = engine();
  const auto tb = laerte.random_testbench(3, 5);
  const auto estimate = laerte.evaluate(tb, /*grade_bit_faults=*/true);
  EXPECT_GT(estimate.bit_faults.total, 0u);
  EXPECT_GT(estimate.bit_faults.detected, 0u);
  EXPECT_LE(estimate.bit_faults.detected, estimate.bit_faults.total);
  // High-order-bit faults on active pixels overwhelmingly propagate.
  EXPECT_GT(estimate.bit_faults.percent(), 25.0);
}

TEST(Atpg, GeneticTestbenchRejectsEmptyShapes) {
  // No frame to mutate (the mutation draws below `frames`) or no individual
  // to keep: rejected before any work.
  atpg::Laerte laerte{atpg::Laerte::Config{4, 2, 64, {}, 2}};
  const int shapes[][3] = {{0, 4, 2}, {3, 0, 0}, {3, 0, 2}, {-1, 4, 2}};
  for (const auto& [frames, population, generations] : shapes) {
    EXPECT_THROW((void)laerte.genetic_testbench(frames, population, generations, 7),
                 std::invalid_argument)
        << frames << " frames, population " << population << ", " << generations
        << " generations";
  }
  EXPECT_EQ(laerte.genetic_testbench(3, 1, 2, 7).frames.size(), 3u);
}

TEST(Atpg, SeededMemoryBugDetectedByMultiFrameBench) {
  auto& laerte = engine();
  // One frame cannot expose a cross-frame leak; several frames do.
  atpg::Testbench single;
  single.frames.push_back(atpg::Stimulus{});
  EXPECT_FALSE(laerte.detects_seeded_memory_bug(single));

  const auto tb = laerte.random_testbench(6, 21);
  EXPECT_TRUE(laerte.detects_seeded_memory_bug(tb));
}

namespace {

/// detects_seeded_memory_bug as two full pipeline runs per frame, the clean
/// one and the buggy one carrying the stale window across frames.
bool reference_detects_memory_bug(const atpg::Laerte& laerte, const atpg::Laerte::Config& config,
                                  const atpg::Testbench& tb) {
  media::PipelineConfig buggy = config.pipeline;
  buggy.seeded_memory_bug = true;
  media::FrontEndState state;
  for (const auto& s : tb.frames) {
    const auto frame = media::camera_capture(media::FaceParams::for_identity(s.identity),
                                             s.to_pose(), config.image_size);
    const auto golden = media::recognize(frame, laerte.database(), config.pipeline);
    const auto faulty =
        media::recognize(frame, laerte.database(), buggy, nullptr, nullptr, &state);
    if (golden.window != faulty.window || golden.winner.index != faulty.winner.index) {
      return true;
    }
  }
  return false;
}

}  // namespace

TEST(Atpg, SeededMemoryBugVerdictMatchesTwoFullRunsPerFrame) {
  const atpg::Laerte::Config config{4, 2, 64, {}, 6};
  auto& laerte = engine();
  std::vector<atpg::Testbench> benches;
  atpg::Testbench single;
  single.frames.push_back(atpg::Stimulus{});
  benches.push_back(single);                       // undetected: nothing is stale yet
  benches.push_back(laerte.random_testbench(6, 21));  // detected
  atpg::Testbench repeated;
  repeated.frames.assign(3, atpg::Stimulus{});
  benches.push_back(repeated);
  auto rng = symbad::test::rng("Atpg.memory_bug");
  for (int k = 0; k < 12; ++k) {
    benches.push_back(
        laerte.random_testbench(1 + static_cast<int>(rng.below(4)), rng.next()));
  }
  benches.push_back(laerte.genetic_testbench(3, 4, 2, rng.next()));
  int detected = 0;
  for (std::size_t i = 0; i < benches.size(); ++i) {
    const bool want = reference_detects_memory_bug(laerte, config, benches[i]);
    EXPECT_EQ(laerte.detects_seeded_memory_bug(benches[i]), want) << "testbench " << i;
    detected += want ? 1 : 0;
  }
  // Both verdicts occur.
  EXPECT_GT(detected, 0);
  EXPECT_LT(detected, static_cast<int>(benches.size()));
}

// ------------------------------------------------- bit-fault grading

namespace {

/// The grading loop Laerte::evaluate ran before fault simulation, kept as
/// the reference: full golden and faulty recomputes of every (fault, frame)
/// pair, stopping at the first detecting frame.
verif::FaultGrade reference_grade(const atpg::Laerte& laerte,
                                  const atpg::Laerte::Config& config,
                                  const atpg::Testbench& tb) {
  verif::FaultGrade grade;
  const auto faults = laerte.bit_fault_list();
  grade.total = faults.size();
  for (const auto& fault : faults) {
    for (const auto& s : tb.frames) {
      const auto frame = media::camera_capture(media::FaceParams::for_identity(s.identity),
                                               s.to_pose(), config.image_size);
      const auto golden = media::recognize(frame, laerte.database(), config.pipeline);
      const auto faulty =
          media::recognize(frame, laerte.database(), config.pipeline, nullptr, &fault);
      const bool differs = golden.winner.index != faulty.winner.index ||
                           golden.distances != faulty.distances ||
                           golden.features != faulty.features;
      if (differs) {
        ++grade.detected;
        break;
      }
    }
  }
  return grade;
}

/// Coverage of running every frame once through the reference pipeline.
verif::CoverageReport reference_coverage(const atpg::Laerte& laerte,
                                         const atpg::Laerte::Config& config,
                                         const atpg::Testbench& tb) {
  verif::CoverageDb cov;
  verif::CoverageDb::Scope scope{cov};
  for (const auto& s : tb.frames) {
    (void)media::recognize(media::camera_capture(media::FaceParams::for_identity(s.identity),
                                                 s.to_pose(), config.image_size),
                           laerte.database(), config.pipeline);
  }
  return cov.report();
}

/// The flow's Laerte configuration (examples/face_recognition_flow.cpp).
atpg::Laerte::Config flow_config() { return atpg::Laerte::Config{8, 3, 64, {}, 8}; }

}  // namespace

TEST(LaerteGrading, MatchesPerFaultFrameReference) {
  media::PipelineConfig small_window;
  small_window.edge_threshold = 40;
  small_window.window_size = 24;
  const atpg::Laerte::Config configs[] = {
      flow_config(),
      atpg::Laerte::Config{4, 2, 48, small_window, 8},
      atpg::Laerte::Config{4, 2, 64, {}, 40},
  };
  for (const auto& config : configs) {
    atpg::Laerte laerte{config};
    const atpg::Testbench benches[] = {
        laerte.random_testbench(1, 3),
        laerte.random_testbench(4, 17),
        laerte.genetic_testbench(3, 4, 2, 5),
        laerte.genetic_testbench(2, 5, 1, 29),
    };
    for (const auto& tb : benches) {
      const std::string what = "image " + std::to_string(config.image_size) + ", " +
                               std::to_string(config.faults_per_stage) + " faults/stage, " +
                               std::to_string(tb.frames.size()) + " frames";
      const auto estimate = laerte.evaluate(tb, /*grade_bit_faults=*/true);
      const auto grade = reference_grade(laerte, config, tb);
      EXPECT_EQ(estimate.bit_faults.total, grade.total) << what;
      EXPECT_EQ(estimate.bit_faults.detected, grade.detected) << what;
      const auto coverage = reference_coverage(laerte, config, tb);
      EXPECT_EQ(estimate.coverage.statement_covered, coverage.statement_covered) << what;
      EXPECT_EQ(estimate.coverage.branch_covered, coverage.branch_covered) << what;
      EXPECT_EQ(estimate.coverage.condition_covered, coverage.condition_covered) << what;
      EXPECT_EQ(estimate.fitness, coverage.overall_percent()) << what;
    }
  }
}

TEST(LaerteGrading, FlowGeneticTestbenchIsPinned) {
  // Goldens recorded with full-recompute grading and a GA that re-simulated
  // every frame of every fitness call; fault simulation and the per-call
  // stimulus memo must reproduce them exactly.
  atpg::Laerte laerte{flow_config()};
  const auto tb = laerte.genetic_testbench(5, 6, 3, 42);
  const std::vector<atpg::Stimulus> expected{
      {5, 5, 2, -12, 286, -9, 6, 0xf1a3de9febcea41cULL},
      {6, 3, 3, 0, 247, 3, 1, 0x94464c0c24234f90ULL},
      {0, -3, -2, 0, 295, -1, 3, 0xdb53e80d9dbe5105ULL},
      {1, 0, -6, -11, 287, 10, 2, 0x78782cd85fd4c46bULL},
      {0, -4, 1, 3, 259, -1, 4, 0x5951ea097b7ca467ULL},
  };
  EXPECT_TRUE(tb.frames == expected);

  const auto estimate = laerte.evaluate(tb, /*grade_bit_faults=*/true);
  EXPECT_EQ(estimate.bit_faults.detected, 25u);
  EXPECT_EQ(estimate.bit_faults.total, 48u);
  EXPECT_EQ(estimate.coverage.statement_covered, 30);
  EXPECT_EQ(estimate.coverage.statement_total, 32);
  EXPECT_EQ(estimate.coverage.branch_covered, 9);
  EXPECT_EQ(estimate.coverage.branch_total, 15);
  EXPECT_EQ(estimate.coverage.condition_covered, 7);
  EXPECT_EQ(estimate.coverage.condition_total, 12);
  EXPECT_NEAR(estimate.fitness, 77.966, 1e-3);
}

// ------------------------------------------------------------ SAT engine

TEST(SatAtpg, GeneratesTestForCombinationalFault) {
  // Adder circuit: stuck-at on an internal sum bit must be detectable.
  rtl::Netlist n{"adder"};
  const auto a = rtl::make_inputs(n, "a", 6);
  const auto b = rtl::make_inputs(n, "b", 6);
  const auto [sum, carry] = rtl::add(n, a, b);
  (void)carry;
  rtl::set_output_word(n, "s", sum);

  const auto test = atpg::sat_generate_test(n, sum.bit(2), true, 1);
  ASSERT_TRUE(test.has_value());
  ASSERT_EQ(test->frames.size(), 1u);

  // Replay the vector: good vs faulty simulation must differ.
  rtl::Simulator good{n};
  rtl::Simulator bad{n};
  bad.inject_stuck_at(sum.bit(2), true);
  for (const auto& [name, value] : test->frames[0]) {
    good.set_input(name, value);
    bad.set_input(name, value);
  }
  good.eval();
  bad.eval();
  bool differs = false;
  for (const auto& [name, net] : n.outputs()) {
    if (good.value(net) != bad.value(net)) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(SatAtpg, UndetectableFaultReturnsNullopt) {
  // A fault on a net that never influences an output is undetectable.
  rtl::Netlist n{"deadend"};
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto used = n.add_and(a, b);
  const auto unused = n.add_xor(a, b);  // not connected to any output
  (void)unused;
  n.set_output("y", used);
  EXPECT_FALSE(atpg::sat_generate_test(n, unused, true, 1).has_value());
}

TEST(SatAtpg, SequentialFaultNeedsUnrolling) {
  // DISTANCE PE: a stuck-at on the accumulator register needs >= 2 frames
  // to both excite and observe through the acc output.
  const auto n = app::build_distance_rtl(4, 8);
  const rtl::Net acc0 = n.flip_flops()[0];
  const auto test = atpg::sat_generate_test(n, acc0, true, 3);
  ASSERT_TRUE(test.has_value());
  EXPECT_GE(test->frames.size(), 1u);
}

TEST(SatAtpg, WrapperFsmFaultsDetectable) {
  const auto n = app::build_wrapper_fsm();
  int detected = 0;
  int total = 0;
  for (const rtl::Net ff : n.flip_flops()) {
    for (const bool stuck : {false, true}) {
      ++total;
      if (atpg::sat_generate_test(n, ff, stuck, 5).has_value()) ++detected;
    }
  }
  EXPECT_EQ(total, 4);
  EXPECT_GE(detected, 3);  // state bits are observable through the outputs
}

// ------------------------------------------- incremental multi-fault engine

using symbad::test::replay_detects;

TEST(SatAtpgEngine, MatchesPerFaultGenerationOnDistancePe) {
  // The incremental engine must agree fault-by-fault with the fresh-solver
  // path on detectability, and every generated test must really detect its
  // fault in simulation.
  const auto pe = app::build_distance_rtl(6, 12);
  std::vector<std::pair<rtl::Net, bool>> faults;
  for (const auto ff : pe.flip_flops()) {
    faults.emplace_back(ff, false);
    faults.emplace_back(ff, true);
  }
  atpg::SatEngine engine{pe, {3}};
  const auto results = engine.generate_tests(faults);
  ASSERT_EQ(results.size(), faults.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    EXPECT_EQ(r.net, faults[i].first);
    EXPECT_EQ(r.stuck_to, faults[i].second);
    const auto reference = atpg::sat_generate_test(pe, r.net, r.stuck_to, 3);
    EXPECT_EQ(r.test.has_value(), reference.has_value())
        << "fault net " << r.net << " stuck-at-" << r.stuck_to;
    if (r.test.has_value()) {
      EXPECT_EQ(r.test->frames.size(), 3u);
      EXPECT_TRUE(replay_detects(pe, *r.test, r.net, r.stuck_to))
          << "fault net " << r.net << " stuck-at-" << r.stuck_to;
    }
  }
}

TEST(SatAtpgEngine, SharesOneSolverAcrossFaults) {
  const auto n = app::build_wrapper_fsm();
  std::vector<std::pair<rtl::Net, bool>> faults;
  for (const rtl::Net ff : n.flip_flops()) {
    faults.emplace_back(ff, false);
    faults.emplace_back(ff, true);
  }
  atpg::SatEngine engine{n, {5}};
  const symbad::test::CountersOn counting;
  const symbad::obs::Scope cost;
  const auto results = engine.generate_tests(faults);
  int detected = 0;
  for (const auto& r : results) detected += r.test.has_value() ? 1 : 0;
  EXPECT_GE(detected, 3);
  // The per-solve registry deltas must account for every conflict the
  // engine's solver saw (generate_tests is the solver's only driver here).
  EXPECT_EQ(cost.delta("sat.conflicts"), engine.solver().statistics().conflicts);
}

TEST(SatAtpgEngine, UndetectableFaultStaysUndetectableAfterOthers) {
  // A dead-end net is provably undetectable; interleave it with detectable
  // faults to check that retired miters don't leak into later queries.
  rtl::Netlist n{"deadend2"};
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto used = n.add_and(a, b);
  const auto unused = n.add_xor(a, b);
  n.set_output("y", used);
  atpg::SatEngine engine{n, {1}};
  EXPECT_TRUE(engine.generate(used, true).has_value());
  EXPECT_FALSE(engine.generate(unused, true).has_value());
  EXPECT_TRUE(engine.generate(used, false).has_value());
  EXPECT_FALSE(engine.generate(unused, false).has_value());
}

TEST(SatAtpgEngine, RejectsFaultNetsOutsideTheNetlist) {
  const auto pe = app::build_distance_rtl(4, 8);
  atpg::SatEngine engine{pe, {3}};
  EXPECT_THROW((void)engine.generate(-1, true), std::out_of_range);
  EXPECT_THROW((void)engine.generate(static_cast<rtl::Net>(pe.gate_count()), true),
               std::out_of_range);
  EXPECT_THROW((void)engine.generate(100000, false), std::out_of_range);
  // The rejected calls left the shared solver usable.
  EXPECT_TRUE(engine.generate(pe.flip_flops()[0], true).has_value());
}

TEST(SatAtpgEngine, RejectsUnrollsBelowOneFrame) {
  const auto n = app::build_wrapper_fsm();
  for (const int unroll : {0, -1}) {
    EXPECT_THROW((atpg::SatEngine{n, {unroll}}), std::invalid_argument) << unroll;
    EXPECT_THROW((void)atpg::sat_generate_test(n, n.flip_flops()[0], true, unroll),
                 std::invalid_argument)
        << unroll;
  }
}

TEST(SatAtpgEngine, UndetectablePeFaultsNeedNoSearch) {
  // Within 3 frames the PE's accumulator stays <= 510, so acc[9..15] and
  // the overflow flag never leave 0: their stuck-at-0 faults change no
  // output literal of the faulty copy, and the engine answers them without
  // a solve.
  const auto pe = app::build_distance_rtl(8, 16);
  atpg::SatEngine engine{pe, {3}};
  const symbad::test::CountersOn counting;
  int faults = 0;
  int detectable = 0;
  int undetectable = 0;
  for (const rtl::Net ff : pe.flip_flops()) {
    for (const bool stuck : {false, true}) {
      const symbad::obs::Scope cost;
      const auto test = engine.generate(ff, stuck);
      ++faults;
      if (test.has_value()) {
        ++detectable;
        EXPECT_TRUE(replay_detects(pe, *test, ff, stuck)) << pe.net_name(ff);
      } else {
        ++undetectable;
        EXPECT_FALSE(stuck) << pe.net_name(ff);
        EXPECT_EQ(cost.delta("sat.conflicts"), 0u) << pe.net_name(ff);
        EXPECT_EQ(cost.delta("sat.solves"), 0u) << pe.net_name(ff);
      }
    }
  }
  EXPECT_EQ(faults, 34);
  EXPECT_EQ(detectable, 26);
  EXPECT_EQ(undetectable, 8);
}

// ------------------------------------------ exhaustive-simulation oracle

TEST(SatAtpgOracle, VerdictsMatchExhaustiveSimulation) {
  // Random netlists with redundancy > 0 contain x&x, x&~x and equal-arm
  // muxes next to constants, so every fold rule of the encoder fires, on
  // the good copy and inside fault cones alike. Every stuck-at fault on
  // every net: inputs, constants, gates and flip-flops.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto rng = symbad::test::rng(0xA7E0 + seed);
    const auto n = gen::random_netlist(rng, {4, 3, 40, 3, 0.3},
                                       "oracle" + std::to_string(seed));
    const auto faults = symbad::test::all_stuck_at_faults(n);
    for (const int unroll : {1, 2, 3}) {
      atpg::SatEngine engine{n, {unroll}};
      symbad::test::expect_matches_oracle(n, unroll, engine.generate_tests(faults), n.name());
    }
  }
  // The PE at 2-bit data: within 3 frames the accumulator stays <= 6, so
  // acc[3] stuck-at-0 cannot be excited (the shape of the 8-bit PE's
  // acc[9..15] faults), while stuck-at-1 shows on the acc output at once.
  const auto pe = app::build_distance_rtl(2, 4);
  const rtl::Net acc3 = pe.flip_flops()[3];
  const std::vector<std::pair<rtl::Net, bool>> acc3_faults{{acc3, false}, {acc3, true}};
  EXPECT_EQ(symbad::test::exhaustive_detectable(pe, acc3_faults, 3),
            (std::vector<bool>{false, true}));
  atpg::SatEngine engine{pe, {3}};
  symbad::test::expect_matches_oracle(
      pe, 3, engine.generate_tests(symbad::test::all_stuck_at_faults(pe)), pe.name());
}

TEST(SatAtpgOracle, SharedAndPerFaultEnginesMatchTheOracle) {
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
