// Tests for the verification support library (src/verif): coverage
// accounting (coverage.cpp), the bit fault model (fault.hpp) and the
// deterministic RNG (rng.hpp) that every stochastic component relies on.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "app/face_system.hpp"
#include "core/system_model.hpp"
#include "gen/gen.hpp"
#include "gen/runtime.hpp"
#include "media/database.hpp"
#include "support/test_util.hpp"
#include "verif/coverage.hpp"
#include "verif/fault.hpp"
#include "verif/rng.hpp"

namespace gen = symbad::gen;
namespace verif = symbad::verif;

// ------------------------------------------------------------- coverage

TEST(Coverage, UnexecutedPointsCountAgainstCoverage) {
  verif::CoverageDb db;
  auto& m = db.module("dut");
  m.declare_statements(4);
  m.declare_branches(2);
  m.declare_conditions(1);

  // Nothing executed yet: totals visible, nothing covered.
  auto r = db.report();
  EXPECT_EQ(r.statement_total, 4);
  EXPECT_EQ(r.branch_total, 2);
  EXPECT_EQ(r.condition_total, 1);
  EXPECT_EQ(r.statement_covered, 0);
  EXPECT_DOUBLE_EQ(r.statement_percent(), 0.0);
  EXPECT_DOUBLE_EQ(r.overall_percent(), 0.0);
}

TEST(Coverage, BranchesAndConditionsNeedBothOutcomes) {
  verif::CovModule m{"dut"};
  m.declare_branches(2);
  m.declare_conditions(1);

  m.branch(0, true);
  EXPECT_EQ(m.branches_covered(), 0);  // not-taken outcome still missing
  m.branch(0, false);
  EXPECT_EQ(m.branches_covered(), 1);
  m.branch(1, false);
  EXPECT_EQ(m.branches_covered(), 1);  // branch 1 only seen one way

  EXPECT_FALSE(m.condition(0, false));
  EXPECT_EQ(m.conditions_covered(), 0);
  EXPECT_TRUE(m.condition(0, true));
  EXPECT_EQ(m.conditions_covered(), 1);
}

TEST(Coverage, StatementHitsAccumulateAndReset) {
  verif::CovModule m{"dut"};
  m.declare_statements(2);
  m.statement(0);
  m.statement(0);
  EXPECT_EQ(m.statement_hits(0), 2u);
  EXPECT_EQ(m.statement_hits(1), 0u);
  EXPECT_EQ(m.statements_covered(), 1);

  m.reset_hits();
  EXPECT_EQ(m.statement_hits(0), 0u);
  EXPECT_EQ(m.statements_covered(), 0);
  EXPECT_EQ(m.statement_points(), 2);  // declarations survive a reset

  EXPECT_THROW((void)m.statement_hits(5), std::out_of_range);
}

TEST(Coverage, OutOfRangeHitsAreIgnoredNotFatal) {
  verif::CovModule m{"dut"};
  m.declare_statements(1);
  m.statement(-1);
  m.statement(7);
  m.branch(0, true);     // no branches declared
  m.condition(3, true);  // no conditions declared
  EXPECT_EQ(m.statements_covered(), 0);
  EXPECT_EQ(m.branches_covered(), 0);
  EXPECT_EQ(m.conditions_covered(), 0);
}

TEST(Coverage, ReportAggregatesAcrossModules) {
  verif::CoverageDb db;
  auto& a = db.module("a");
  a.declare_statements(2);
  a.statement(0);
  a.statement(1);
  auto& b = db.module("b");
  b.declare_statements(2);
  b.statement(0);

  EXPECT_EQ(&db.module("a"), &a);  // stable handles
  const auto r = db.report();
  EXPECT_EQ(r.statement_total, 4);
  EXPECT_EQ(r.statement_covered, 3);
  EXPECT_DOUBLE_EQ(r.statement_percent(), 75.0);

  db.reset_hits();
  EXPECT_EQ(db.report().statement_covered, 0);
  EXPECT_EQ(db.report().statement_total, 4);
}

TEST(Coverage, EmptyReportIsVacuouslyComplete) {
  verif::CoverageDb db;
  EXPECT_DOUBLE_EQ(db.report().overall_percent(), 100.0);
  EXPECT_DOUBLE_EQ(db.report().statement_percent(), 100.0);
}

TEST(Coverage, ActiveDatabaseScopesNestAndRestore) {
  EXPECT_EQ(verif::CoverageDb::active(), nullptr);
  EXPECT_EQ(verif::CoverageDb::active_module("m"), nullptr);

  verif::CoverageDb outer;
  {
    verif::CoverageDb::Scope outer_scope{outer};
    EXPECT_EQ(verif::CoverageDb::active(), &outer);
    verif::CoverageDb inner;
    {
      verif::CoverageDb::Scope inner_scope{inner};
      EXPECT_EQ(verif::CoverageDb::active(), &inner);
      ASSERT_NE(verif::CoverageDb::active_module("m"), nullptr);
    }
    EXPECT_EQ(verif::CoverageDb::active(), &outer);
  }
  EXPECT_EQ(verif::CoverageDb::active(), nullptr);
}

TEST(Coverage, NullHandleWrappersAreTransparent) {
  EXPECT_TRUE(verif::cov_branch(nullptr, 0, true));
  EXPECT_FALSE(verif::cov_cond(nullptr, 0, false));
  verif::cov_stmt(nullptr, 0);  // must not crash

  verif::CovModule m{"dut"};
  m.declare_statements(1);
  m.declare_branches(1);
  m.declare_conditions(1);
  verif::cov_stmt(&m, 0);
  EXPECT_FALSE(verif::cov_branch(&m, 0, false));
  EXPECT_TRUE(verif::cov_cond(&m, 0, true));
  EXPECT_EQ(m.statements_covered(), 1);
}

TEST(Coverage, BulkAddsEqualSingleHits) {
  // A kernel that tallies a call in locals adds each count once; the
  // module must end exactly as if every hit had been recorded singly.
  verif::CovModule single{"dut"};
  verif::CovModule bulk{"dut"};
  for (auto* m : {&single, &bulk}) {
    m->declare_statements(3);
    m->declare_branches(2);
    m->declare_conditions(2);
  }
  for (int i = 0; i < 5; ++i) single.statement(0);
  for (int i = 0; i < 2; ++i) single.statement(2);
  for (int i = 0; i < 3; ++i) single.branch(1, true);
  for (int i = 0; i < 4; ++i) single.branch(1, false);
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(single.condition(0, true));
  bulk.add_statement(0, 5);
  bulk.add_statement(2, 2);
  bulk.add_branch(1, 3, 4);
  bulk.add_condition(0, 6, 0);
  EXPECT_TRUE(bulk == single);
  EXPECT_EQ(bulk.statement_hits(0), 5u);
  EXPECT_EQ(bulk.branches_covered(), 1);
  EXPECT_EQ(bulk.conditions_covered(), 0);  // false outcome never added

  // Zero adds change nothing; one more hit anywhere breaks the equality.
  bulk.add_statement(1, 0);
  bulk.add_branch(0, 0, 0);
  EXPECT_TRUE(bulk == single);
  bulk.add_condition(1, 0, 1);
  EXPECT_FALSE(bulk == single);
}

TEST(Coverage, BulkAddsIgnoreUndeclaredIds) {
  verif::CovModule m{"dut"};
  m.declare_statements(1);
  m.declare_branches(1);
  m.declare_conditions(1);
  const verif::CovModule untouched = m;
  m.add_statement(-1, 4);
  m.add_statement(1, 4);
  m.add_branch(-3, 1, 1);
  m.add_branch(1, 2, 2);
  m.add_condition(-1, 1, 1);
  m.add_condition(7, 5, 5);
  EXPECT_TRUE(m == untouched);
  EXPECT_EQ(m.statement_points(), 1);  // a bulk add never declares
}

TEST(Coverage, ModuleEqualityComparesHitCountsNotCoveredSets) {
  verif::CovModule a{"dut"};
  verif::CovModule b{"dut"};
  for (auto* m : {&a, &b}) {
    m->declare_statements(1);
    m->declare_branches(1);
    m->statement(0);
    m->branch(0, true);
    m->branch(0, false);
  }
  EXPECT_TRUE(a == b);
  b.branch(0, true);  // same covered points, one more hit
  EXPECT_EQ(a.branches_covered(), b.branches_covered());
  EXPECT_FALSE(a == b);
  a.branch(0, true);
  EXPECT_TRUE(a == b);

  verif::CovModule renamed{"other"};
  renamed.merge_from(a);
  EXPECT_FALSE(renamed == a);  // the name is part of the module
  verif::CovModule wider = a;
  wider.declare_conditions(1);  // an unexecuted point still counts
  EXPECT_FALSE(wider == a);
}

TEST(Coverage, PointKindNamesAreStable) {
  EXPECT_STREQ(verif::to_string(verif::PointKind::statement), "statement");
  EXPECT_STREQ(verif::to_string(verif::PointKind::branch), "branch");
  EXPECT_STREQ(verif::to_string(verif::PointKind::condition), "condition");
}

// ------------------------------------------------------------ bit faults

TEST(Fault, ApplyTargetsOnlyItsWordAndBit) {
  const verif::BitFault sa1{"stage", verif::PortDirection::output, 2, 3, true};
  EXPECT_EQ(verif::apply_bit_fault(0x00u, 2, sa1), 0x08u);
  EXPECT_EQ(verif::apply_bit_fault(0xFFu, 2, sa1), 0xFFu);
  EXPECT_EQ(verif::apply_bit_fault(0x00u, 1, sa1), 0x00u);  // other word

  const verif::BitFault sa0{"stage", verif::PortDirection::output, 0, 0, false};
  EXPECT_EQ(verif::apply_bit_fault(0xFFu, 0, sa0), 0xFEu);
  EXPECT_EQ(verif::apply_bit_fault(0xFEu, 0, sa0), 0xFEu);
}

TEST(Fault, EnumerationIsCompleteAndDistinct) {
  const auto faults =
      verif::enumerate_port_faults("s", verif::PortDirection::input, 3, 4);
  EXPECT_EQ(faults.size(), 3u * 4u * 2u);
  std::set<std::string> names;
  for (const auto& f : faults) names.insert(f.to_string());
  EXPECT_EQ(names.size(), faults.size());  // all distinct
  EXPECT_EQ(faults.front().to_string(), "s.in[0]:0/SA0");
  EXPECT_EQ(faults.back().to_string(), "s.in[2]:3/SA1");
}

TEST(Fault, EnumerationRejectsBitsOutsideAPortWord) {
  // A port word has at most 32 bits, and a fault's patch shifts by its bit.
  using verif::PortDirection;
  EXPECT_THROW((void)verif::enumerate_port_faults("s", PortDirection::output, 2, 33),
               std::invalid_argument);
  EXPECT_THROW((void)verif::enumerate_port_faults("s", PortDirection::output, 2, 40),
               std::invalid_argument);
  EXPECT_THROW((void)verif::enumerate_port_faults("s", PortDirection::output, 2, -1),
               std::invalid_argument);
  EXPECT_TRUE(verif::enumerate_port_faults("s", PortDirection::output, 2, 0).empty());
  const auto full = verif::enumerate_port_faults("s", PortDirection::output, 1, 32);
  ASSERT_EQ(full.size(), 64u);
  EXPECT_EQ(full.back().bit, 31);
  EXPECT_EQ(verif::apply_bit_fault(0u, 0, full.back()), 0x80000000u);
}

TEST(Fault, GradePercentHandlesEmptyList) {
  verif::FaultGrade none;
  EXPECT_DOUBLE_EQ(none.percent(), 100.0);
  verif::FaultGrade half{10, 5};
  EXPECT_DOUBLE_EQ(half.percent(), 50.0);
}

TEST(Fault, InjectionCampaignIsDeterministicUnderFixedSeed) {
  // The ATPG's fault grading depends on (fault pick, stimulus) pairs drawn
  // from the shared RNG; a fixed seed must give a bit-identical campaign.
  const auto faults =
      verif::enumerate_port_faults("dut", verif::PortDirection::output, 4, 8);
  const auto campaign = [&faults](std::uint64_t seed) {
    verif::Rng rng{seed};
    std::uint64_t fingerprint = 1469598103934665603ULL;
    verif::FaultGrade grade;
    for (int trial = 0; trial < 200; ++trial) {
      const auto& fault = faults[rng.below(faults.size())];
      const auto value = static_cast<std::uint32_t>(rng.next());
      const int word = static_cast<int>(rng.below(4));
      const auto faulty = verif::apply_bit_fault(value, word, fault);
      ++grade.total;
      if (faulty != value) ++grade.detected;
      fingerprint ^= faulty + 0x9E3779B97F4A7C15ULL + (fingerprint << 6);
    }
    return std::pair<std::uint64_t, std::size_t>{fingerprint, grade.detected};
  };

  const auto a = campaign(42);
  const auto b = campaign(42);
  EXPECT_EQ(a, b);
  // ...and the seed genuinely matters (different stream, different picks).
  const auto c = campaign(43);
  EXPECT_NE(a.first, c.first);
}

TEST(Fault, RngStreamsAreCrossPlatformPinned) {
  // Golden values: SplitMix64 output must never drift across platforms or
  // refactors — every deterministic campaign in the repo depends on it.
  verif::Rng rng{0};
  EXPECT_EQ(rng.next(), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(rng.next(), 0x6E789E6AA1B965F4ULL);
  verif::Rng forked = verif::Rng{0}.fork(1);
  EXPECT_NE(forked.next(), verif::Rng{0}.next());
}

TEST(Rng, AtMatchesSequentialNextWithoutAdvancing) {
  // at(k) is the value the (k+1)-th next() returns; reading it leaves the
  // stream where it was (k = 0 is the next value).
  const verif::Rng origin{0x9CC5EEDULL};
  verif::Rng walk = origin;
  for (std::uint64_t k = 0; k < 1000; ++k) ASSERT_EQ(origin.at(k), walk.next()) << k;
  verif::Rng probe = origin;
  const std::uint64_t peeked = probe.at(0);
  EXPECT_EQ(probe.at(0), peeked);
  EXPECT_EQ(probe.next(), peeked);
  EXPECT_EQ(probe.at(0), origin.at(1));
}

TEST(Rng, AtAndDiscardJumpPast32Bits) {
  // An offset above 2^32 must not truncate. k sequential next() calls move
  // the SplitMix64 state by k gammas (mod 2^64), so a generator seeded k
  // gammas ahead continues the sequential walk from offset k.
  constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ULL;
  constexpr std::uint64_t k = (std::uint64_t{1} << 32) + 12345;
  constexpr std::uint64_t seed = 7;
  verif::Rng ahead{seed + k * kGamma};
  verif::Rng jumped{seed};
  jumped.discard(k);
  const verif::Rng origin{seed};
  for (std::uint64_t i = 0; i < 100; ++i) {
    const std::uint64_t expected = ahead.next();
    EXPECT_EQ(origin.at(k + i), expected) << i;
    EXPECT_EQ(jumped.next(), expected) << i;
  }
  EXPECT_EQ(verif::Rng{0}.at(k), 0xF90E66B458EFE888ULL);  // cross-platform golden
}

TEST(Rng, DiscardZeroIsANoOpAndDiscardMatchesNext) {
  verif::Rng a{42};
  verif::Rng b{42};
  a.discard(0);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a.next(), b.next()) << i;
  verif::Rng skipped{42};
  skipped.discard(5);
  verif::Rng walked{42};
  for (int i = 0; i < 5; ++i) (void)walked.next();
  EXPECT_EQ(skipped.next(), walked.next());
}

// ---------------------------------------------------------- tmp-dir use

class CoverageArtifacts : public symbad::test::TmpDirTest {};

TEST_F(CoverageArtifacts, ReportRoundTripsThroughScratchFile) {
  verif::CoverageDb db;
  auto& m = db.module("pipeline");
  m.declare_statements(3);
  m.statement(0);
  m.statement(2);

  const auto r = db.report();
  const auto path = tmp_dir() / "coverage.txt";
  {
    std::ofstream out{path};
    out << r.statement_covered << "/" << r.statement_total << "\n";
  }
  std::ifstream in{path};
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "2/3");
}

// ----------------------------------------- end-to-end kernel coverage

// The production media kernels declare statement/branch/condition points
// (Laerte++-style); the level-2/3 stage execution path fetches its module
// handle from the active database. Running the executable platform model
// under a coverage scope must therefore light up the pipeline end-to-end —
// no test-only shims involved.
TEST(Coverage, Level2SimulationCoversMediaKernelsEndToEnd) {
  const auto db = symbad::media::FaceDatabase::enroll(3, 2);
  auto graph = symbad::app::face_task_graph(db);
  const auto profile = symbad::app::profile_reference(db, 2);
  symbad::app::annotate_from_profile(graph, profile, 2);

  verif::CoverageDb cov;
  {
    verif::CoverageDb::Scope scope{cov};
    symbad::app::FaceStageRuntime runtime{db};
    symbad::core::SystemModel level2{graph,
                                     symbad::app::paper_level2_partition(graph),
                                     runtime,
                                     {},
                                     symbad::core::ModelLevel::timed_platform};
    const auto report = level2.run(2);
    ASSERT_GT(report.frames_per_second, 0.0);
  }

  const auto r = cov.report();
  EXPECT_GT(r.statement_total, 0);
  EXPECT_GT(r.statement_covered, 0);
  EXPECT_GT(r.branch_total, 0);
  EXPECT_GT(r.branch_covered, 0);
  EXPECT_GT(r.overall_percent(), 0.0);
  // Every instrumented pipeline stage the graph executes shows hits.
  for (const char* stage : {"BAY", "EROSION", "ROOT", "EDGE", "DISTANCE"}) {
    ASSERT_TRUE(cov.modules().contains(stage)) << stage;
    EXPECT_GT(cov.modules().at(stage).statements_covered(), 0) << stage;
  }
}

TEST(Coverage, MergeAccumulatesHitsAndUnionsDeclarations) {
  verif::CoverageDb a;
  auto& ma = a.module("dut");
  ma.declare_statements(2);
  ma.declare_branches(1);
  ma.statement(0);
  ma.branch(0, true);

  verif::CoverageDb b;
  auto& mb = b.module("dut");
  mb.declare_statements(3);  // wider declaration wins
  mb.declare_branches(1);
  mb.statement(0);
  mb.statement(2);
  mb.branch(0, false);
  auto& other = b.module("other");
  other.declare_statements(1);
  other.statement(0);

  a.merge_from(b);
  const auto& merged = a.modules().at("dut");
  EXPECT_EQ(merged.statement_points(), 3);
  EXPECT_EQ(merged.statement_hits(0), 2u);  // hits sum across databases
  EXPECT_EQ(merged.statement_hits(2), 1u);
  EXPECT_EQ(merged.statements_covered(), 2);
  // Branch covered only after the merge supplied both outcomes.
  EXPECT_EQ(merged.branches_covered(), 1);
  EXPECT_TRUE(a.modules().contains("other"));
  EXPECT_EQ(a.report().statement_total, 4);
}

TEST(Coverage, GeneratedPlatformCoverageIsIndependentOfMergeSplit) {
  // The campaign merge contract on generated workloads: two generated
  // platforms instrumented into one shared database must report exactly
  // what two per-worker databases merged after the fact report — the
  // split across workers is invisible.
  const gen::SweepConfig cfg;
  const auto p0 = gen::generate_platform(cfg.seed_at(0), gen::SizeTier::small);
  const auto p1 = gen::generate_platform(cfg.seed_at(1), gen::SizeTier::medium);

  const auto simulate = [](const gen::GeneratedPlatform& p) {
    gen::SyntheticRuntime runtime{p.graph, p.seed};
    symbad::core::SystemModel level1{p.graph, p.partition, runtime, p.params,
                                     symbad::core::ModelLevel::untimed_functional};
    (void)level1.run(3);
  };

  verif::CoverageDb shared;
  {
    verif::CoverageDb::Scope scope{shared};
    simulate(p0);
    simulate(p1);
  }

  verif::CoverageDb worker0;
  {
    verif::CoverageDb::Scope scope{worker0};
    simulate(p0);
  }
  verif::CoverageDb worker1;
  {
    verif::CoverageDb::Scope scope{worker1};
    simulate(p1);
  }
  worker0.merge_from(worker1);

  const auto want = shared.report();
  const auto got = worker0.report();
  EXPECT_GT(want.statement_total, 0);
  EXPECT_EQ(got.statement_total, want.statement_total);
  EXPECT_EQ(got.statement_covered, want.statement_covered);
  EXPECT_EQ(got.branch_total, want.branch_total);
  EXPECT_EQ(got.branch_covered, want.branch_covered);
  // Hit counts, not just covered-point counts, must match per statement.
  const auto& a_mod = shared.modules().at("gen.synthetic");
  const auto& b_mod = worker0.modules().at("gen.synthetic");
  ASSERT_EQ(a_mod.statement_points(), b_mod.statement_points());
  for (int i = 0; i < a_mod.statement_points(); ++i) {
    EXPECT_EQ(a_mod.statement_hits(i), b_mod.statement_hits(i)) << i;
  }
}
