// Tests for the scenario-campaign execution engine (src/exec): determinism
// across worker counts, cross-level agreement through campaign verdicts,
// exception propagation out of the worker pool, coverage aggregation, and
// the explorer's simulation-backed grading bridge.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/face_system.hpp"
#include "core/explorer.hpp"
#include "exec/campaign.hpp"
#include "exec/scenario.hpp"
#include "gen/gen.hpp"
#include "media/database.hpp"
#include "support/test_util.hpp"

namespace app = symbad::app;
namespace core = symbad::core;
namespace exec = symbad::exec;
namespace gen = symbad::gen;
namespace media = symbad::media;

namespace {

struct Fixture {
  media::FaceDatabase db = media::FaceDatabase::enroll(4, 2);
  core::TaskGraph graph = app::face_task_graph(db);

  Fixture() {
    const auto profile = app::profile_reference(db, 2);
    app::annotate_from_profile(graph, profile, 2);
  }

  [[nodiscard]] exec::CampaignRunner::RuntimeFactory factory() const {
    const media::FaceDatabase* database = &db;
    return [database](const exec::Scenario&) {
      return std::make_unique<app::FaceStageRuntime>(*database);
    };
  }
};

Fixture& fixture() { return symbad::test::shared_fixture<Fixture>(); }

/// A random but well-formed partition (sources/sinks pinned to software).
core::Partition random_partition(const core::TaskGraph& graph, unsigned seed) {
  auto rng = symbad::test::rng(seed);
  core::Partition p = core::Partition::all_software(graph);
  for (const auto& node : graph.tasks()) {
    if (node.name == "CAMERA" || node.name == "DATABASE" || node.name == "WINNER") {
      continue;
    }
    switch (rng.below(3)) {
      case 0: break;
      case 1: p.bind_hardware(node.name); break;
      default:
        p.bind_fpga(node.name, rng.chance(0.5) ? "config1" : "config2");
        break;
    }
  }
  return p;
}

std::vector<exec::Scenario> seeded_sweep(const Fixture& fx, int seeds) {
  std::vector<exec::Scenario> scenarios;
  for (int s = 0; s < seeds; ++s) {
    auto group = exec::cross_level_scenarios(
        "seed" + std::to_string(s), fx.graph,
        random_partition(fx.graph, static_cast<unsigned>(s) + 100u), {},
        /*frames=*/2);
    scenarios.insert(scenarios.end(), std::make_move_iterator(group.begin()),
                     std::make_move_iterator(group.end()));
  }
  return scenarios;
}

}  // namespace

// ----------------------------------------------------------- determinism

TEST(Campaign, TracesAreByteIdenticalAtAnyWorkerCount) {
  auto& fx = fixture();
  const auto scenarios = seeded_sweep(fx, 4);

  std::vector<std::vector<std::uint64_t>> fingerprints;
  for (const int workers : {1, 2, 4, 8, 0}) {  // 0 exercises env/default resolution
    exec::CampaignRunner::Options options;
    options.workers = workers;
    exec::CampaignRunner runner{fx.factory(), options};
    const auto report = runner.run(scenarios);
    ASSERT_EQ(report.results.size(), scenarios.size());
    ASSERT_EQ(report.failures(), 0u) << report.to_string();
    std::vector<std::uint64_t> fp;
    for (const auto& r : report.results) fp.push_back(r.report.trace.fingerprint());
    fingerprints.push_back(std::move(fp));
  }
  for (std::size_t i = 1; i < fingerprints.size(); ++i) {
    EXPECT_EQ(fingerprints[0], fingerprints[i]) << "worker-count run " << i;
  }
}

TEST(Campaign, ResultsKeepSubmissionOrderAndMetadata) {
  auto& fx = fixture();
  const auto scenarios = seeded_sweep(fx, 2);
  exec::CampaignRunner::Options options;
  options.workers = 3;
  exec::CampaignRunner runner{fx.factory(), options};
  const auto report = runner.run(scenarios);
  ASSERT_EQ(report.results.size(), scenarios.size());
  EXPECT_EQ(report.workers, 3);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(report.results[i].index, i);
    EXPECT_EQ(report.results[i].name, scenarios[i].name);
    EXPECT_EQ(report.results[i].group, scenarios[i].group);
    EXPECT_EQ(report.results[i].level, exec::level_number(scenarios[i].level));
  }
}

// ---------------------------------------------------- cross-level sweeps

TEST(Campaign, CrossLevelAgreementVerdictsAcrossEightSeeds) {
  auto& fx = fixture();
  const auto scenarios = seeded_sweep(fx, 8);  // 8 seeds x levels 1/2/3
  exec::CampaignRunner::Options options;
  options.workers = 4;
  exec::CampaignRunner runner{fx.factory(), options};
  const auto report = runner.run(scenarios);

  ASSERT_EQ(report.failures(), 0u) << report.to_string();
  // Two adjacent-level checks (L1-L2, L2-L3) per seed group.
  ASSERT_EQ(report.agreements.size(), 16u);
  for (const auto& v : report.agreements) {
    EXPECT_TRUE(v.agree) << v.group << ": L" << v.lower_level << " vs L"
                         << v.higher_level << ": " << v.detail;
    EXPECT_LT(v.lower_level, v.higher_level);
  }
  EXPECT_TRUE(report.clean());
  EXPECT_NE(report.to_string().find("all levels agree"), std::string::npos);
}

TEST(Campaign, GeneratedPlatformsExtendTheCrossLevelSweep) {
  // The agreement machinery on platforms nobody hand-picked: one generated
  // design point per size tier, all three levels, at two worker counts —
  // every adjacent-level pair agrees and the traces are worker-invariant,
  // exactly as on the face-recognition sweep above.
  const gen::SweepConfig cfg;
  const gen::SizeTier tiers[] = {gen::SizeTier::small, gen::SizeTier::medium,
                                 gen::SizeTier::large};
  std::vector<exec::Scenario> scenarios;
  for (int i = 0; i < 3; ++i) {
    const auto platform = gen::generate_platform(cfg.seed_at(i), tiers[i]);
    auto group = gen::cross_level_scenarios_for(platform, /*frames=*/3);
    scenarios.insert(scenarios.end(), std::make_move_iterator(group.begin()),
                     std::make_move_iterator(group.end()));
  }
  ASSERT_EQ(scenarios.size(), 9u);

  std::vector<std::vector<std::uint64_t>> fingerprints;
  for (const int workers : {1, 3}) {
    exec::CampaignRunner::Options options;
    options.workers = workers;
    exec::CampaignRunner runner{gen::synthetic_runtime_factory(), options};
    const auto report = runner.run(scenarios);
    ASSERT_EQ(report.failures(), 0u) << report.to_string();
    ASSERT_EQ(report.agreements.size(), 6u);
    for (const auto& v : report.agreements) {
      EXPECT_TRUE(v.agree) << v.group << ": L" << v.lower_level << " vs L"
                           << v.higher_level << ": " << v.detail;
    }
    std::vector<std::uint64_t> fp;
    for (const auto& r : report.results) fp.push_back(r.report.trace.fingerprint());
    fingerprints.push_back(std::move(fp));
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
}

TEST(Campaign, DisagreementIsDetectedAndExplained) {
  auto& fx = fixture();
  // Same group, but level 2 simulates an extra frame: per-channel value
  // sequences differ in length, so the verdict must flag it.
  auto scenarios = exec::cross_level_scenarios(
      "tampered", fx.graph, core::Partition::all_software(fx.graph), {},
      /*frames=*/2,
      {core::ModelLevel::untimed_functional, core::ModelLevel::timed_platform});
  scenarios[1].frames = 3;
  exec::CampaignRunner runner{fx.factory()};
  const auto report = runner.run(scenarios);
  ASSERT_EQ(report.agreements.size(), 1u);
  EXPECT_FALSE(report.agreements[0].agree);
  EXPECT_FALSE(report.agreements[0].detail.empty());
  EXPECT_FALSE(report.clean());
}

// ------------------------------------------------------------ exceptions

TEST(Campaign, WorkerExceptionIsRecordedPerScenario) {
  auto& fx = fixture();
  auto scenarios = seeded_sweep(fx, 2);
  scenarios[1].seed = 0xDEAD;  // poison one scenario
  const media::FaceDatabase* db = &fx.db;
  exec::CampaignRunner::Options options;
  options.workers = 2;
  exec::CampaignRunner runner{
      [db](const exec::Scenario& s) -> std::unique_ptr<core::StageRuntime> {
        if (s.seed == 0xDEAD) throw std::runtime_error{"poisoned scenario"};
        return std::make_unique<app::FaceStageRuntime>(*db);
      },
      options};
  const auto report = runner.run(scenarios);
  ASSERT_EQ(report.results.size(), scenarios.size());
  EXPECT_EQ(report.failures(), 1u);
  EXPECT_FALSE(report.results[1].ok);
  EXPECT_NE(report.results[1].error.find("poisoned scenario"), std::string::npos);
  // The poisoned scenario's group can no longer certify agreement.
  bool poisoned_group_flagged = false;
  for (const auto& v : report.agreements) {
    if (v.group == report.results[1].group && !v.agree) poisoned_group_flagged = true;
  }
  EXPECT_TRUE(poisoned_group_flagged);
  EXPECT_FALSE(report.clean());
  // Healthy scenarios still completed.
  EXPECT_TRUE(report.results[0].ok);
}

TEST(Campaign, WorkerExceptionPropagatesWhenRequested) {
  auto& fx = fixture();
  auto scenarios = seeded_sweep(fx, 2);
  scenarios[0].seed = 0xDEAD;
  const media::FaceDatabase* db = &fx.db;
  exec::CampaignRunner::Options options;
  options.workers = 4;
  options.rethrow_errors = true;
  exec::CampaignRunner runner{
      [db](const exec::Scenario& s) -> std::unique_ptr<core::StageRuntime> {
        if (s.seed == 0xDEAD) throw std::runtime_error{"boom in worker"};
        return std::make_unique<app::FaceStageRuntime>(*db);
      },
      options};
  try {
    (void)runner.run(scenarios);
    FAIL() << "expected the worker exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom in worker");
  }
}

TEST(Campaign, NullRuntimeFromFactoryIsAScenarioFailure) {
  auto& fx = fixture();
  auto scenarios = seeded_sweep(fx, 1);
  exec::CampaignRunner runner{
      [](const exec::Scenario&) -> std::unique_ptr<core::StageRuntime> {
        return nullptr;
      }};
  const auto report = runner.run(scenarios);
  EXPECT_EQ(report.failures(), scenarios.size());
  EXPECT_NE(report.results[0].error.find("null"), std::string::npos);
}

// ------------------------------------------------------------ edge cases

TEST(Campaign, EmptyCampaignIsCleanAndCheap) {
  auto& fx = fixture();
  exec::CampaignRunner runner{fx.factory()};
  const auto report = runner.run({});
  EXPECT_TRUE(report.results.empty());
  EXPECT_TRUE(report.agreements.empty());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.failures(), 0u);
  EXPECT_EQ(report.scenarios_per_second, 0.0);
  EXPECT_GE(report.workers, 1);
}

TEST(Campaign, ConstructorRejectsBadArguments) {
  auto& fx = fixture();
  EXPECT_THROW(exec::CampaignRunner{exec::CampaignRunner::RuntimeFactory{}},
               std::invalid_argument);
  exec::CampaignRunner::Options negative;
  negative.workers = -2;
  EXPECT_THROW((exec::CampaignRunner{fx.factory(), negative}),
               std::invalid_argument);
  EXPECT_THROW(exec::cross_level_scenarios("", fx.graph,
                                           core::Partition::all_software(fx.graph),
                                           {}, 2),
               std::invalid_argument);
}

TEST(Campaign, ResolveWorkersClampsAndHonoursExplicitRequest) {
  EXPECT_EQ(exec::CampaignRunner::resolve_workers(3), 3);
  EXPECT_EQ(exec::CampaignRunner::resolve_workers(1000), 64);
  EXPECT_GE(exec::CampaignRunner::resolve_workers(0), 1);
}

TEST(Campaign, ResolveWorkersParsesEnvironmentStrictly) {
  // Campaign-level integration of the shared strict parser: the worker
  // knob is honoured, an explicit request bypasses the environment, and
  // garbage fails loudly instead of silently falling back to hardware
  // concurrency. The exhaustive reject/accept matrix lives with the
  // parser itself (core::parse_env_int, tests/test_core.cpp).
  // Restores SYMBAD_CAMPAIGN_WORKERS on exit (CI sets it for the ASan
  // pass; the values below must not leak into sibling tests).
  const symbad::test::EnvGuard guard{"SYMBAD_CAMPAIGN_WORKERS", nullptr};

  ::setenv("SYMBAD_CAMPAIGN_WORKERS", "3", 1);
  EXPECT_EQ(exec::CampaignRunner::resolve_workers(0), 3);
  ::setenv("SYMBAD_CAMPAIGN_WORKERS", "64", 1);
  EXPECT_EQ(exec::CampaignRunner::resolve_workers(0), 64);

  // An explicit request bypasses the environment entirely.
  ::setenv("SYMBAD_CAMPAIGN_WORKERS", "abc", 1);
  EXPECT_EQ(exec::CampaignRunner::resolve_workers(2), 2);

  // Out-of-range and non-numeric values throw (shared strict parser).
  EXPECT_THROW((void)exec::CampaignRunner::resolve_workers(0), std::invalid_argument);
  ::setenv("SYMBAD_CAMPAIGN_WORKERS", "65", 1);
  EXPECT_THROW((void)exec::CampaignRunner::resolve_workers(0), std::invalid_argument);

  // Unset: hardware-concurrency fallback, clamped to [1, 64].
  ::unsetenv("SYMBAD_CAMPAIGN_WORKERS");
  const int fallback = exec::CampaignRunner::resolve_workers(0);
  EXPECT_GE(fallback, 1);
  EXPECT_LE(fallback, 64);
}

// -------------------------------------------------------------- coverage

TEST(Campaign, CoverageIsCollectedAndMergedAcrossWorkers) {
  auto& fx = fixture();
  const auto scenarios = seeded_sweep(fx, 3);
  exec::CampaignRunner::Options options;
  options.workers = 3;
  options.collect_coverage = true;
  exec::CampaignRunner runner{fx.factory(), options};
  const auto report = runner.run(scenarios);
  ASSERT_EQ(report.failures(), 0u);
  EXPECT_GT(report.coverage_modules, 0u);
  EXPECT_GT(report.coverage.statement_total, 0);
  EXPECT_GT(report.coverage.statement_covered, 0);
  EXPECT_GT(report.coverage.branch_total, 0);
  EXPECT_GT(report.coverage.overall_percent(), 0.0);

  // Without the flag nothing is recorded.
  exec::CampaignRunner quiet{fx.factory()};
  const auto quiet_report = quiet.run(seeded_sweep(fx, 1));
  EXPECT_EQ(quiet_report.coverage_modules, 0u);
  EXPECT_EQ(quiet_report.coverage.statement_total, 0);
}

// -------------------------------------------------- host-metric hygiene

TEST(Campaign, HostMetricsStayOutOfSimulatedMetrics) {
  auto& fx = fixture();
  const auto scenarios = seeded_sweep(fx, 1);
  exec::CampaignRunner runner{fx.factory()};
  const auto a = runner.run(scenarios);
  const auto b = runner.run(scenarios);
  ASSERT_EQ(a.failures() + b.failures(), 0u);
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const auto& ra = a.results[i].report;
    const auto& rb = b.results[i].report;
    // Every simulated-time metric is bit-reproducible...
    EXPECT_EQ(ra.elapsed, rb.elapsed);
    EXPECT_EQ(ra.kernel_callbacks, rb.kernel_callbacks);
    EXPECT_EQ(ra.delta_cycles, rb.delta_cycles);
    EXPECT_EQ(ra.bus_beats, rb.bus_beats);
    EXPECT_DOUBLE_EQ(ra.frames_per_second, rb.frames_per_second);
    // ...while the host-side measurement lives in its own substruct and is
    // allowed to differ run-to-run (no assertion on equality possible; just
    // pin that it is populated independently of the simulated clock).
    EXPECT_GE(ra.host.wall_seconds, 0.0);
  }
}

// ------------------------------------------- explorer simulation grading

TEST(Campaign, GradeBySimulationReplacesAnalyticThroughput) {
  auto& fx = fixture();
  core::Explorer::Options options;
  options.pinned_software = {"CAMERA", "DATABASE", "WINNER"};
  options.max_hw_tasks = 2;
  options.explore_fpga_variants = false;
  core::Explorer explorer{fx.graph, core::AnalyticModel{core::PlatformParams{}},
                          options};
  auto points = explorer.explore();
  ASSERT_GE(points.size(), 3u);

  exec::CampaignRunner::Options ropts;
  ropts.workers = 2;
  exec::CampaignRunner runner{fx.factory(), ropts};
  const auto graded = core::Explorer::grade_by_simulation(
      points, 3, exec::simulation_scorer(runner, fx.graph, {}, /*frames=*/2));

  ASSERT_EQ(graded.size(), points.size());
  const auto simulated = static_cast<std::size_t>(
      std::count_if(graded.begin(), graded.end(),
                    [](const core::DesignPoint& p) { return p.simulation_graded; }));
  EXPECT_EQ(simulated, 3u);
  for (const auto& p : graded) {
    if (p.simulation_graded) {
      EXPECT_GT(p.grade.frames_per_second, 0.0);
      EXPECT_GT(p.analytic_fps, 0.0);
    }
  }
  // The short-list is re-ranked among itself by measured merit; the tail
  // keeps its analytic ordering.
  for (std::size_t i = 0; i + 1 < 3; ++i) {
    EXPECT_TRUE(graded[i].simulation_graded);
    EXPECT_GE(graded[i].grade.merit(), graded[i + 1].grade.merit());
  }
  for (std::size_t i = 3; i + 1 < graded.size(); ++i) {
    EXPECT_GE(graded[i].grade.merit(), graded[i + 1].grade.merit());
  }
}

TEST(Campaign, GradeBySimulationValidatesScorer) {
  std::vector<core::DesignPoint> points(2);
  EXPECT_THROW((void)core::Explorer::grade_by_simulation(points, 2, nullptr),
               std::invalid_argument);
  const auto wrong_arity = [](const std::vector<core::DesignPoint>&) {
    return std::vector<core::PerformanceReport>{};  // always empty
  };
  EXPECT_THROW((void)core::Explorer::grade_by_simulation(points, 2, wrong_arity),
               std::runtime_error);
  // top_k of zero is a no-op, not an error.
  const auto untouched = core::Explorer::grade_by_simulation(points, 0, wrong_arity);
  EXPECT_EQ(untouched.size(), 2u);
}
