// Tests for the flow engine (src/core) and the case-study integration
// (src/app): task graph, partitions, the level-1/2/3 executable models,
// cross-level trace consistency, analytic grading and exploration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "app/face_system.hpp"
#include "core/analytic.hpp"
#include "core/env.hpp"
#include "core/explorer.hpp"
#include "core/partition.hpp"
#include "core/system_model.hpp"
#include "core/task_graph.hpp"
#include "media/database.hpp"
#include "media/pipeline.hpp"
#include "support/test_util.hpp"

namespace core = symbad::core;
namespace app = symbad::app;
namespace media = symbad::media;

// -------------------------------------------------------------- TaskGraph

TEST(TaskGraph, ConstructionAndQueries) {
  core::TaskGraph g;
  g.add_task("a", 100);
  g.add_task("b", 200);
  g.add_task("c", 50);
  g.add_channel("a", "b", 64);
  g.add_channel("b", "c", 32);
  EXPECT_EQ(g.task_count(), 3u);
  EXPECT_EQ(g.task("b").ops_per_frame, 200u);
  EXPECT_EQ(g.total_ops(), 350u);
  EXPECT_EQ(g.predecessors("b"), std::vector<std::string>{"a"});
  EXPECT_EQ(g.successors("b"), std::vector<std::string>{"c"});
  EXPECT_EQ(g.sources(), std::vector<std::string>{"a"});
  EXPECT_EQ(g.sinks(), std::vector<std::string>{"c"});
  EXPECT_EQ(g.topological_order(), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(TaskGraph, RejectsDuplicatesAndUnknowns) {
  core::TaskGraph g;
  g.add_task("a");
  EXPECT_THROW(g.add_task("a"), std::invalid_argument);
  EXPECT_THROW(g.add_channel("a", "zz", 1), std::invalid_argument);
  EXPECT_THROW((void)g.task("zz"), std::out_of_range);
}

TEST(TaskGraph, CycleDetected) {
  core::TaskGraph g;
  g.add_task("a");
  g.add_task("b");
  g.add_channel("a", "b", 1);
  g.add_channel("b", "a", 1);
  EXPECT_THROW((void)g.topological_order(), std::logic_error);
  EXPECT_THROW((void)g.topological_ids(), std::logic_error);
}

TEST(TaskGraph, SelfLoopDetected) {
  // A self-loop is a channel like any other until an order is asked for.
  core::TaskGraph g;
  g.add_task("a");
  g.add_channel("a", "a", 1);
  EXPECT_THROW((void)g.topological_order(), std::logic_error);
  EXPECT_THROW((void)g.topological_ids(), std::logic_error);
}

TEST(TaskGraph, IdsAreDeclarationIndices) {
  core::TaskGraph g;
  g.add_task("sink");
  g.add_task("mid");
  g.add_task("src");
  g.add_channel("src", "mid", 4);
  g.add_channel("mid", "sink", 4);
  for (std::size_t i = 0; i < g.tasks().size(); ++i) {
    EXPECT_EQ(g.tasks()[i].id, i);
    EXPECT_EQ(g.id_of(g.tasks()[i].name), i);
    EXPECT_EQ(g.task(g.tasks()[i].name).id, i);
  }
  EXPECT_EQ(g.topological_ids(), (std::vector<core::TaskId>{2, 1, 0}));
  EXPECT_EQ(g.topological_order(), (std::vector<std::string>{"src", "mid", "sink"}));
  EXPECT_THROW((void)g.id_of("zz"), std::out_of_range);
}

// -------------------------------------------------------------- Partition

TEST(Partition, BindingsAndValidation) {
  core::TaskGraph g;
  g.add_task("a");
  g.add_task("b");
  g.add_channel("a", "b", 8);
  core::Partition p;
  p.bind_software("a");
  EXPECT_THROW(p.validate(g), std::logic_error);  // b unbound
  p.bind_fpga("b", "config1");
  p.validate(g);
  EXPECT_EQ(p.mapping_of("a"), core::Mapping::software);
  EXPECT_EQ(p.context_of("b"), "config1");
  EXPECT_THROW((void)p.context_of("a"), std::out_of_range);
  EXPECT_TRUE(p.crosses_boundary(g.channels()[0]));
}

TEST(Partition, BoundaryRules) {
  core::TaskGraph g;
  g.add_task("a");
  g.add_task("b");
  g.add_channel("a", "b", 8);
  core::Partition p;
  p.bind_software("a");
  p.bind_software("b");
  EXPECT_FALSE(p.crosses_boundary(g.channels()[0]));  // SW-SW: CPU memory
  p.bind_fpga("a", "c1");
  p.bind_fpga("b", "c1");
  EXPECT_FALSE(p.crosses_boundary(g.channels()[0]));  // same context
  p.bind_fpga("b", "c2");
  EXPECT_TRUE(p.crosses_boundary(g.channels()[0]));   // context switch
  p.bind_hardware("a");
  p.bind_hardware("b");
  EXPECT_TRUE(p.crosses_boundary(g.channels()[0]));   // distinct HW blocks
}

// ------------------------------------------------------------ SystemModel

namespace {

/// Minimal data semantics: every stage costs 10 ops and traces its frame.
class CountingRuntime final : public core::StageRuntime {
public:
  std::uint64_t execute_stage(const core::TaskNode& stage, int frame) override {
    (void)stage;
    (void)frame;
    return 10;
  }
  std::uint64_t trace_value(const core::TaskNode& stage, int frame) override {
    return stage.id * 1000 + static_cast<std::uint64_t>(frame);
  }
};

}  // namespace

TEST(SystemModel, ParallelChannelsKeepSeparateFifoPeaks) {
  // Parallel channels are legal. Each keeps its own FIFO and fifo_peaks
  // entry: the k-th (k >= 2) parallel channel is keyed "from->to#k", and a
  // plain key that a task name happens to spell ("a->b#2" below) stays with
  // its single channel.
  core::TaskGraph g;
  g.add_task("a");
  g.add_task("b");
  g.add_task("b#2");
  g.add_channel("a", "b", 8, 1);
  g.add_channel("a", "b", 8, 3);
  g.add_channel("a", "b#2", 8, 2);
  g.add_channel("a", "b", 8, 4);
  for (const auto level : {core::ModelLevel::untimed_functional,
                           core::ModelLevel::timed_platform}) {
    CountingRuntime runtime;
    core::Partition partition = core::Partition::all_software(g);
    partition.bind_hardware("b");
    core::SystemModel model{g, partition, runtime, {}, level};
    const auto report = model.run(6);
    ASSERT_EQ(report.fifo_peaks.size(), 4u);
    const std::map<std::string, std::size_t> capacity{
        {"a->b", 1}, {"a->b#3", 3}, {"a->b#2", 2}, {"a->b#4", 4}};
    for (const auto& [fifo, cap] : capacity) {
      ASSERT_TRUE(report.fifo_peaks.contains(fifo)) << fifo;
      EXPECT_GE(report.fifo_peaks.at(fifo), 1u) << fifo;
      EXPECT_LE(report.fifo_peaks.at(fifo), cap) << fifo;
    }
    EXPECT_EQ(report.trace.size(), 18u);  // 3 stages x 6 frames
    if (level == core::ModelLevel::timed_platform) {
      // SW -> HW crossings: per frame, each of the three a->b channels is
      // one 8-word burst written by a and one read by b.
      EXPECT_EQ(report.bus_transactions, 2u * 3u * 6u);
      EXPECT_EQ(report.bus_beats, 2u * 3u * 6u * 8u);
    }
  }
}

// -------------------------------------------- case-study fixture

namespace {

struct CaseStudy {
  media::FaceDatabase db = media::FaceDatabase::enroll(6, 3);
  core::TaskGraph graph = app::face_task_graph(db);
  CaseStudy() {
    const auto profile = app::profile_reference(db, 2);
    app::annotate_from_profile(graph, profile, 2);
  }
};

CaseStudy& case_study() { return symbad::test::shared_fixture<CaseStudy>(); }

}  // namespace

TEST(FaceSystem, GraphMatchesFigure2) {
  auto& cs = case_study();
  EXPECT_EQ(cs.graph.task_count(), 12u);
  EXPECT_TRUE(cs.graph.has_task("CAMERA"));
  EXPECT_TRUE(cs.graph.has_task("DATABASE"));
  EXPECT_TRUE(cs.graph.has_task("WINNER"));
  // Profiling annotated every task.
  for (const auto& t : cs.graph.tasks()) EXPECT_GT(t.ops_per_frame, 0u) << t.name;
  // ROOT is the heaviest task, DISTANCE second (among pipeline stages).
  std::vector<std::string> by_ops;
  for (const auto& t : cs.graph.tasks()) by_ops.push_back(t.name);
  std::sort(by_ops.begin(), by_ops.end(), [&cs](const auto& a, const auto& b) {
    return cs.graph.task(a).ops_per_frame > cs.graph.task(b).ops_per_frame;
  });
  EXPECT_EQ(by_ops[0], "ROOT");
}

TEST(FaceSystem, Level1ModelMatchesReference) {
  auto& cs = case_study();
  app::FaceStageRuntime runtime{cs.db};
  const auto partition = core::Partition::all_software(cs.graph);
  core::SystemModel model{cs.graph, partition, runtime, {},
                          core::ModelLevel::untimed_functional};
  const auto report = model.run(4);

  // The level-1 model recognises the same identities as the C reference.
  ASSERT_EQ(runtime.identities().size(), 4u);
  for (int f = 0; f < 4; ++f) {
    const int id = app::query_identity(f, cs.db.identities());
    const auto capture = media::camera_capture(media::FaceParams::for_identity(id),
                                               app::query_pose(f));
    const auto ref = media::recognize(capture, cs.db);
    EXPECT_EQ(runtime.identities()[static_cast<std::size_t>(f)], ref.identity)
        << "frame " << f;
  }
  EXPECT_EQ(report.trace.entries().size(), 12u * 4u);
}

namespace {

/// The trace value a level records for `stage`, from that frame's
/// reference values.
std::uint64_t reference_trace(const std::string& stage, const media::PipelineValues& v,
                              const media::FaceDatabase& db) {
  namespace st = media::stage;
  if (stage == st::camera) return v.bayer.checksum();
  if (stage == st::database) return db.size();
  if (stage == st::bay) return v.luma.checksum();
  if (stage == st::erosion) return v.eroded.checksum();
  if (stage == st::root) return v.rooted.checksum();
  if (stage == st::edge) return v.edges.checksum();
  if (stage == st::ellipse) {
    return static_cast<std::uint64_t>(v.fit.cx) << 32 | static_cast<std::uint32_t>(v.fit.cy);
  }
  if (stage == st::crtbord) return v.window.checksum();
  if (stage == st::crtline) return v.lines.total_elements();
  if (stage == st::calcline) return v.features.checksum();
  if (stage == st::distance) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const auto d : v.distances) {
      h ^= d;
      h *= 1099511628211ULL;
    }
    return h;
  }
  if (stage == st::winner) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(v.identity));
  }
  ADD_FAILURE() << "no trace formula for " << stage;
  return 0;
}

}  // namespace

TEST(FaceSystem, LevelTracesAreTheReferenceValues) {
  // Each level's k-th trace entry of a stage is that stage's value on frame
  // k of the C reference, CAMERA through WINNER plus DATABASE.
  auto& cs = case_study();
  constexpr int kFrames = 4;
  std::vector<media::PipelineValues> reference;
  for (int f = 0; f < kFrames; ++f) {
    const int id = app::query_identity(f, cs.db.identities());
    reference.push_back(media::golden_run(
        media::camera_capture(media::FaceParams::for_identity(id), app::query_pose(f)), cs.db));
  }
  const std::pair<core::ModelLevel, core::Partition> levels[] = {
      {core::ModelLevel::untimed_functional, core::Partition::all_software(cs.graph)},
      {core::ModelLevel::timed_platform, app::paper_level2_partition(cs.graph)},
      {core::ModelLevel::reconfigurable, app::paper_level3_partition(cs.graph)},
  };
  for (const auto& [level, partition] : levels) {
    app::FaceStageRuntime runtime{cs.db};
    core::SystemModel model{cs.graph, partition, runtime, {}, level};
    const auto channels = model.run(kFrames).trace.by_channel();
    EXPECT_EQ(channels.size(), cs.graph.task_count());
    for (const auto& [stage, values] : channels) {
      ASSERT_EQ(values.size(), reference.size()) << stage;
      for (std::size_t k = 0; k < values.size(); ++k) {
        EXPECT_EQ(values[k], reference_trace(stage, reference[k], cs.db))
            << stage << " frame " << k << " level " << static_cast<int>(level) + 1;
      }
    }
  }
  // run_stage knows the pipeline stages only, and the back end needs the
  // database.
  media::PipelineValues values;
  for (const char* name : {"CAMERA", "DATABASE", "CALCDIST", "bay", ""}) {
    EXPECT_THROW(media::run_stage(name, values, {}), std::out_of_range) << name;
  }
  for (const char* name : {media::stage::distance, media::stage::winner}) {
    EXPECT_THROW(media::run_stage(name, values, {}), std::invalid_argument) << name;
  }
}

TEST(FaceSystem, NoFrameOutlivesItsRun) {
  // A frame's values are dropped once WINNER has run on it, so a run's
  // memory does not grow with its frame count. A second run on the same
  // runtime recaptures every frame and traces the same values.
  auto& cs = case_study();
  constexpr int kFrames = 5;
  const std::pair<core::ModelLevel, core::Partition> levels[] = {
      {core::ModelLevel::untimed_functional, core::Partition::all_software(cs.graph)},
      {core::ModelLevel::timed_platform, app::paper_level2_partition(cs.graph)},
      {core::ModelLevel::reconfigurable, app::paper_level3_partition(cs.graph)},
  };
  for (const auto& [level, partition] : levels) {
    app::FaceStageRuntime runtime{cs.db};
    core::SystemModel model{cs.graph, partition, runtime, {}, level};
    const auto first = model.run(kFrames);
    EXPECT_EQ(runtime.live_frames(), 0u) << "level " << static_cast<int>(level) + 1;
    EXPECT_EQ(runtime.identities().size(), static_cast<std::size_t>(kFrames));
    const auto second = model.run(kFrames);
    EXPECT_EQ(runtime.live_frames(), 0u) << "level " << static_cast<int>(level) + 1;
    EXPECT_EQ(second.trace.by_channel(), first.trace.by_channel())
        << "level " << static_cast<int>(level) + 1;
  }
}

TEST(FaceSystem, Level2TraceMatchesLevel1) {
  auto& cs = case_study();
  app::FaceStageRuntime rt1{cs.db};
  const auto sw = core::Partition::all_software(cs.graph);
  core::SystemModel level1{cs.graph, sw, rt1, {}, core::ModelLevel::untimed_functional};
  const auto rep1 = level1.run(3);

  app::FaceStageRuntime rt2{cs.db};
  const auto part2 = app::paper_level2_partition(cs.graph);
  core::SystemModel level2{cs.graph, part2, rt2, {}, core::ModelLevel::timed_platform};
  const auto rep2 = level2.run(3);

  EXPECT_TRUE(symbad::test::traces_data_equal(rep1.trace, rep2.trace));
  EXPECT_GT(rep2.elapsed, symbad::sim::Time::zero());
  EXPECT_GT(rep2.frames_per_second, 0.0);
  EXPECT_GT(rep2.bus_load, 0.0);
  EXPECT_GT(rep2.cpu_utilisation, 0.0);
}

TEST(FaceSystem, Level3TraceMatchesLevel2AndReconfigures) {
  auto& cs = case_study();
  app::FaceStageRuntime rt2{cs.db};
  const auto part2 = app::paper_level2_partition(cs.graph);
  core::SystemModel level2{cs.graph, part2, rt2, {}, core::ModelLevel::timed_platform};
  const auto rep2 = level2.run(3);

  app::FaceStageRuntime rt3{cs.db};
  const auto part3 = app::paper_level3_partition(cs.graph);
  core::SystemModel level3{cs.graph, part3, rt3, {}, core::ModelLevel::reconfigurable};
  const auto rep3 = level3.run(3);

  EXPECT_TRUE(symbad::test::traces_data_equal(rep2.trace, rep3.trace));
  // ROOT and DISTANCE alternate contexts every frame: 2 reconfigs/frame.
  EXPECT_GE(rep3.reconfigurations, 2u * 3u - 1u);
  EXPECT_GT(rep3.reconfiguration_time, symbad::sim::Time::zero());
  EXPECT_EQ(rep3.consistency_violations, 0u);
  // Reconfiguration bus traffic slows the system down vs level 2.
  EXPECT_LT(rep3.frames_per_second, rep2.frames_per_second * 1.01);
}

TEST(FaceSystem, MergedContextAvoidsReconfigurations) {
  auto& cs = case_study();
  app::FaceStageRuntime rt_split{cs.db};
  core::SystemModel split{cs.graph, app::paper_level3_partition(cs.graph), rt_split,
                          {}, core::ModelLevel::reconfigurable};
  const auto rep_split = split.run(4);

  app::FaceStageRuntime rt_merged{cs.db};
  const auto merged_part = app::merged_context_partition(cs.graph);
  core::SystemModel merged{cs.graph, merged_part, rt_merged, {},
                           core::ModelLevel::reconfigurable};
  const auto rep_merged = merged.run(4);

  EXPECT_EQ(rep_merged.reconfigurations, 1u);  // loaded once, never swapped
  EXPECT_GT(rep_split.reconfigurations, rep_merged.reconfigurations);
  EXPECT_GT(rep_merged.frames_per_second, rep_split.frames_per_second);
  EXPECT_TRUE(symbad::test::traces_data_equal(rep_split.trace, rep_merged.trace));
}

TEST(FaceSystem, HardwareAccelerationBeatsAllSoftware) {
  auto& cs = case_study();
  app::FaceStageRuntime rt_sw{cs.db};
  core::SystemModel all_sw{cs.graph, core::Partition::all_software(cs.graph), rt_sw,
                           {}, core::ModelLevel::timed_platform};
  const auto rep_sw = all_sw.run(3);

  app::FaceStageRuntime rt_hw{cs.db};
  const auto part2 = app::paper_level2_partition(cs.graph);
  core::SystemModel accel{cs.graph, part2, rt_hw, {}, core::ModelLevel::timed_platform};
  const auto rep_hw = accel.run(3);

  EXPECT_GT(rep_hw.frames_per_second, rep_sw.frames_per_second);
}

// ------------------------------------------------------- analytic/explorer

TEST(Analytic, GradesAreFiniteAndOrdered) {
  auto& cs = case_study();
  core::AnalyticModel model{core::PlatformParams{}};
  const auto g_sw = model.grade(cs.graph, core::Partition::all_software(cs.graph));
  const auto g_hw = model.grade(cs.graph, app::paper_level2_partition(cs.graph));
  EXPECT_GT(g_sw.frames_per_second, 0.0);
  EXPECT_GT(g_hw.frames_per_second, g_sw.frames_per_second);
  EXPECT_GT(g_hw.area_units, g_sw.area_units);  // accelerators cost silicon
  EXPECT_GT(g_sw.power_mw, 0.0);
}

TEST(Analytic, ReconfigurationCostsThroughput) {
  auto& cs = case_study();
  core::AnalyticModel model{core::PlatformParams{}};
  const auto part = app::paper_level3_partition(cs.graph);
  const auto no_reconf = model.grade(cs.graph, part, 0);
  const auto reconf = model.grade(cs.graph, part, 2);
  EXPECT_GT(no_reconf.frames_per_second, reconf.frames_per_second);
}

TEST(Explorer, EqualWeightTasksEnumerateDeterministically) {
  // Equal-weight tasks used to enumerate in platform-dependent order (an
  // unstable sort on weight alone); the ranking must now be a pure function
  // of the graph contents — independent of task insertion order.
  auto build = [](const std::vector<std::string>& names) {
    core::TaskGraph g;
    for (const auto& name : names) g.add_task(name, 100);  // all equal weight
    return g;
  };
  const auto g1 = build({"delta", "alpha", "charlie", "bravo"});
  const auto g2 = build({"bravo", "charlie", "alpha", "delta"});
  core::Explorer::Options opts;
  opts.explore_fpga_variants = false;
  const auto p1 = core::Explorer{g1, core::AnalyticModel{{}}, opts}.explore();
  const auto p2 = core::Explorer{g2, core::AnalyticModel{{}}, opts}.explore();
  ASSERT_EQ(p1.size(), p2.size());
  // The same hardware subset must occupy the same rank regardless of task
  // insertion order. (Labels list tasks in topological order, which for an
  // edge-free graph is insertion order — compare the task sets.)
  auto task_set = [](const std::string& label) {
    std::vector<std::string> tasks;
    std::string::size_type start = 0;
    while (start <= label.size()) {
      const auto plus = label.find('+', start);
      tasks.push_back(label.substr(start, plus - start));
      if (plus == std::string::npos) break;
      start = plus + 1;
    }
    std::sort(tasks.begin(), tasks.end());
    return tasks;
  };
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(task_set(p1[i].label), task_set(p2[i].label)) << "rank " << i;
  }
  // Equal-weight, equal-merit single-task candidates rank by task name (the
  // pinned tiebreak), in both insertion orders.
  auto singles_of = [](const std::vector<core::DesignPoint>& points) {
    std::vector<std::string> singles;
    for (const auto& p : points) {
      if (!p.label.empty() && p.label != "all-SW" &&
          p.label.find('+') == std::string::npos) {
        singles.push_back(p.label);
      }
    }
    return singles;
  };
  for (const auto* points : {&p1, &p2}) {
    const auto singles = singles_of(*points);
    ASSERT_EQ(singles.size(), 4u);
    EXPECT_TRUE(std::is_sorted(singles.begin(), singles.end()));
  }
}

TEST(Explorer, MovableTaskCapSurfacedNotSilent) {
  core::TaskGraph g;
  for (int i = 0; i < 5; ++i) {
    g.add_task("t" + std::to_string(i), 100u * static_cast<unsigned>(i + 1));
  }
  core::Explorer::Options opts;
  opts.explore_fpga_variants = false;
  opts.max_movable_tasks = 3;
  // Default: exceeding the enumeration cap throws instead of silently
  // dropping tasks from the design space.
  EXPECT_THROW(
      (void)core::Explorer(g, core::AnalyticModel{{}}, opts).explore(),
      std::length_error);

  // Opting in truncates to the heaviest tasks and reports the drop.
  opts.truncate_movable = true;
  core::ExploreInfo info;
  const auto points = core::Explorer{g, core::AnalyticModel{{}}, opts}.explore(&info);
  EXPECT_EQ(info.movable_tasks, 5u);
  EXPECT_EQ(info.enumerated_tasks, 3u);
  EXPECT_TRUE(info.truncated());
  // 2^3 subsets, minus none (max_hw_tasks=4 admits all of them).
  EXPECT_EQ(points.size(), 8u);
  // Only the three heaviest tasks (t4, t3, t2) may appear in labels.
  for (const auto& p : points) {
    EXPECT_EQ(p.label.find("t0"), std::string::npos) << p.label;
    EXPECT_EQ(p.label.find("t1"), std::string::npos) << p.label;
  }

  // A graph within the cap reports no truncation.
  opts.max_movable_tasks = 16;
  core::ExploreInfo full_info;
  (void)core::Explorer{g, core::AnalyticModel{{}}, opts}.explore(&full_info);
  EXPECT_EQ(full_info.movable_tasks, 5u);
  EXPECT_EQ(full_info.enumerated_tasks, 5u);
  EXPECT_FALSE(full_info.truncated());

  // Cap validation: the subset mask is a 64-bit word.
  opts.max_movable_tasks = 63;
  EXPECT_THROW(
      (void)core::Explorer(g, core::AnalyticModel{{}}, opts).explore(),
      std::invalid_argument);
}

TEST(Explorer, FindsAcceleratedParetoPoints) {
  auto& cs = case_study();
  core::Explorer::Options opts;
  opts.pinned_software = {"CAMERA", "DATABASE", "WINNER"};
  opts.max_hw_tasks = 2;
  core::Explorer explorer{cs.graph, core::AnalyticModel{core::PlatformParams{}}, opts};
  const auto points = explorer.explore();
  ASSERT_GT(points.size(), 10u);
  // Best merit point accelerates something.
  EXPECT_NE(points.front().label, "all-SW");

  const auto front = core::Explorer::pareto_front(points);
  ASSERT_FALSE(front.empty());
  EXPECT_LE(front.size(), points.size());
  // all-SW is Pareto-optimal on area (cheapest) — must appear in the front.
  const bool has_all_sw = std::any_of(front.begin(), front.end(), [](const auto& p) {
    return p.label == "all-SW";
  });
  EXPECT_TRUE(has_all_sw);

  const auto* constrained = core::Explorer::best_under(points, 0.0, 1300.0, 0.0);
  ASSERT_NE(constrained, nullptr);
  EXPECT_LE(constrained->grade.area_units, 1300.0);
}

// ------------------------------------------------- strict env-knob parsing

// The shared strict parser behind every SYMBAD_* integer knob
// (SYMBAD_CAMPAIGN_WORKERS, SYMBAD_OBS, ...). The exhaustive accept/reject
// matrix lives here, next to the implementation; the subsystems keep one
// integration test each that garbage still throws through their entry
// points.

TEST(EnvParse, ValueParserAcceptsExactIntegersInRange) {
  EXPECT_EQ(core::parse_env_value("K", "1", 1, 64), 1);
  EXPECT_EQ(core::parse_env_value("K", "64", 1, 64), 64);
  EXPECT_EQ(core::parse_env_value("K", "-3", -10, 10), -3);
  EXPECT_EQ(core::parse_env_value("K", "0", 0, 1), 0);
}

TEST(EnvParse, ValueParserRejectsGarbageAndOutOfRange) {
  // The matrix the campaign runner used to pin (garbage must throw, never
  // silently fall back), now owned by the shared helper.
  for (const char* bad : {"abc", "-3", "0", "65", "3x", "", "4 ", " 4",
                          "0x10", "99999999999999999999"}) {
    EXPECT_THROW((void)core::parse_env_value("K", bad, 1, 64), std::invalid_argument)
        << "value \"" << bad << '"';
  }
}

TEST(EnvParse, EnvReaderDistinguishesUnsetFromInvalid) {
  const symbad::test::EnvGuard guard{"SYMBAD_TEST_ENV_KNOB", nullptr};
  EXPECT_EQ(core::parse_env_int("SYMBAD_TEST_ENV_KNOB", 0, 9), std::nullopt);

  ::setenv("SYMBAD_TEST_ENV_KNOB", "7", 1);
  EXPECT_EQ(core::parse_env_int("SYMBAD_TEST_ENV_KNOB", 0, 9), 7);
  ::setenv("SYMBAD_TEST_ENV_KNOB", "banana", 1);
  EXPECT_THROW((void)core::parse_env_int("SYMBAD_TEST_ENV_KNOB", 0, 9),
               std::invalid_argument);
}

TEST(EnvParse, FlagAcceptsExactlyZeroAndOne) {
  // A boolean knob (SYMBAD_GEN_CORPUS_WRITE) is an integer knob in [0, 1].
  const symbad::test::EnvGuard guard{"SYMBAD_TEST_ENV_KNOB", nullptr};
  ::setenv("SYMBAD_TEST_ENV_KNOB", "0", 1);
  EXPECT_EQ(core::parse_env_int("SYMBAD_TEST_ENV_KNOB", 0, 1), 0);
  ::setenv("SYMBAD_TEST_ENV_KNOB", "1", 1);
  EXPECT_EQ(core::parse_env_int("SYMBAD_TEST_ENV_KNOB", 0, 1), 1);
  for (const char* bad : {"2", "true", "yes", ""}) {
    ::setenv("SYMBAD_TEST_ENV_KNOB", bad, 1);
    EXPECT_THROW((void)core::parse_env_int("SYMBAD_TEST_ENV_KNOB", 0, 1),
                 std::invalid_argument)
        << "value \"" << bad << '"';
  }
}
