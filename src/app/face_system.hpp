#pragma once
// The face recognition case study wired into the Symbad flow (paper §4).
//
// Provides: the Figure-2 task graph, the data semantics of every stage
// (FaceStageRuntime), profiling-driven annotation, and the partitions the
// paper uses (level 2: ROOT+DISTANCE in hardware; level 3: ROOT in context
// config2 and DISTANCE in config1 on the embedded FPGA).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/partition.hpp"
#include "core/system_model.hpp"
#include "core/task_graph.hpp"
#include "media/database.hpp"
#include "media/face_gen.hpp"
#include "media/pipeline.hpp"

namespace symbad::app {

/// Deterministic query pose for frame `frame` (unseen by enrollment).
[[nodiscard]] media::Pose query_pose(int frame);
/// Identity shown in frame `frame` (round-robin over the database).
[[nodiscard]] int query_identity(int frame, int identities);

/// The Figure-2 task graph. Channel volumes derive from the frame size and
/// database; op counts start at zero and are filled in by profiling.
[[nodiscard]] core::TaskGraph face_task_graph(const media::FaceDatabase& db,
                                              int image_size = 64,
                                              int window_size = 32);

/// Runs the C reference model over `frames` query frames and returns the
/// per-stage operation profile (flow step III).
[[nodiscard]] media::PipelineProfile profile_reference(const media::FaceDatabase& db,
                                                       int frames,
                                                       int image_size = 64);

/// Writes per-frame average op counts from `profile` into `graph`.
void annotate_from_profile(core::TaskGraph& graph, const media::PipelineProfile& profile,
                           int frames);

/// Level-2 partition: the two heaviest tasks (ROOT, DISTANCE) in hardware.
[[nodiscard]] core::Partition paper_level2_partition(const core::TaskGraph& graph);
/// Level-3 partition: ROOT -> config2, DISTANCE -> config1 (paper §4.1).
[[nodiscard]] core::Partition paper_level3_partition(const core::TaskGraph& graph);
/// Tuned variant: both functions share one context (no steady-state
/// reconfiguration) — the ablation of §3.3's tuning discussion.
[[nodiscard]] core::Partition merged_context_partition(const core::TaskGraph& graph);

/// Data semantics of the face recognition system: runs the C reference
/// model's stages (media::run_stage) on per-frame values, so every level's
/// simulation computes the reference's values, and traces each stage by a
/// per-stage formula over its output. A frame's values live from its
/// capture until WINNER, the graph's sink, has run on it.
class FaceStageRuntime : public core::StageRuntime {
public:
  FaceStageRuntime(const media::FaceDatabase& db, media::PipelineConfig config = {},
                   int image_size = 64);

  void begin_frame(int frame) override;
  std::uint64_t execute_stage(const core::TaskNode& node, int frame) override;
  std::uint64_t trace_value(const core::TaskNode& node, int frame) override;
  std::uint32_t extra_read_words(const core::TaskNode& node) const override;

  /// Replaces the default round-robin query stream: frame `f` captures
  /// `schedule[f % schedule.size()]` instead of `query_identity`/
  /// `query_pose`. Used by generated workloads (gen::query_schedule) to
  /// drive the pipeline with seeded bursty traffic. Must be set before the
  /// first frame is captured; an empty schedule restores the default.
  /// Throws for an identity outside the database or a zoom <= 0.
  void set_query_schedule(std::vector<media::QueryRequest> schedule);

  /// Recognition results observed so far (index = frame).
  [[nodiscard]] const std::vector<int>& identities() const noexcept { return identities_; }
  [[nodiscard]] const media::FaceDatabase& database() const noexcept { return *db_; }
  /// Frames whose stage values are held: captured, and not yet past WINNER.
  [[nodiscard]] std::size_t live_frames() const noexcept { return frames_.size(); }

private:
  const media::FaceDatabase* db_;
  media::PipelineConfig config_;
  int image_size_;
  std::vector<media::QueryRequest> schedule_;
  std::map<int, media::PipelineValues> frames_;
  std::vector<int> identities_;
};

}  // namespace symbad::app
