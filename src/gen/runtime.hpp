#pragma once
// Stage semantics for generated platforms.
//
// Generated task graphs have no "real" application behind them, but the
// cross-level verification machinery needs data semantics: every stage must
// produce a trace value that is identical at levels 1/2/3 and at any
// campaign worker count. `SyntheticRuntime` provides them as *pure
// functions* of (stage, frame): a stage's value is a hash over the seed,
// the stage name, the frame index, the stage's own previous-frame value and
// its predecessors' same-frame values — a dataflow that mirrors the graph,
// so a wrong execution order or a lost token changes the trace. Operation
// counts scale with the platform's traffic stream (gen/traffic.hpp), which
// makes the timing levels feel the bursty workload while the traced data
// stays level-invariant.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/system_model.hpp"
#include "core/task_graph.hpp"
#include "gen/traffic.hpp"

namespace symbad::gen {

/// Data semantics of a generated platform. One instance per scenario per
/// worker (the campaign factory contract); cheap to construct. Stages are
/// addressed by `TaskNode::id`, which must index the construction graph.
class SyntheticRuntime final : public core::StageRuntime {
public:
  /// `seed` is the platform seed: the traffic stream is rebuilt from it via
  /// `traffic_for(seed)`, so a bare `exec::Scenario` (graph + seed) fully
  /// determines the runtime. Per-stage constants (name hash, predecessors,
  /// op count, extra reads) are taken from `graph` here; the graph itself
  /// is not kept.
  SyntheticRuntime(const core::TaskGraph& graph, std::uint64_t seed);

  void reset_run() override;
  std::uint64_t execute_stage(const core::TaskNode& stage, int frame) override;
  std::uint64_t trace_value(const core::TaskNode& stage, int frame) override;
  std::uint32_t extra_read_words(const core::TaskNode& stage) const override;

  [[nodiscard]] const TrafficModel& traffic() const noexcept { return traffic_; }

private:
  struct Stage {
    std::uint64_t name_hash = 0;
    std::uint64_t ops_per_frame = 0;
    std::uint32_t extra_read_words = 0;
    /// One entry per incoming channel, in channel order (a parallel
    /// channel lists its source twice).
    std::vector<core::TaskId> predecessors;
  };

  /// The stage `node` names; throws std::out_of_range for an id outside
  /// the construction graph.
  [[nodiscard]] const Stage& stage_of(const core::TaskNode& node) const;
  /// Traffic load of `frame`, growing the per-frame tables to hold it;
  /// throws std::invalid_argument for a negative frame.
  [[nodiscard]] const TrafficModel::FrameLoad& load_of(int frame);
  /// Memoized pure value of (stage, frame); see header comment.
  [[nodiscard]] std::uint64_t value_of(core::TaskId stage, int frame);

  std::uint64_t seed_;
  TrafficModel traffic_;
  std::vector<Stage> stages_;  ///< indexed by TaskId
  std::vector<TrafficModel::FrameLoad> loads_;  ///< indexed by frame
  /// value_of memo, flat: frame * stage count + stage.
  std::vector<std::optional<std::uint64_t>> memo_;
};

}  // namespace symbad::gen
