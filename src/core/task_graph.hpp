#pragma once
// Design description: the task graph produced by level-1 modelling.
//
// "Modeling by a number of tasks, still in C, where abstract communication
// is introduced" (paper §2, step II). Nodes are computational tasks with
// profiled per-frame operation counts (step III); edges are point-to-point
// channels with a data volume per frame and a FIFO capacity.

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace symbad::core {

/// Dense task id: the task's index in `TaskGraph::tasks()`, fixed by
/// declaration order. Simulation resolves names to ids once per run and
/// works on ids from then on.
using TaskId = std::size_t;

struct TaskNode {
  std::string name;
  std::uint64_t ops_per_frame = 0;  ///< from execution profiling
  TaskId id = 0;                    ///< index in TaskGraph::tasks()
};

struct ChannelEdge {
  std::string from;
  std::string to;
  std::uint32_t words_per_frame = 0;  ///< payload volume (32-bit words)
  std::size_t fifo_capacity = 2;
};

class TaskGraph {
public:
  void add_task(const std::string& name, std::uint64_t ops_per_frame = 0);
  void add_channel(const std::string& from, const std::string& to,
                   std::uint32_t words_per_frame, std::size_t fifo_capacity = 2);

  [[nodiscard]] bool has_task(const std::string& name) const {
    return index_.contains(name);
  }
  [[nodiscard]] const TaskNode& task(const std::string& name) const;
  /// Id of the named task; throws std::out_of_range for an unknown name.
  [[nodiscard]] TaskId id_of(const std::string& name) const;
  [[nodiscard]] const std::vector<TaskNode>& tasks() const noexcept { return tasks_; }
  [[nodiscard]] const std::vector<ChannelEdge>& channels() const noexcept {
    return channels_;
  }
  [[nodiscard]] std::size_t task_count() const noexcept { return tasks_.size(); }

  /// Re-annotates a task's op count (profiling updates).
  void set_ops(const std::string& name, std::uint64_t ops_per_frame);
  [[nodiscard]] std::uint64_t total_ops() const noexcept;

  [[nodiscard]] std::vector<std::string> predecessors(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> successors(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> sources() const;  ///< no predecessors
  [[nodiscard]] std::vector<std::string> sinks() const;    ///< no successors

  /// Kahn topological order; throws std::logic_error on a cycle.
  [[nodiscard]] std::vector<std::string> topological_order() const;
  /// The same order as task ids.
  [[nodiscard]] std::vector<TaskId> topological_ids() const;

private:
  std::vector<TaskNode> tasks_;
  std::vector<ChannelEdge> channels_;
  std::map<std::string, std::size_t> index_;
};

}  // namespace symbad::core
