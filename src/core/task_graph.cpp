#include "core/task_graph.hpp"

#include <algorithm>
#include <deque>

namespace symbad::core {

void TaskGraph::add_task(const std::string& name, std::uint64_t ops_per_frame) {
  if (index_.contains(name)) {
    throw std::invalid_argument{"task_graph: duplicate task '" + name + "'"};
  }
  index_.emplace(name, tasks_.size());
  tasks_.push_back(TaskNode{name, ops_per_frame, tasks_.size()});
}

void TaskGraph::add_channel(const std::string& from, const std::string& to,
                            std::uint32_t words_per_frame, std::size_t fifo_capacity) {
  if (!has_task(from)) throw std::invalid_argument{"task_graph: unknown task '" + from + "'"};
  if (!has_task(to)) throw std::invalid_argument{"task_graph: unknown task '" + to + "'"};
  if (fifo_capacity == 0) throw std::invalid_argument{"task_graph: zero fifo capacity"};
  channels_.push_back(ChannelEdge{from, to, words_per_frame, fifo_capacity});
}

TaskId TaskGraph::id_of(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) throw std::out_of_range{"task_graph: unknown task '" + name + "'"};
  return it->second;
}

const TaskNode& TaskGraph::task(const std::string& name) const {
  return tasks_[id_of(name)];
}

void TaskGraph::set_ops(const std::string& name, std::uint64_t ops_per_frame) {
  tasks_[id_of(name)].ops_per_frame = ops_per_frame;
}

std::uint64_t TaskGraph::total_ops() const noexcept {
  std::uint64_t t = 0;
  for (const auto& n : tasks_) t += n.ops_per_frame;
  return t;
}

std::vector<std::string> TaskGraph::predecessors(const std::string& name) const {
  std::vector<std::string> out;
  for (const auto& c : channels_) {
    if (c.to == name) out.push_back(c.from);
  }
  return out;
}

std::vector<std::string> TaskGraph::successors(const std::string& name) const {
  std::vector<std::string> out;
  for (const auto& c : channels_) {
    if (c.from == name) out.push_back(c.to);
  }
  return out;
}

std::vector<std::string> TaskGraph::sources() const {
  std::vector<std::string> out;
  for (const auto& n : tasks_) {
    if (predecessors(n.name).empty()) out.push_back(n.name);
  }
  return out;
}

std::vector<std::string> TaskGraph::sinks() const {
  std::vector<std::string> out;
  for (const auto& n : tasks_) {
    if (successors(n.name).empty()) out.push_back(n.name);
  }
  return out;
}

std::vector<std::string> TaskGraph::topological_order() const {
  std::vector<std::string> order;
  for (const TaskId t : topological_ids()) order.push_back(tasks_[t].name);
  return order;
}

std::vector<TaskId> TaskGraph::topological_ids() const {
  std::vector<int> in_degree(tasks_.size(), 0);
  std::vector<std::vector<TaskId>> successors(tasks_.size());
  for (const auto& c : channels_) {
    const TaskId to = index_.at(c.to);
    ++in_degree[to];
    successors[index_.at(c.from)].push_back(to);
  }

  std::deque<TaskId> ready;
  for (TaskId t = 0; t < tasks_.size(); ++t) {
    if (in_degree[t] == 0) ready.push_back(t);
  }
  std::vector<TaskId> order;
  while (!ready.empty()) {
    const TaskId t = ready.front();
    ready.pop_front();
    order.push_back(t);
    for (const TaskId s : successors[t]) {
      if (--in_degree[s] == 0) ready.push_back(s);
    }
  }
  if (order.size() != tasks_.size()) {
    throw std::logic_error{"task_graph: cycle detected"};
  }
  return order;
}

}  // namespace symbad::core
