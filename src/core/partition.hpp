#pragma once
// HW/SW/FPGA partitioning (flow steps IV and V).
//
// Level 2 decides `software` vs `hardware` per task; level 3 refines
// `hardware` into hardwired HW vs reconfigurable HW ("soft hardware") by
// assigning tasks to FPGA contexts.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/task_graph.hpp"

namespace symbad::core {

enum class Mapping { software, hardware, fpga };

[[nodiscard]] constexpr const char* to_string(Mapping m) noexcept {
  switch (m) {
    case Mapping::software: return "SW";
    case Mapping::hardware: return "HW";
    case Mapping::fpga: return "FPGA";
  }
  return "?";
}

struct Binding {
  Mapping mapping = Mapping::software;
  std::string context;  ///< FPGA context name (fpga mapping only)
};

class Partition {
public:
  void bind_software(const std::string& task) { bindings_[task] = {Mapping::software, {}}; }
  void bind_hardware(const std::string& task) { bindings_[task] = {Mapping::hardware, {}}; }
  void bind_fpga(const std::string& task, const std::string& context) {
    if (context.empty()) throw std::invalid_argument{"partition: empty context name"};
    bindings_[task] = {Mapping::fpga, context};
  }

  [[nodiscard]] Mapping mapping_of(const std::string& task) const {
    const auto it = bindings_.find(task);
    if (it == bindings_.end()) {
      throw std::out_of_range{"partition: task '" + task + "' not bound"};
    }
    return it->second.mapping;
  }
  [[nodiscard]] const std::string& context_of(const std::string& task) const {
    const auto it = bindings_.find(task);
    if (it == bindings_.end() || it->second.mapping != Mapping::fpga) {
      throw std::out_of_range{"partition: task '" + task + "' is not FPGA-mapped"};
    }
    return it->second.context;
  }
  [[nodiscard]] bool is_bound(const std::string& task) const {
    return bindings_.contains(task);
  }

  /// Context name -> tasks it hosts.
  [[nodiscard]] std::map<std::string, std::vector<std::string>> contexts() const {
    std::map<std::string, std::vector<std::string>> out;
    for (const auto& [task, binding] : bindings_) {
      if (binding.mapping == Mapping::fpga) out[binding.context].push_back(task);
    }
    return out;
  }

  /// Every graph task bound; FPGA tasks have contexts.
  void validate(const TaskGraph& graph) const {
    for (const auto& n : graph.tasks()) {
      const auto it = bindings_.find(n.name);
      if (it == bindings_.end()) {
        throw std::logic_error{"partition: task '" + n.name + "' unbound"};
      }
      if (it->second.mapping == Mapping::fpga && it->second.context.empty()) {
        throw std::logic_error{"partition: FPGA task '" + n.name + "' has no context"};
      }
    }
  }

  /// True when the edge crosses a resource boundary (data must use the bus).
  [[nodiscard]] bool crosses_boundary(const ChannelEdge& edge) const {
    const Mapping a = mapping_of(edge.from);
    const Mapping b = mapping_of(edge.to);
    if (a != b) return true;
    if (a == Mapping::hardware) return true;  // distinct HW blocks talk via bus
    if (a == Mapping::fpga) return context_of(edge.from) != context_of(edge.to);
    return false;  // SW-to-SW stays in CPU memory
  }

  [[nodiscard]] static Partition all_software(const TaskGraph& graph) {
    Partition p;
    for (const auto& n : graph.tasks()) p.bind_software(n.name);
    return p;
  }

  [[nodiscard]] std::string describe() const;

private:
  std::map<std::string, Binding> bindings_;
};

}  // namespace symbad::core
