#pragma once
// Scenario descriptions for campaign execution.
//
// The flow is campaign-shaped: the same task graph is simulated at levels
// 1/2/3 across many partitions, platform parameter sets and frame workloads,
// and every refinement is validated by trace comparison against the previous
// level. A `Scenario` is one such cell of the campaign — a complete, self-
// contained description of a single `core::SystemModel` run, cheap to copy
// and safe to ship to a worker thread.
//
// Worker-count invariance: a Scenario carries *everything* that can affect
// its run (graph, partition, level, platform parameters, frame count,
// seed). Nothing about the execution environment — which worker picks
// the scenario up, how many workers exist, in what order scenarios finish —
// may influence the result. The campaign runner upholds this by building a
// fresh `StageRuntime` (and, inside `core::SystemModel::run`, a fresh
// `sim::Kernel`) per scenario per worker, so simulation traces and reports
// are byte-identical at any worker count. Runtime factories must honor the
// same rule: derive all randomness from `seed`, never from shared mutable
// state or host time.

#include <cstdint>
#include <string>
#include <vector>

#include "core/partition.hpp"
#include "core/system_model.hpp"
#include "core/task_graph.hpp"

namespace symbad::exec {

/// One simulation scenario: everything a worker needs to build and run a
/// `core::SystemModel` except the stage runtime, which the campaign's
/// runtime factory constructs fresh per scenario (per-run determinism).
struct Scenario {
  std::string name;          ///< human-readable label in reports
  std::string group;         ///< scenarios sharing a group are trace-compared
                             ///< between adjacent levels ("" = ungrouped)
  core::TaskGraph graph;
  core::Partition partition;
  core::ModelLevel level = core::ModelLevel::untimed_functional;
  core::PlatformParams params{};
  int frames = 4;
  /// Seed for stochastic runtimes (stimulus generation), interpreted by the
  /// runtime factory, not by the runner.
  std::uint64_t seed = 0;
};

/// Refinement level as the paper's 1/2/3 numbering (for reports/ordering).
[[nodiscard]] constexpr int level_number(core::ModelLevel level) noexcept {
  switch (level) {
    case core::ModelLevel::untimed_functional: return 1;
    case core::ModelLevel::timed_platform: return 2;
    case core::ModelLevel::reconfigurable: return 3;
  }
  return 0;
}

/// Convenience builder: one group of scenarios pushing the same
/// (graph, partition) through each requested refinement level, so that the
/// campaign's agreement pass verifies every adjacent pair. `seed` is stamped
/// into every scenario of the group (generated platforms carry their
/// platform seed here so runtime factories can rebuild traffic and stimulus).
[[nodiscard]] std::vector<Scenario> cross_level_scenarios(
    std::string group, const core::TaskGraph& graph,
    const core::Partition& partition, const core::PlatformParams& params,
    int frames, const std::vector<core::ModelLevel>& levels = {
                     core::ModelLevel::untimed_functional,
                     core::ModelLevel::timed_platform,
                     core::ModelLevel::reconfigurable},
    std::uint64_t seed = 0);

}  // namespace symbad::exec
