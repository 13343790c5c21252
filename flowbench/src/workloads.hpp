#pragma once
// The three flow-benchmark workloads. Each one is built (the timed set-up)
// from a seed, then iterated; every iteration checks its own outputs.
//
//   paper_flow     — the level 1 -> 4 face-recognition flow, mirroring the
//                    call sequence of examples/face_recognition_flow.cpp.
//   fault_grading  — PCC over the full ROOT fault list, then SAT ATPG over
//                    every DISTANCE-PE register fault.
//   platform_sweep — generated large-tier platforms x levels 1/2/3 through
//                    exec::CampaignRunner at two workers.
//
// The driver only generates inputs from the seed (sub-seeds, query
// schedules, fault and scenario orders); the program under test receives
// them through its public API. kDefaultSeed reproduces the paper's figures
// and is checked against golden values; any other seed is checked against
// invariants that hold for every input.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace flowbench {

inline constexpr std::uint64_t kDefaultSeed = 0;

/// What one iteration did, beyond its wall time (which the caller takes).
struct IterationResult {
  /// Checked outputs were all as expected.
  bool ok = true;
  /// First failed check, for the report.
  std::string error;
  /// FNV-1a over the iteration's deterministic outputs; every iteration of
  /// one run must produce the same value.
  std::uint64_t digest = 0;
  /// Faults classified detected/undetected, over every grading engine.
  std::uint64_t faults = 0;
  /// Campaign scenarios completed.
  std::uint64_t scenarios = 0;
  /// Simulated bus-clock cycles of the level-2/3 runs, and the host seconds
  /// those runs took (summed over campaign workers).
  double sim_cycles = 0.0;
  double sim_host_seconds = 0.0;
  /// Campaign workers' summed queue wait and wall time (host.exec gauges).
  double queue_wait_seconds = 0.0;
  double worker_wall_seconds = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One measured unit of work. Exceptions propagate to the caller, which
  /// counts them as failed iterations.
  [[nodiscard]] virtual IterationResult iterate() = 0;
};

/// The workload names, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Set-up: builds every input the workload's iterations reuse. Throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      std::uint64_t seed);

}  // namespace flowbench
