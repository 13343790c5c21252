#pragma once
// Executable system models for flow levels 1-3.
//
// This implements the paper's two structural transformations (§4.1):
//  1. UT -> TL-timed: group SW tasks onto a CPU model, instantiate the
//     connection resource (bus) and connect every part to it.
//  2. Incremental re-partitioning: move tasks between SW / HW / FPGA.
//
// The same `TaskGraph` + `Partition` + app-supplied `StageRuntime` (the data
// semantics: what each stage actually computes) builds
//  * a level-1 untimed functional model (point-to-point FIFOs, no platform),
//  * a level-2 timed platform model (CPU + bus + hardwired accelerators),
//  * a level-3 reconfigurable model (adds the FPGA with contexts; bitstream
//    downloads appear as bus traffic; SW initiates reconfigurations).
//
// Every stage's output checksum is recorded into a trace so that each level
// can be verified against the previous one ("functionality has been fully
// verified matching the results against the level N-1 ones").

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/partition.hpp"
#include "core/task_graph.hpp"
#include "cpu/cpu.hpp"
#include "fpga/fpga.hpp"
#include "sim/trace.hpp"

namespace symbad::core {

/// Application-provided data semantics of the task graph.
///
/// Every stage call passes the model graph's `TaskNode`: `stage.id` is the
/// stage's dense index (index-keyed runtimes use it), `stage.name` its name.
class StageRuntime {
public:
  virtual ~StageRuntime() = default;
  /// Called before a fresh simulation run; stateful runtimes (e.g. ones
  /// keeping a previous-frame buffer) must return to their initial state so
  /// that every refinement level computes identical data.
  virtual void reset_run() {}
  /// Called when a source task starts frame `frame` (e.g. capture an image).
  virtual void begin_frame(int frame) { (void)frame; }
  /// Executes one stage on one frame's data; returns the profiled operation
  /// count actually consumed (drives the timing annotation).
  virtual std::uint64_t execute_stage(const TaskNode& stage, int frame) = 0;
  /// Checksum of the stage's last output for `frame` (trace comparison).
  virtual std::uint64_t trace_value(const TaskNode& stage, int frame) = 0;
  /// Additional bus read beats the stage performs per frame beyond its
  /// channel traffic (e.g. DISTANCE streaming database templates).
  ///
  /// Contract: a per-stage constant. Levels 2/3 read it once per stage per
  /// run, when the model resolves its bus crossings, so it has no frame
  /// argument; every shipped runtime returns the same value on every call.
  virtual std::uint32_t extra_read_words(const TaskNode& stage) const {
    (void)stage;
    return 0;
  }
};

/// Platform parameters shared by levels 2 and 3.
struct PlatformParams {
  cpu::CpuConfig cpu{};
  double bus_hz = 50e6;
  /// Hardwired accelerator throughput (ops per bus-clock cycle).
  double hw_ops_per_cycle = 4.0;
  fpga::FpgaDevice::Config fpga{};
  std::uint32_t default_bitstream_words = 2048;
};

/// Which refinement level the model realises.
enum class ModelLevel {
  untimed_functional,  ///< level 1
  timed_platform,      ///< level 2 (FPGA tasks treated as hardwired HW)
  reconfigurable,      ///< level 3
};

/// Host-machine measurement of one simulation run (the paper's kHz
/// simulation-speed figures). Deliberately separated from the simulated-time
/// metrics: these values vary run-to-run and machine-to-machine, so they
/// must never flow into determinism or trace-agreement comparisons.
///
/// This struct is a per-run *view*; the process-wide source of truth is the
/// obs registry's `host.*` namespace (`host.sim.wall_seconds` accumulates
/// the same figure across runs, `host.exec.*` carries the campaign-level
/// host metrics). The obs `host.` prefix adopts exactly this struct's
/// segregation rule and is excluded from deterministic snapshots.
struct HostMetrics {
  double wall_seconds = 0.0;
  /// Simulated bus-clock cycles per wall-clock second (levels 2/3).
  double sim_cycles_per_wall_second = 0.0;
};

/// Everything the performance-evaluation step reports. All fields except
/// `host` derive from simulated time and are bit-reproducible for a fixed
/// scenario; `host` is wall-clock-derived and excluded from comparisons.
struct PerformanceReport {
  int frames = 0;
  sim::Time elapsed;
  double frames_per_second = 0.0;  ///< simulated-time throughput
  double bus_load = 0.0;
  double cpu_utilisation = 0.0;
  std::uint64_t bus_beats = 0;
  std::uint64_t bus_transactions = 0;
  std::uint64_t reconfigurations = 0;
  sim::Time reconfiguration_time;
  std::size_t consistency_violations = 0;
  std::map<std::string, std::size_t> fifo_peaks;  ///< channel high-water marks

  // Simulation-cost metrics (deterministic: kernel event counts).
  std::uint64_t kernel_callbacks = 0;
  std::uint64_t delta_cycles = 0;

  HostMetrics host;  ///< wall-clock-derived; never compare across runs

  sim::Trace trace;
};

/// Builds and runs one executable model. The graph and partition are copied
/// (they are small descriptions); the runtime is referenced and must outlive
/// the model.
///
/// Each run resolves names once: every stage's FIFOs, bus crossings
/// (address and words, then the runtime's extra read), effective mapping
/// and FPGA context/function indices become a per-stage plan indexed by
/// `TaskId`, and the processes work on that plan only. FIFOs, and so the
/// `fifo_peaks` keys, are named "from->to"; the k-th (k >= 2) of several
/// parallel channels between the same two tasks gets "from->to#k" (the
/// next free k if a single channel's name already spells that key).
class SystemModel {
public:
  SystemModel(TaskGraph graph, Partition partition, StageRuntime& runtime,
              PlatformParams params, ModelLevel level);

  /// Simulates `frames` frames through the system and reports.
  [[nodiscard]] PerformanceReport run(int frames);

  [[nodiscard]] ModelLevel level() const noexcept { return level_; }

private:
  TaskGraph graph_;
  Partition partition_;
  StageRuntime* runtime_;
  PlatformParams params_;
  ModelLevel level_;
  std::vector<TaskId> order_;  ///< topological order (rejects cycles up-front)
};

}  // namespace symbad::core
