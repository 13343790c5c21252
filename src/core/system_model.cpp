#include "core/system_model.hpp"

#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "sim/channels.hpp"
#include "tlm/bus.hpp"

namespace symbad::core {

namespace {

constexpr std::uint64_t kRamBase = 0x0000'0000;
constexpr std::uint64_t kEdgeBufferStride = 0x0002'0000;  // 128 KiB per buffer
constexpr std::uint64_t kExtraReadAddress = kRamBase + 0x0800'0000;
constexpr std::uint32_t kMaxBurstBeats = 256;

/// FIFO name per channel: "from->to", and "from->to#k" for the k-th
/// (k >= 2) of several parallel channels. Plain names are handed out
/// first, so a single channel keeps its name even when a task name spells
/// a suffixed key ("b#2"); the parallel channel then takes the next free k.
std::vector<std::string> fifo_names(const TaskGraph& graph) {
  const auto& channels = graph.channels();
  std::vector<std::string> names;
  std::set<std::string> taken;
  for (const auto& edge : channels) {
    names.push_back(edge.from + "->" + edge.to);
    if (!taken.insert(names.back()).second) names.back().clear();  // parallel
  }
  for (std::size_t i = 0; i < channels.size(); ++i) {
    for (int k = 2; names[i].empty(); ++k) {
      std::string name = channels[i].from + "->" + channels[i].to + "#" + std::to_string(k);
      if (taken.insert(name).second) names[i] = std::move(name);
    }
  }
  return names;
}

/// A bus transfer of one channel's data (or a stage's extra read).
struct Crossing {
  std::uint64_t address = 0;
  std::uint32_t words = 0;
};

/// One stage's ports, transfers and placement, resolved once per run.
struct StagePlan {
  const TaskNode* node = nullptr;
  Mapping mapping = Mapping::software;  ///< effective mapping (levels 2/3)
  std::size_t context = 0;   ///< FPGA context index (fpga mapping)
  std::size_t function = 0;  ///< FPGA function index (fpga mapping)
  std::vector<sim::Fifo<int>*> ins;
  std::vector<sim::Fifo<int>*> outs;
  std::vector<Crossing> reads;   ///< boundary-crossing inputs, then the extra read
  std::vector<Crossing> writes;  ///< boundary-crossing outputs
};

/// One simulation's worth of structure. Built fresh for every run so that
/// repeated runs are independent and deterministic.
struct ModelInstance {
  const TaskGraph& graph;
  const Partition& partition;
  StageRuntime& runtime;
  const PlatformParams& params;
  const ModelLevel level;
  const int frames;

  sim::Kernel kernel;
  sim::Trace trace;

  // Platform (levels 2/3 only).
  std::unique_ptr<tlm::Bus> bus;
  std::unique_ptr<tlm::Memory> ram;
  std::unique_ptr<tlm::Memory> flash;
  std::unique_ptr<cpu::CpuModel> cpu_model;
  std::unique_ptr<fpga::FpgaDevice> fpga_dev;

  // Channels: one token FIFO per edge; edge index parallel to graph.channels().
  std::vector<std::unique_ptr<sim::Fifo<int>>> fifos;
  // Per-stage plans, indexed by TaskId.
  std::vector<StagePlan> stages;

  ModelInstance(const TaskGraph& g, const Partition& p, StageRuntime& r,
                const PlatformParams& pp, ModelLevel lvl, int frame_count)
      : graph{g}, partition{p}, runtime{r}, params{pp}, level{lvl}, frames{frame_count} {
    auto names = fifo_names(graph);
    for (std::size_t i = 0; i < graph.channels().size(); ++i) {
      fifos.push_back(std::make_unique<sim::Fifo<int>>(
          kernel, std::move(names[i]), graph.channels()[i].fifo_capacity));
    }
    if (level != ModelLevel::untimed_functional) build_platform();
    resolve_stages();
  }

  void build_platform() {
    partition.validate(graph);
    bus = std::make_unique<tlm::Bus>(kernel, "bus",
                                     tlm::Bus::Config{params.bus_hz, 1, 1});
    ram = std::make_unique<tlm::Memory>("ram", bus->clock_period(),
                                        tlm::Memory::Config{1, 0});
    flash = std::make_unique<tlm::Memory>("flash", bus->clock_period(),
                                          tlm::Memory::Config{4, 1});
    bus->map(kRamBase, 0x1000'0000, *ram);
    bus->map(params.fpga.bitstream_base, 0x1000'0000, *flash);
    cpu_model = std::make_unique<cpu::CpuModel>(kernel, "cpu", params.cpu, *bus);

    if (level == ModelLevel::reconfigurable) {
      auto context_map = partition.contexts();
      if (!context_map.empty()) {
        std::vector<fpga::ContextConfig> contexts;
        for (auto& [name, tasks] : context_map) {
          fpga::ContextConfig ctx;
          ctx.name = name;
          ctx.functions = tasks;
          ctx.bitstream_words = params.default_bitstream_words;
          double area = 0.0;
          for (const auto& t : tasks) {
            area += 200.0 + static_cast<double>(graph.task(t).ops_per_frame) / 1000.0;
          }
          ctx.area_units = area;
          contexts.push_back(std::move(ctx));
        }
        fpga_dev = std::make_unique<fpga::FpgaDevice>(kernel, "efpga",
                                                      std::move(contexts), *bus,
                                                      params.fpga);
      }
    }
  }

  /// Resolves every stage's plan: ports at every level, and at levels 2/3
  /// the effective mapping, FPGA indices and boundary-crossing transfers in
  /// channel order, the runtime's extra read last.
  void resolve_stages() {
    stages.resize(graph.task_count());
    for (const auto& node : graph.tasks()) stages[node.id].node = &node;
    const auto& channels = graph.channels();
    for (std::size_t i = 0; i < channels.size(); ++i) {
      stages[graph.id_of(channels[i].to)].ins.push_back(fifos[i].get());
      stages[graph.id_of(channels[i].from)].outs.push_back(fifos[i].get());
    }
    if (level == ModelLevel::untimed_functional) return;

    for (auto& s : stages) {
      s.mapping = partition.mapping_of(s.node->name);
      if (s.mapping != Mapping::fpga) continue;
      // Level 2 does not yet distinguish hardwired from soft hardware: only
      // level 3 builds the FPGA.
      if (fpga_dev == nullptr) {
        s.mapping = Mapping::hardware;
        continue;
      }
      s.context = fpga_dev->context_index(partition.context_of(s.node->name));
      s.function = fpga_dev->function_index(s.node->name);
    }
    for (std::size_t i = 0; i < channels.size(); ++i) {
      const auto& edge = channels[i];
      if (edge.words_per_frame == 0 || !partition.crosses_boundary(edge)) continue;
      const Crossing crossing{edge_buffer_address(i), edge.words_per_frame};
      stages[graph.id_of(edge.to)].reads.push_back(crossing);
      stages[graph.id_of(edge.from)].writes.push_back(crossing);
    }
    for (auto& s : stages) {
      const std::uint32_t extra = runtime.extra_read_words(*s.node);
      if (extra > 0) s.reads.push_back(Crossing{kExtraReadAddress, extra});
    }
  }

  [[nodiscard]] std::uint64_t edge_buffer_address(std::size_t edge_index) const {
    return kRamBase + 0x0010'0000 + edge_index * kEdgeBufferStride;
  }

  /// Bus transfers of `crossings` issued by `initiator`, one burst stream
  /// each.
  sim::Task<void> transfer(const std::vector<Crossing>& crossings, tlm::Command cmd,
                           const char* initiator) {
    for (const auto& crossing : crossings) {
      co_await bus->stream(tlm::Payload{cmd, crossing.address, crossing.words, initiator},
                           kMaxBurstBeats);
    }
  }

  [[nodiscard]] bool cpu_hosted(const StagePlan& s) const {
    return level != ModelLevel::untimed_functional && s.mapping != Mapping::hardware;
  }

  /// Executes one stage's data semantics plus its timing/transfers, records
  /// the trace. (Token movement is handled by the caller.) An empty transfer
  /// list is skipped: it would finish without a kernel event anyway.
  sim::Task<void> execute_with_timing(const StagePlan& s, int frame) {
    const std::uint64_t ops = runtime.execute_stage(*s.node, frame);
    const char* initiator = s.node->name.c_str();

    if (level != ModelLevel::untimed_functional) {
      switch (s.mapping) {
        case Mapping::software: {
          if (!s.reads.empty()) co_await transfer(s.reads, tlm::Command::read, initiator);
          co_await cpu_model->execute(ops);
          if (!s.writes.empty()) co_await transfer(s.writes, tlm::Command::write, initiator);
          break;
        }
        case Mapping::hardware: {
          // The hardwired block masters its own transfers.
          if (!s.reads.empty()) co_await transfer(s.reads, tlm::Command::read, initiator);
          const double cycles = static_cast<double>(ops) / params.hw_ops_per_cycle;
          co_await kernel.wait(sim::Time::cycles(
              static_cast<std::int64_t>(cycles) + 1,
              sim::Time::period_of_hz(params.bus_hz)));
          if (!s.writes.empty()) co_await transfer(s.writes, tlm::Command::write, initiator);
          break;
        }
        case Mapping::fpga: {
          // Software initiates the reconfiguration and the data movement
          // (paper §3.3: "the software is lonely responsible for initiating
          // an FPGA reconfiguration").
          co_await fpga_dev->load_context(s.context);
          if (!s.reads.empty()) co_await transfer(s.reads, tlm::Command::read, initiator);
          co_await fpga_dev->run_function(s.function, ops);
          if (!s.writes.empty()) co_await transfer(s.writes, tlm::Command::write, initiator);
          break;
        }
      }
    }
    trace.record(kernel.now(), s.node->name, runtime.trace_value(*s.node, frame));
  }

  /// The per-task process used at level 1 (all tasks) and for hardwired HW
  /// blocks at levels 2/3: true pipeline concurrency.
  sim::Process task_process(TaskId task) {
    const StagePlan& s = stages[task];
    for (int frame = 0; frame < frames; ++frame) {
      for (auto* f : s.ins) (void)co_await f->read();
      if (s.ins.empty()) runtime.begin_frame(frame);
      co_await execute_with_timing(s, frame);
      for (auto* f : s.outs) co_await f->write(frame);
    }
  }

  /// The collapsed SW task of levels 2/3 (paper §4.1: "SW modules have been
  /// collapsed to a single large SW task ... a simple cyclostatic scheduling
  /// for the 10 original SystemC modules"): one process executes every
  /// CPU-hosted stage in topological order, frame by frame. FPGA stages run
  /// inside this schedule because the software initiates them.
  sim::Process cpu_process(std::vector<TaskId> schedule) {
    for (int frame = 0; frame < frames; ++frame) {
      for (const TaskId task : schedule) {
        const StagePlan& s = stages[task];
        for (auto* f : s.ins) (void)co_await f->read();
        if (s.ins.empty()) runtime.begin_frame(frame);
        co_await execute_with_timing(s, frame);
        for (auto* f : s.outs) co_await f->write(frame);
      }
    }
  }
};

}  // namespace

SystemModel::SystemModel(TaskGraph graph, Partition partition, StageRuntime& runtime,
                         PlatformParams params, ModelLevel level)
    : graph_{std::move(graph)},
      partition_{std::move(partition)},
      runtime_{&runtime},
      params_{std::move(params)},
      level_{level},
      order_{graph_.topological_ids()} {}

PerformanceReport SystemModel::run(int frames) {
  if (frames <= 0) throw std::invalid_argument{"system_model: frames must be positive"};
  runtime_->reset_run();
  ModelInstance instance{graph_, partition_, *runtime_, params_, level_, frames};
  std::vector<TaskId> cpu_schedule;
  for (const TaskId task : order_) {
    if (instance.cpu_hosted(instance.stages[task])) {
      cpu_schedule.push_back(task);
    } else {
      instance.kernel.spawn(instance.task_process(task), graph_.tasks()[task].name);
    }
  }
  if (!cpu_schedule.empty()) {
    instance.kernel.spawn(instance.cpu_process(std::move(cpu_schedule)), "cpu.sw_task");
  }

  const auto wall_start = std::chrono::steady_clock::now();
  instance.kernel.run();
  const auto wall_end = std::chrono::steady_clock::now();

  PerformanceReport report;
  report.frames = frames;
  report.elapsed = instance.kernel.now();
  report.kernel_callbacks = instance.kernel.callbacks_executed();
  report.delta_cycles = instance.kernel.delta_cycles();
  report.host.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  report.trace = std::move(instance.trace);
  for (std::size_t i = 0; i < instance.fifos.size(); ++i) {
    report.fifo_peaks[instance.fifos[i]->name()] = instance.fifos[i]->peak_size();
  }
  if (!report.elapsed.is_zero()) {
    report.frames_per_second = frames / report.elapsed.to_seconds();
  }
  if (instance.bus != nullptr) {
    report.bus_beats = instance.bus->beats_transferred();
    report.bus_transactions = instance.bus->transactions();
    const double elapsed_s = report.elapsed.to_seconds();
    report.bus_load =
        elapsed_s <= 0.0 ? 0.0 : instance.bus->busy_time().to_seconds() / elapsed_s;
    if (report.host.wall_seconds > 0.0) {
      const double sim_cycles = report.elapsed.to_seconds() * params_.bus_hz;
      report.host.sim_cycles_per_wall_second = sim_cycles / report.host.wall_seconds;
    }
  }
  if (instance.cpu_model != nullptr && !report.elapsed.is_zero()) {
    report.cpu_utilisation =
        instance.cpu_model->busy_time().to_seconds() / report.elapsed.to_seconds();
  }
  if (instance.fpga_dev != nullptr) {
    report.reconfigurations = instance.fpga_dev->reconfiguration_count();
    report.reconfiguration_time = instance.fpga_dev->reconfiguration_time();
    report.consistency_violations = instance.fpga_dev->violations().size();
  }
  // HostMetrics is a per-run view; the registry's host.* gauges are the
  // aggregated source of truth for host time (wall seconds accumulate
  // across runs, the kHz figure is last-run).
  struct HostObs {
    obs::Gauge wall_seconds, cycles_per_wall_second;
  };
  static const HostObs gauges{
      obs::Registry::instance().gauge("host.sim.wall_seconds"),
      obs::Registry::instance().gauge("host.sim.cycles_per_wall_second"),
  };
  gauges.wall_seconds.add(report.host.wall_seconds);
  gauges.cycles_per_wall_second.set(report.host.sim_cycles_per_wall_second);
  return report;
}

}  // namespace symbad::core
