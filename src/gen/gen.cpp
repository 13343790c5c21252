#include "gen/gen.hpp"

#include <bit>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>

#include "core/env.hpp"
#include "gen/runtime.hpp"
#include "obs/obs.hpp"

namespace symbad::gen {

namespace {

// Fixed fork salts: one independent stream per platform aspect. Values are
// arbitrary but frozen — changing any is generator drift (corpus re-record).
constexpr std::uint64_t kGraphSalt = 0x6765'6E2E'6772'6170ULL;    // "gen.grap"
constexpr std::uint64_t kPartitionSalt = 0x6765'6E2E'7061'7274ULL;  // "gen.part"
constexpr std::uint64_t kParamsSalt = 0x6765'6E2E'7072'6D73ULL;   // "gen.prms"
constexpr std::uint64_t kNetlistSalt = 0x6765'6E2E'6E65'746CULL;  // "gen.netl"
constexpr std::uint64_t kTrafficSalt = 0x6765'6E2E'7472'6166ULL;  // "gen.traf"
constexpr std::uint64_t kQuerySalt = 0x6765'6E2E'7175'7279ULL;    // "gen.qury"

// ------------------------------------------------------------ FNV-1a core

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

struct Digest {
  std::uint64_t h = kFnvOffset;
  void u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= kFnvPrime;
    }
  }
  void i64(std::int64_t v) noexcept { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) noexcept { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) noexcept {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= kFnvPrime;
    }
    u64(s.size());  // length-delimit: "ab","c" != "a","bc"
  }
};

[[nodiscard]] int irange(verif::Rng& rng, int lo, int hi) {
  return static_cast<int>(rng.range(lo, hi));
}

}  // namespace

// --------------------------------------------------------------- netlists

rtl::Netlist random_netlist(verif::Rng& rng, const NetlistShape& shape,
                            std::string name) {
  rtl::Netlist n{std::move(name)};
  std::vector<rtl::Net> pool;
  for (int i = 0; i < shape.inputs; ++i) {
    pool.push_back(n.add_input("i" + std::to_string(i)));
  }
  std::vector<rtl::Net> dffs;
  for (int i = 0; i < shape.dffs; ++i) {
    const rtl::Net d = n.add_dff((rng.next() & 1) != 0, "r" + std::to_string(i));
    dffs.push_back(d);
    pool.push_back(d);
  }
  pool.push_back(n.constant(false));
  pool.push_back(n.constant(true));

  const auto pick = [&] { return pool[static_cast<std::size_t>(rng.below(pool.size()))]; };
  for (int g = 0; g < shape.gates; ++g) {
    rtl::Net fresh = -1;
    // When redundancy is disabled the Bernoulli draw is skipped entirely so
    // clean-logic consumers get an undisturbed stream.
    if (shape.redundancy > 0.0 && rng.chance(shape.redundancy)) {
      // Redundancy injection.
      switch (rng.below(5)) {
        case 0: {  // structural duplicate of an existing binary gate
          const rtl::Net victim = pick();
          const auto& gate = n.gate(victim);
          if (gate.kind == rtl::GateKind::and_gate) {
            fresh = n.add_and(gate.a, gate.b);
          } else if (gate.kind == rtl::GateKind::or_gate) {
            fresh = n.add_or(gate.b, gate.a);  // commuted on purpose
          } else {
            fresh = n.add_xor(victim, victim);  // x ^ x
          }
          break;
        }
        case 1: fresh = n.add_not(n.add_not(pick())); break;
        case 2: { const rtl::Net x = pick(); fresh = n.add_and(x, x); break; }
        case 3: { const rtl::Net x = pick(); fresh = n.add_and(x, n.add_not(x)); break; }
        default: {
          const rtl::Net arm = pick();
          fresh = n.add_mux(pick(), arm, arm);
          break;
        }
      }
    } else {
      switch (rng.below(5)) {
        case 0: fresh = n.add_and(pick(), pick()); break;
        case 1: fresh = n.add_or(pick(), pick()); break;
        case 2: fresh = n.add_xor(pick(), pick()); break;
        case 3: fresh = n.add_not(pick()); break;
        default: fresh = n.add_mux(pick(), pick(), pick()); break;
      }
    }
    pool.push_back(fresh);
  }
  for (const rtl::Net d : dffs) n.connect_next(d, pick());
  // Outputs biased towards late nets so the cones are deep.
  for (int o = 0; o < shape.outputs; ++o) {
    const std::size_t half = pool.size() / 2;
    const std::size_t idx = half + static_cast<std::size_t>(rng.below(pool.size() - half));
    n.set_output("o" + std::to_string(o), pool[idx]);
  }
  n.validate();
  return n;
}

rtl::Netlist generate_netlist(std::uint64_t seed, SizeTier tier) {
  const TierBounds b = tier_bounds(tier);
  verif::Rng rng = verif::Rng{seed}.fork(kNetlistSalt);
  NetlistShape shape;
  shape.inputs = irange(rng, b.min_inputs, b.max_inputs);
  shape.dffs = irange(rng, b.min_dffs, b.max_dffs);
  shape.gates = irange(rng, b.min_gates, b.max_gates);
  shape.outputs = irange(rng, b.min_outputs, b.max_outputs);
  rtl::Netlist n = random_netlist(
      rng, shape,
      std::string{"gen."} + to_string(tier) + "." + std::to_string(seed));
  struct GenNetlistObs {
    obs::Counter netlists, gates;
  };
  static const GenNetlistObs counters{
      obs::Registry::instance().counter("gen.netlists"),
      obs::Registry::instance().counter("gen.gates"),
  };
  counters.netlists.inc();
  counters.gates.add(n.gate_count());
  return n;
}

// -------------------------------------------------------------- platforms

TrafficModel traffic_for(std::uint64_t seed) {
  verif::Rng rng = verif::Rng{seed}.fork(kTrafficSalt);
  TrafficOptions o;
  o.base_requests = static_cast<std::uint32_t>(rng.range(1, 3));
  // Probabilities/exponents via integer draws so the doubles are exact.
  o.burst_prob = static_cast<double>(rng.range(15, 40)) / 100.0;
  o.pareto_alpha = static_cast<double>(rng.range(11, 20)) / 10.0;
  o.max_burst = static_cast<std::uint32_t>(rng.range(16, 64));
  o.words_per_request = 16u * static_cast<std::uint32_t>(rng.range(1, 4));
  return TrafficModel{rng.next(), o};
}

GeneratedPlatform generate_platform(std::uint64_t seed, SizeTier tier) {
  OBS_SPAN("gen.generate_platform");
  const TierBounds b = tier_bounds(tier);
  GeneratedPlatform p;
  p.seed = seed;
  p.tier = tier;

  // --- task graph: forward DAG, single source ------------------------
  verif::Rng grng = verif::Rng{seed}.fork(kGraphSalt);
  const int n_tasks = irange(grng, b.min_tasks, b.max_tasks);
  for (int i = 0; i < n_tasks; ++i) {
    // Per-frame op counts span ~2k..80k (the paper's stage profile range).
    const auto ops = 1000ull * static_cast<std::uint64_t>(grng.range(2, 80));
    p.graph.add_task("t" + std::to_string(i), ops);
  }
  for (int i = 1; i < n_tasks; ++i) {
    // Every non-source task gets 1..3 distinct predecessors with smaller
    // indices: the graph is a forward DAG and t0 is the only source, which
    // keeps every generated platform deadlock-free under bounded FIFOs.
    const int want = 1 + static_cast<int>(grng.below(static_cast<std::uint64_t>(
                             i < 3 ? i : 3)));
    std::set<int> preds;
    while (static_cast<int>(preds.size()) < want) {
      preds.insert(static_cast<int>(grng.below(static_cast<std::uint64_t>(i))));
    }
    for (const int j : preds) {
      const auto words = 16u * static_cast<std::uint32_t>(grng.below(13));  // 0..192
      const auto capacity = static_cast<std::size_t>(grng.range(1, 3));
      p.graph.add_channel("t" + std::to_string(j), "t" + std::to_string(i), words,
                          capacity);
    }
  }

  // --- partition + movable set ---------------------------------------
  verif::Rng prng = verif::Rng{seed}.fork(kPartitionSalt);
  const int n_contexts = irange(prng, 1, 2);
  p.partition.bind_software("t0");  // the source stays on the CPU
  for (int i = 1; i < n_tasks; ++i) {
    const std::string task = "t" + std::to_string(i);
    const std::uint64_t r = prng.below(100);
    if (r < 55) {
      p.partition.bind_software(task);
    } else if (r < 80) {
      p.partition.bind_hardware(task);
    } else {
      p.partition.bind_fpga(task,
                            "ctx" + std::to_string(prng.below(
                                        static_cast<std::uint64_t>(n_contexts))));
    }
    if (p.movable.size() < 8 && prng.chance(0.5)) p.movable.push_back(task);
  }
  p.partition.validate(p.graph);

  // --- platform parameters -------------------------------------------
  verif::Rng rrng = verif::Rng{seed}.fork(kParamsSalt);
  p.params.bus_hz = 1e6 * static_cast<double>(rrng.range(25, 100));
  p.params.cpu.clock_hz = 1e6 * static_cast<double>(rrng.range(40, 200));
  p.params.cpu.cycles_per_op = static_cast<double>(rrng.range(12, 24)) / 10.0;
  p.params.cpu.memory_op_fraction = static_cast<double>(rrng.range(10, 40)) / 100.0;
  p.params.hw_ops_per_cycle = static_cast<double>(2ull << rrng.below(3));  // 2/4/8
  p.params.fpga.fabric_clock_hz = 1e6 * static_cast<double>(rrng.range(20, 50));
  p.params.fpga.ops_per_cycle = static_cast<double>(4ull << rrng.below(2));  // 4/8
  p.params.default_bitstream_words = 512u * static_cast<std::uint32_t>(rrng.range(2, 8));

  p.traffic = traffic_for(seed);
  struct GenPlatformObs {
    obs::Counter platforms, tasks;
  };
  static const GenPlatformObs counters{
      obs::Registry::instance().counter("gen.platforms"),
      obs::Registry::instance().counter("gen.tasks"),
  };
  counters.platforms.inc();
  counters.tasks.add(static_cast<std::uint64_t>(n_tasks));
  return p;
}

std::vector<media::QueryRequest> query_schedule(std::uint64_t seed, int frames,
                                                int identities) {
  if (frames <= 0) throw std::invalid_argument{"query_schedule: frames must be positive"};
  if (identities <= 0) throw std::invalid_argument{"query_schedule: no identities"};
  const TrafficModel traffic = traffic_for(seed);
  std::vector<media::QueryRequest> schedule;
  schedule.reserve(static_cast<std::size_t>(frames));
  int last_identity = 0;
  for (int f = 0; f < frames; ++f) {
    verif::Rng rng =
        verif::Rng{seed}.fork(kQuerySalt + static_cast<std::uint64_t>(f));
    media::QueryRequest q;
    // Burst frames re-query the previous identity (hammering one template),
    // calm frames pick uniformly — the access pattern the traffic model
    // imposes on the recognition database.
    const bool burst = traffic.frame_load(f).burst > 0;
    q.identity = (burst && f > 0)
                     ? last_identity
                     : static_cast<int>(rng.below(static_cast<std::uint64_t>(identities)));
    q.pose.dx = irange(rng, -2, 2);
    q.pose.dy = irange(rng, -2, 2);
    q.pose.rot_deg = irange(rng, -4, 4);
    q.pose.scale_q8 = irange(rng, 248, 264);
    q.pose.light_offset = irange(rng, 0, 8);
    q.pose.noise_amp = irange(rng, 1, 3);
    q.pose.noise_seed = rng.next();
    last_identity = q.identity;
    schedule.push_back(q);
  }
  return schedule;
}

// ---------------------------------------------------------------- digests

std::uint64_t graph_digest(const core::TaskGraph& graph) {
  Digest d;
  d.u64(graph.tasks().size());
  for (const auto& t : graph.tasks()) {
    d.str(t.name);
    d.u64(t.ops_per_frame);
  }
  d.u64(graph.channels().size());
  for (const auto& c : graph.channels()) {
    d.str(c.from);
    d.str(c.to);
    d.u64(c.words_per_frame);
    d.u64(c.fifo_capacity);
  }
  return d.h;
}

std::uint64_t partition_digest(const core::TaskGraph& graph,
                               const core::Partition& partition) {
  Digest d;
  for (const auto& t : graph.tasks()) {
    d.str(t.name);
    const core::Mapping m = partition.mapping_of(t.name);
    d.u64(static_cast<std::uint64_t>(m));
    if (m == core::Mapping::fpga) d.str(partition.context_of(t.name));
  }
  return d.h;
}

std::uint64_t netlist_digest(const rtl::Netlist& netlist) {
  Digest d;
  d.u64(netlist.gate_count());
  for (std::size_t i = 0; i < netlist.gate_count(); ++i) {
    const auto& g = netlist.gate(static_cast<rtl::Net>(i));
    d.u64(static_cast<std::uint64_t>(g.kind));
    d.i64(g.a);
    d.i64(g.b);
    d.i64(g.c);
    d.u64(g.init ? 1 : 0);
  }
  for (const rtl::Net in : netlist.inputs()) {
    d.i64(in);
    d.str(netlist.net_name(in));
  }
  for (const rtl::Net ff : netlist.flip_flops()) d.i64(ff);
  for (const auto& [name, net] : netlist.outputs()) {
    d.str(name);
    d.i64(net);
  }
  return d.h;
}

std::uint64_t platform_digest(const GeneratedPlatform& platform, int frames) {
  Digest d;
  d.u64(platform.seed);
  d.u64(static_cast<std::uint64_t>(platform.tier));
  d.u64(graph_digest(platform.graph));
  d.u64(partition_digest(platform.graph, platform.partition));
  d.u64(platform.movable.size());
  for (const auto& t : platform.movable) d.str(t);
  d.f64(platform.params.bus_hz);
  d.f64(platform.params.cpu.clock_hz);
  d.f64(platform.params.cpu.cycles_per_op);
  d.f64(platform.params.cpu.memory_op_fraction);
  d.f64(platform.params.hw_ops_per_cycle);
  d.f64(platform.params.fpga.fabric_clock_hz);
  d.f64(platform.params.fpga.ops_per_cycle);
  d.u64(platform.params.default_bitstream_words);
  d.u64(platform.traffic.stream_digest(frames));
  return d.h;
}

// ------------------------------------------------------------- env / sweep

SweepConfig SweepConfig::from_env() {
  SweepConfig cfg;
  if (const auto count = core::parse_env_int("SYMBAD_GEN_COUNT", 1, 4096)) {
    cfg.count = static_cast<int>(*count);
  }
  if (const auto tier = core::parse_env_int("SYMBAD_GEN_TIER", 0, 2)) {
    cfg.tier = static_cast<SizeTier>(*tier);
  }
  if (const auto seed = core::parse_env_int("SYMBAD_GEN_SEED", 0,
                                            std::numeric_limits<long>::max())) {
    cfg.base_seed = static_cast<std::uint64_t>(*seed);
  }
  return cfg;
}

// -------------------------------------------------------------- campaigns

std::vector<exec::Scenario> cross_level_scenarios_for(
    const GeneratedPlatform& platform, int frames,
    const std::vector<core::ModelLevel>& levels) {
  const std::string group = std::string{"gen/"} + to_string(platform.tier) + "/s" +
                            std::to_string(platform.seed);
  return exec::cross_level_scenarios(group, platform.graph, platform.partition,
                                     platform.params, frames, levels, platform.seed);
}

exec::CampaignRunner::RuntimeFactory synthetic_runtime_factory() {
  return [](const exec::Scenario& scenario) -> std::unique_ptr<core::StageRuntime> {
    return std::make_unique<SyntheticRuntime>(scenario.graph, scenario.seed);
  };
}

}  // namespace symbad::gen
