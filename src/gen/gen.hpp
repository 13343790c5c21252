#pragma once
// Seeded platform generator: random task graphs, HW/SW/FPGA partitions,
// platform parameter sets and gate-level netlists across three size tiers.
//
// Everything the repo verifies was, until this module, the paper's single
// face-recognition platform plus a handful of seed netlists. `gen` scales
// the corpus: one `uint64_t` seed deterministically expands into a complete
// design point — task graph, partition with a movable-task set for the
// explorer, platform parameters, a bursty traffic stream (gen/traffic.hpp)
// and an `rtl::Netlist` — so campaigns and the model checker are exercised
// on platforms nobody hand-picked.
//
// Determinism contract: all randomness is drawn from `verif::Rng` streams
// forked from the seed with fixed salts; no host state, time, iteration
// order or address ever feeds a draw. The same seed therefore reproduces a
// byte-identical platform on every machine, and `tests/corpus/` pins golden
// digests so generator drift fails loudly (change the recipe -> regenerate
// the manifest in the same commit).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/partition.hpp"
#include "core/system_model.hpp"
#include "core/task_graph.hpp"
#include "exec/campaign.hpp"
#include "exec/scenario.hpp"
#include "gen/traffic.hpp"
#include "media/face_gen.hpp"
#include "rtl/netlist.hpp"
#include "verif/rng.hpp"

namespace symbad::gen {

// ------------------------------------------------------------- size tiers

/// Design-point size class. Tier values are stable (the SYMBAD_GEN_TIER
/// knob and the corpus manifest use them numerically).
enum class SizeTier : int { small = 0, medium = 1, large = 2 };

inline constexpr int kTierCount = 3;

[[nodiscard]] constexpr const char* to_string(SizeTier t) noexcept {
  switch (t) {
    case SizeTier::small: return "small";
    case SizeTier::medium: return "medium";
    case SizeTier::large: return "large";
  }
  return "?";
}

/// Inclusive structural bounds per tier. Pinned by test_gen: every
/// generated design point must land inside its tier's box.
struct TierBounds {
  int min_tasks, max_tasks;      ///< task-graph nodes
  int min_inputs, max_inputs;    ///< netlist primary inputs
  int min_dffs, max_dffs;        ///< netlist flip-flops
  int min_gates, max_gates;      ///< netlist combinational budget
  int min_outputs, max_outputs;  ///< netlist primary outputs
};

[[nodiscard]] constexpr TierBounds tier_bounds(SizeTier t) noexcept {
  switch (t) {
    case SizeTier::small:
      return TierBounds{4, 6, 3, 5, 2, 4, 40, 80, 2, 3};
    case SizeTier::medium:
      return TierBounds{7, 10, 4, 7, 3, 6, 120, 240, 3, 5};
    case SizeTier::large:
      return TierBounds{11, 16, 6, 10, 5, 9, 300, 600, 4, 6};
  }
  return TierBounds{};
}

// -------------------------------------------------------------- netlists

/// Shape of one random netlist. `redundancy` is the probability a gate is a
/// deliberately redundant construction (structural duplicate, double
/// negation, x&x, x&~x, equal-arm mux) so the CNF encoder's folds have
/// real work; set it <= 0 to skip the redundancy draw entirely (clean
/// stream for consumers that want plain random logic).
struct NetlistShape {
  int inputs = 4;
  int dffs = 2;
  int gates = 40;
  int outputs = 3;
  double redundancy = 0.25;
};

/// Seeded random netlist over every GateKind (dff and mux included). The
/// recipe: a pool of nets seeded with inputs, flip-flops and both
/// constants; each new gate either injects redundancy or draws a random
/// gate over pool picks; flip-flop next-states close sequential loops;
/// outputs bias towards late nets for deep cones.
[[nodiscard]] rtl::Netlist random_netlist(verif::Rng& rng, const NetlistShape& shape,
                                          std::string name = "fuzz");

/// Tier-shaped netlist from a bare seed: the shape is drawn from
/// `tier_bounds(tier)` and the structure from the recipe above, all from
/// streams forked off `seed`.
[[nodiscard]] rtl::Netlist generate_netlist(std::uint64_t seed, SizeTier tier);

// -------------------------------------------------------------- platforms

/// One generated design point: everything a campaign, the explorer or a
/// differential test needs, reproducible from (seed, tier) alone.
struct GeneratedPlatform {
  std::uint64_t seed = 0;
  SizeTier tier = SizeTier::small;
  core::TaskGraph graph;
  core::Partition partition;
  /// Tasks the explorer may move between SW/HW/FPGA (never the source).
  std::vector<std::string> movable;
  core::PlatformParams params;
  TrafficModel traffic;  ///< == traffic_for(seed)
};

/// The traffic stream belonging to platform seed `seed` (options and stream
/// seed are both derived from it). Exposed so runtime factories can rebuild
/// the stream from a `Scenario::seed` without shipping the model.
[[nodiscard]] TrafficModel traffic_for(std::uint64_t seed);

/// Expands (seed, tier) into a complete platform. The task graph is a
/// forward DAG with a single source (task 0), so every generated platform
/// is deadlock-free under bounded FIFOs at all three model levels.
[[nodiscard]] GeneratedPlatform generate_platform(std::uint64_t seed, SizeTier tier);

/// Deterministic query schedule for driving the media pipeline with the
/// platform's traffic shape: frame f shows identity/pose drawn from the
/// seed's streams, with burst frames revisiting recent identities (cache-
/// unfriendly re-query pattern).
[[nodiscard]] std::vector<media::QueryRequest> query_schedule(std::uint64_t seed,
                                                              int frames,
                                                              int identities);

// --------------------------------------------------------------- digests

// FNV-1a digests over a canonical serialization — the corpus currency.
// Field order is part of the format: changing it is generator drift and
// must re-record tests/corpus/manifest.txt.
[[nodiscard]] std::uint64_t graph_digest(const core::TaskGraph& graph);
[[nodiscard]] std::uint64_t partition_digest(const core::TaskGraph& graph,
                                             const core::Partition& partition);
[[nodiscard]] std::uint64_t netlist_digest(const rtl::Netlist& netlist);
/// Whole-platform digest: graph, partition, movable set, platform
/// parameters and the first `frames` traffic frame loads.
[[nodiscard]] std::uint64_t platform_digest(const GeneratedPlatform& platform,
                                            int frames = 8);

// ------------------------------------------------------------ env / sweep

/// Sweep shape for generative test suites, overridable per-run via strict
/// environment knobs (core::parse_env_int — garbage throws, never falls
/// back): SYMBAD_GEN_COUNT in [1, 4096] platforms per tier, SYMBAD_GEN_TIER
/// in [0, 2] to restrict a sweep to one tier, SYMBAD_GEN_SEED as the base
/// seed the per-platform seeds derive from.
struct SweepConfig {
  int count = 20;                 ///< platforms per tier
  std::optional<SizeTier> tier;   ///< restrict to one tier (nullopt = all)
  std::uint64_t base_seed = 0x5EEDBAD04ULL;

  [[nodiscard]] static SweepConfig from_env();

  /// The i-th platform seed of this sweep (decorrelated, not base_seed+i).
  [[nodiscard]] std::uint64_t seed_at(int i) const noexcept {
    return verif::Rng{base_seed}.fork(static_cast<std::uint64_t>(i)).next();
  }
  [[nodiscard]] std::vector<SizeTier> tiers() const {
    if (tier.has_value()) return {*tier};
    return {SizeTier::small, SizeTier::medium, SizeTier::large};
  }
};

// ------------------------------------------------------------- campaigns

/// One scenario group per refinement level for a generated platform, with
/// the platform seed stamped into every scenario (the runtime factory
/// rebuilds traffic and stage semantics from it).
[[nodiscard]] std::vector<exec::Scenario> cross_level_scenarios_for(
    const GeneratedPlatform& platform, int frames,
    const std::vector<core::ModelLevel>& levels = {
        core::ModelLevel::untimed_functional, core::ModelLevel::timed_platform,
        core::ModelLevel::reconfigurable});

/// Campaign runtime factory for generated platforms: builds a
/// `SyntheticRuntime` (gen/runtime.hpp) from each scenario's graph + seed.
/// Stateless and thread-safe per the CampaignRunner factory contract.
[[nodiscard]] exec::CampaignRunner::RuntimeFactory synthetic_runtime_factory();

}  // namespace symbad::gen
