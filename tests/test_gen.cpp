// Tests for the seeded platform generator (src/gen): netlist / platform /
// traffic determinism, size-tier invariants, strict SYMBAD_GEN_* knob
// parsing, campaign worker-count invariance over generated platforms,
// explorer integration, query schedules for the media pipeline, and the
// committed seed corpus (tests/corpus/manifest.txt golden digests).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/face_system.hpp"
#include "core/analytic.hpp"
#include "core/env.hpp"
#include "core/explorer.hpp"
#include "exec/campaign.hpp"
#include "exec/scenario.hpp"
#include "gen/gen.hpp"
#include "gen/runtime.hpp"
#include "gen/traffic.hpp"
#include "media/database.hpp"
#include "support/test_util.hpp"

namespace app = symbad::app;
namespace core = symbad::core;
namespace exec = symbad::exec;
namespace gen = symbad::gen;
namespace media = symbad::media;
namespace sim = symbad::sim;
namespace verif = symbad::verif;
namespace stage = symbad::media::stage;

using symbad::test::EnvGuard;

namespace {

constexpr gen::SizeTier kAllTiers[] = {gen::SizeTier::small, gen::SizeTier::medium,
                                       gen::SizeTier::large};

/// A few decorrelated seeds, derived the same way the sweeps derive theirs
/// (so tests and corpus exercise the same stream shape).
std::vector<std::uint64_t> sample_seeds(int count) {
  gen::SweepConfig cfg;
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < count; ++i) seeds.push_back(cfg.seed_at(i));
  return seeds;
}

}  // namespace

// -------------------------------------------------------------- netlists

TEST(GenNetlist, SameSeedReproducesBitIdenticalNetlist) {
  for (const auto tier : kAllTiers) {
    for (const auto seed : sample_seeds(3)) {
      const auto a = gen::generate_netlist(seed, tier);
      const auto b = gen::generate_netlist(seed, tier);
      EXPECT_EQ(gen::netlist_digest(a), gen::netlist_digest(b))
          << gen::to_string(tier) << " seed " << seed;
    }
  }
}

TEST(GenNetlist, DifferentSeedsAndTiersDecorrelate) {
  const auto seeds = sample_seeds(2);
  EXPECT_NE(gen::netlist_digest(gen::generate_netlist(seeds[0], gen::SizeTier::small)),
            gen::netlist_digest(gen::generate_netlist(seeds[1], gen::SizeTier::small)));
  EXPECT_NE(gen::netlist_digest(gen::generate_netlist(seeds[0], gen::SizeTier::small)),
            gen::netlist_digest(gen::generate_netlist(seeds[0], gen::SizeTier::medium)));
}

TEST(GenNetlist, TierInvariantsHold) {
  // Every generated netlist lands inside its tier's structural box. The
  // total gate count includes inputs, flip-flops, the two constants and any
  // extra nets redundancy constructions add (at most one per budgeted
  // gate), hence the loose upper bound.
  for (const auto tier : kAllTiers) {
    const auto b = gen::tier_bounds(tier);
    for (const auto seed : sample_seeds(4)) {
      const auto n = gen::generate_netlist(seed, tier);
      const auto inputs = static_cast<int>(n.inputs().size());
      const auto dffs = static_cast<int>(n.flip_flops().size());
      const auto outputs = static_cast<int>(n.outputs().size());
      EXPECT_GE(inputs, b.min_inputs) << gen::to_string(tier) << " seed " << seed;
      EXPECT_LE(inputs, b.max_inputs);
      EXPECT_GE(dffs, b.min_dffs);
      EXPECT_LE(dffs, b.max_dffs);
      EXPECT_GE(outputs, b.min_outputs);
      EXPECT_LE(outputs, b.max_outputs);
      EXPECT_GE(n.gate_count(), static_cast<std::size_t>(b.min_gates));
      EXPECT_LE(n.gate_count(), static_cast<std::size_t>(2 * b.max_gates +
                                                         b.max_inputs + b.max_dffs + 2));
    }
  }
}

TEST(GenNetlist, RedundancyZeroSkipsTheBernoulliDraw) {
  // With redundancy disabled the recipe must not consume the chance() draw:
  // two generators running the clean recipe from the same stream position
  // (one at 0.0, one at a negative setting) stay in lockstep.
  auto a = symbad::test::rng("gen_clean_stream");
  auto b = symbad::test::rng("gen_clean_stream");
  (void)gen::random_netlist(a, {3, 2, 10, 2, 0.0}, "clean");
  (void)gen::random_netlist(b, {3, 2, 10, 2, -1.0}, "clean");
  EXPECT_EQ(a.next(), b.next());  // identical stream positions afterwards
}

// -------------------------------------------------------------- platforms

TEST(GenPlatform, SameSeedReproducesByteIdenticalPlatform) {
  for (const auto tier : kAllTiers) {
    for (const auto seed : sample_seeds(3)) {
      const auto a = gen::generate_platform(seed, tier);
      const auto b = gen::generate_platform(seed, tier);
      EXPECT_EQ(gen::graph_digest(a.graph), gen::graph_digest(b.graph));
      EXPECT_EQ(gen::partition_digest(a.graph, a.partition),
                gen::partition_digest(b.graph, b.partition));
      EXPECT_EQ(a.traffic.stream_digest(64), b.traffic.stream_digest(64));
      EXPECT_EQ(gen::platform_digest(a), gen::platform_digest(b))
          << gen::to_string(tier) << " seed " << seed;
    }
  }
}

TEST(GenPlatform, TierBoundsSingleSourceAndValidPartition) {
  for (const auto tier : kAllTiers) {
    const auto b = gen::tier_bounds(tier);
    for (const auto seed : sample_seeds(4)) {
      const auto p = gen::generate_platform(seed, tier);
      const auto n_tasks = static_cast<int>(p.graph.tasks().size());
      EXPECT_GE(n_tasks, b.min_tasks) << gen::to_string(tier) << " seed " << seed;
      EXPECT_LE(n_tasks, b.max_tasks);
      // Forward DAG with exactly one source: t0 (deadlock freedom under
      // bounded FIFOs relies on this shape).
      const auto sources = p.graph.sources();
      ASSERT_EQ(sources.size(), 1u);
      EXPECT_EQ(sources[0], "t0");
      EXPECT_NO_THROW((void)p.graph.topological_order());
      EXPECT_NO_THROW(p.partition.validate(p.graph));
      // The movable set never contains the source and stays bounded.
      EXPECT_LE(p.movable.size(), 8u);
      for (const auto& task : p.movable) {
        EXPECT_NE(task, "t0");
        EXPECT_TRUE(p.graph.has_task(task));
      }
    }
  }
}

// ---------------------------------------------------------------- traffic

TEST(GenTraffic, FrameLoadsArePureFunctionsOfSeedAndFrame) {
  const auto model = gen::traffic_for(sample_seeds(1)[0]);
  const auto& opts = model.options();
  // Forward sweep, then random-access in reverse: identical loads — no
  // hidden iteration state.
  std::vector<gen::TrafficModel::FrameLoad> forward;
  for (int f = 0; f < 32; ++f) forward.push_back(model.frame_load(f));
  for (int f = 31; f >= 0; --f) {
    const auto load = model.frame_load(f);
    const auto& want = forward[static_cast<std::size_t>(f)];
    EXPECT_EQ(load.requests, want.requests);
    EXPECT_EQ(load.burst, want.burst);
    EXPECT_EQ(load.ops_scale_q8, want.ops_scale_q8);
    EXPECT_EQ(load.extra_read_words, want.extra_read_words);
    // Structural invariants of every frame load.
    EXPECT_GE(load.requests, opts.base_requests);
    EXPECT_LE(load.burst, opts.max_burst);
    EXPECT_EQ(load.requests, opts.base_requests + load.burst);
    EXPECT_EQ(load.extra_read_words, load.requests * opts.words_per_request);
  }
  EXPECT_EQ(model.stream_digest(32), model.stream_digest(32));
  EXPECT_NE(model.stream_digest(16), model.stream_digest(32));
}

TEST(GenTraffic, BurstsActuallyOccurAndStayBounded) {
  // Over enough frames the heavy tail must fire at least once (burst_prob
  // >= 0.15 by construction) yet never exceed the cap.
  const auto model = gen::traffic_for(sample_seeds(1)[0]);
  std::uint32_t bursts = 0;
  for (int f = 0; f < 256; ++f) {
    const auto load = model.frame_load(f);
    if (load.burst > 0) ++bursts;
    ASSERT_LE(load.burst, model.options().max_burst);
  }
  EXPECT_GT(bursts, 0u);
  EXPECT_LT(bursts, 256u);  // not every frame is a burst
}

TEST(GenTraffic, ReplayOnTlmBusIsDeterministic) {
  const auto model = gen::traffic_for(sample_seeds(1)[0]);
  const auto a = gen::replay_traffic(model, /*frames=*/12, /*initiators=*/3);
  const auto b = gen::replay_traffic(model, 12, 3);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.beats, b.beats);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.bus_busy, b.bus_busy);
  EXPECT_EQ(a.worst_grant_wait, b.worst_grant_wait);
  EXPECT_EQ(a.total_grant_wait, b.total_grant_wait);
  // The stream really moved data, and the summed-wait statistic can never
  // undercut the worst single wait.
  EXPECT_GT(a.requests, 0u);
  EXPECT_GT(a.transactions, 0u);
  EXPECT_GT(a.beats, 0u);
  EXPECT_GT(a.elapsed, sim::Time::zero());
  EXPECT_GE(a.total_grant_wait, a.worst_grant_wait);
}

TEST(GenTraffic, ReplayMatchesGoldenReport) {
  // Three initiators contending for one bus over 12 frames of a heavy-tailed
  // stream: the report recorded on the per-burst bus model.
  const auto r =
      gen::replay_traffic(gen::traffic_for(sample_seeds(1)[0]), /*frames=*/12,
                          /*initiators=*/3);
  EXPECT_EQ(r.requests, 126u);
  EXPECT_EQ(r.transactions, 126u);
  EXPECT_EQ(r.beats, 6048u);
  EXPECT_EQ(r.elapsed, sim::Time::us(126));
  EXPECT_EQ(r.bus_busy, sim::Time::us(126));
  EXPECT_EQ(r.worst_grant_wait, sim::Time::us(84));
  EXPECT_EQ(r.total_grant_wait, sim::Time::us(127));
}

TEST(GenTraffic, ReplayValidatesArguments) {
  const auto model = gen::traffic_for(1);
  EXPECT_THROW((void)gen::replay_traffic(model, 0), std::invalid_argument);
  EXPECT_THROW((void)gen::replay_traffic(model, 4, 0), std::invalid_argument);
  EXPECT_THROW((void)gen::replay_traffic(model, 4, 65), std::invalid_argument);
}

// ------------------------------------------------------------ env / sweep

TEST(GenEnv, SweepConfigDefaultsWhenUnset) {
  EnvGuard count{"SYMBAD_GEN_COUNT", nullptr};
  EnvGuard tier{"SYMBAD_GEN_TIER", nullptr};
  EnvGuard seed{"SYMBAD_GEN_SEED", nullptr};
  const auto cfg = gen::SweepConfig::from_env();
  EXPECT_EQ(cfg.count, 20);
  EXPECT_FALSE(cfg.tier.has_value());
  EXPECT_EQ(cfg.base_seed, 0x5EEDBAD04ULL);
  EXPECT_EQ(cfg.tiers().size(), 3u);
}

TEST(GenEnv, SweepConfigHonoursKnobs) {
  EnvGuard count{"SYMBAD_GEN_COUNT", "7"};
  EnvGuard tier{"SYMBAD_GEN_TIER", "2"};
  EnvGuard seed{"SYMBAD_GEN_SEED", "12345"};
  const auto cfg = gen::SweepConfig::from_env();
  EXPECT_EQ(cfg.count, 7);
  ASSERT_TRUE(cfg.tier.has_value());
  EXPECT_EQ(*cfg.tier, gen::SizeTier::large);
  EXPECT_EQ(cfg.base_seed, 12345u);
  ASSERT_EQ(cfg.tiers().size(), 1u);
  EXPECT_EQ(cfg.tiers()[0], gen::SizeTier::large);
}

TEST(GenEnv, SweepConfigParsesStrictly) {
  // The determinism contract: garbage knobs throw, they never fall back.
  {
    EnvGuard count{"SYMBAD_GEN_COUNT", "abc"};
    EXPECT_THROW((void)gen::SweepConfig::from_env(), std::invalid_argument);
  }
  {
    EnvGuard count{"SYMBAD_GEN_COUNT", "0"};
    EXPECT_THROW((void)gen::SweepConfig::from_env(), std::invalid_argument);
  }
  {
    EnvGuard count{"SYMBAD_GEN_COUNT", "4097"};
    EXPECT_THROW((void)gen::SweepConfig::from_env(), std::invalid_argument);
  }
  {
    EnvGuard tier{"SYMBAD_GEN_TIER", "3"};
    EXPECT_THROW((void)gen::SweepConfig::from_env(), std::invalid_argument);
  }
  {
    EnvGuard tier{"SYMBAD_GEN_TIER", "-1"};
    EXPECT_THROW((void)gen::SweepConfig::from_env(), std::invalid_argument);
  }
  {
    EnvGuard seed{"SYMBAD_GEN_SEED", "12x"};
    EXPECT_THROW((void)gen::SweepConfig::from_env(), std::invalid_argument);
  }
}

TEST(GenEnv, SweepSeedsAreDecorrelated) {
  const gen::SweepConfig cfg;
  EXPECT_NE(cfg.seed_at(0), cfg.seed_at(1));
  EXPECT_NE(cfg.seed_at(0), cfg.base_seed);
  EXPECT_EQ(cfg.seed_at(5), cfg.seed_at(5));
}

// ------------------------------------------------------------- campaigns

TEST(GenCampaign, GeneratedPlatformsAgreeAcrossLevelsAndWorkerCounts) {
  // One platform per tier, all three refinement levels each, run at several
  // worker counts: traces, agreement verdicts and merged coverage must be
  // byte-identical, and every adjacent-level pair must agree.
  std::vector<exec::Scenario> scenarios;
  const auto seeds = sample_seeds(3);
  for (int i = 0; i < 3; ++i) {
    const auto platform =
        gen::generate_platform(seeds[static_cast<std::size_t>(i)], kAllTiers[i]);
    auto group = gen::cross_level_scenarios_for(platform, /*frames=*/4);
    scenarios.insert(scenarios.end(), group.begin(), group.end());
  }
  ASSERT_EQ(scenarios.size(), 9u);  // 3 platforms x levels 1/2/3

  std::vector<std::vector<std::uint64_t>> fingerprints;
  std::vector<verif::CoverageReport> coverages;
  for (const int workers : {1, 4}) {
    exec::CampaignRunner::Options options;
    options.workers = workers;
    options.collect_coverage = true;
    exec::CampaignRunner runner{gen::synthetic_runtime_factory(), options};
    const auto report = runner.run(scenarios);
    ASSERT_EQ(report.failures(), 0u) << report.to_string();
    ASSERT_EQ(report.agreements.size(), 6u);  // (L1-L2, L2-L3) per platform
    for (const auto& v : report.agreements) {
      EXPECT_TRUE(v.agree) << v.group << ": L" << v.lower_level << " vs L"
                           << v.higher_level << ": " << v.detail;
    }
    std::vector<std::uint64_t> fp;
    for (const auto& r : report.results) fp.push_back(r.report.trace.fingerprint());
    fingerprints.push_back(std::move(fp));
    coverages.push_back(report.coverage);
    EXPECT_GT(report.coverage.statement_total, 0);
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
  EXPECT_EQ(coverages[0].statement_total, coverages[1].statement_total);
  EXPECT_EQ(coverages[0].statement_covered, coverages[1].statement_covered);
  EXPECT_EQ(coverages[0].branch_total, coverages[1].branch_total);
  EXPECT_EQ(coverages[0].branch_covered, coverages[1].branch_covered);
}

TEST(GenCampaign, SyntheticRuntimeTracesArePureAndSeedSensitive) {
  const auto platform =
      gen::generate_platform(sample_seeds(1)[0], gen::SizeTier::small);
  gen::SyntheticRuntime a{platform.graph, platform.seed};
  gen::SyntheticRuntime b{platform.graph, platform.seed};
  const auto& tasks = platform.graph.tasks();
  const auto order = platform.graph.topological_ids();
  // Execute a forward, b in reverse order: trace values must not depend on
  // evaluation order (they are pure functions of (stage, frame)).
  for (int f = 0; f < 3; ++f) {
    for (const auto task : order) (void)a.execute_stage(tasks[task], f);
  }
  for (int f = 2; f >= 0; --f) {
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      (void)b.execute_stage(tasks[*it], f);
    }
  }
  for (int f = 0; f < 3; ++f) {
    for (const auto task : order) {
      EXPECT_EQ(a.trace_value(tasks[task], f), b.trace_value(tasks[task], f))
          << tasks[task].name << " @" << f;
    }
  }
  // A different platform seed shifts every value.
  gen::SyntheticRuntime c{platform.graph, platform.seed ^ 1};
  (void)c.execute_stage(tasks[order[0]], 0);
  EXPECT_NE(a.trace_value(tasks[order[0]], 0), c.trace_value(tasks[order[0]], 0));
  // Stages are addressed by id: one outside the graph, or a negative frame,
  // is rejected instead of indexing past the tables.
  core::TaskNode stranger{"stranger", 0, tasks.size()};
  EXPECT_THROW((void)a.execute_stage(stranger, 0), std::out_of_range);
  EXPECT_THROW((void)a.trace_value(stranger, 0), std::out_of_range);
  EXPECT_THROW((void)a.execute_stage(tasks[order[0]], -1), std::invalid_argument);
}

namespace {

/// FNV-1a over a report's outcome: every simulated (non-`host`) field
/// except the kernel's cost counters — elapsed time, bus traffic,
/// reconfigurations, violations, FIFO peaks, the trace in recording order
/// and its fingerprint. `kernel_callbacks` and `delta_cycles` count what
/// the simulation cost, not what it computed, and are pinned on their own.
std::uint64_t outcome_digest(const core::PerformanceReport& r) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  const auto mix_text = [&mix](const std::string& s) {
    for (const char c : s) mix(static_cast<unsigned char>(c));
    mix(s.size());
  };
  mix(static_cast<std::uint64_t>(r.frames));
  mix(static_cast<std::uint64_t>(r.elapsed.picoseconds()));
  mix(std::bit_cast<std::uint64_t>(r.frames_per_second));
  mix(std::bit_cast<std::uint64_t>(r.bus_load));
  mix(std::bit_cast<std::uint64_t>(r.cpu_utilisation));
  mix(r.bus_beats);
  mix(r.bus_transactions);
  mix(r.reconfigurations);
  mix(static_cast<std::uint64_t>(r.reconfiguration_time.picoseconds()));
  mix(r.consistency_violations);
  for (const auto& [fifo, peak] : r.fifo_peaks) {
    mix_text(fifo);
    mix(peak);
  }
  for (const auto& e : r.trace.entries()) {
    mix(static_cast<std::uint64_t>(e.at.picoseconds()));
    mix_text(e.channel);
    mix(e.value);
  }
  mix(r.trace.fingerprint());
  return h;
}

/// Runs `platform`'s cross-level scenarios (levels 1/2/3) for `frames`
/// frames on the synthetic runtime and returns the reports in level order.
std::vector<core::PerformanceReport> cross_level_reports(
    const gen::GeneratedPlatform& platform, int frames) {
  const auto factory = gen::synthetic_runtime_factory();
  std::vector<core::PerformanceReport> reports;
  for (const auto& s : gen::cross_level_scenarios_for(platform, frames)) {
    const auto runtime = factory(s);
    core::SystemModel model{s.graph, s.partition, *runtime, s.params, s.level};
    reports.push_back(model.run(s.frames));
  }
  return reports;
}

}  // namespace

TEST(GenCampaign, LargeTierReportsMatchGoldenDigests) {
  // The first four large-tier corpus seeds at levels 1/2/3 x 32 frames (the
  // platform_sweep shape), each report's outcome digested and pinned. The
  // values were recorded on the per-burst bus model (one kernel wake per
  // transaction) that the burst stream replaced: any change to what the
  // simulation computes moves a digest here.
  constexpr std::uint64_t kGolden[4][3] = {
      {0x408a1ca9611d317dULL, 0x880b4cc119bb7cabULL, 0x88a2bfde8bcf1a32ULL},
      {0xbf439eb699bb9956ULL, 0x44e67c80da7b5aa7ULL, 0x1b41684f9b1d778eULL},
      {0xb1a141a161c59ebcULL, 0x63718780a66f49f1ULL, 0xbf4393406ae94f36ULL},
      {0xb99ebd8cda2a7a7fULL, 0x334eb81e485ee01bULL, 0x4f16604dd50789e4ULL},
  };
  const auto seeds = sample_seeds(4);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const auto reports =
        cross_level_reports(gen::generate_platform(seeds[i], gen::SizeTier::large), 32);
    ASSERT_EQ(reports.size(), 3u);
    for (std::size_t l = 0; l < reports.size(); ++l) {
      EXPECT_EQ(outcome_digest(reports[l]), kGolden[i][l])
          << "seed " << seeds[i] << " L" << l + 1 << ": 0x" << std::hex
          << outcome_digest(reports[l]);
    }
  }
}

TEST(GenCampaign, LargeTierKernelCostIsPinned) {
  // What the same 12 runs cost the kernel: callbacks and delta cycles per
  // report. These are cost, not outcome: a scheduling change may move them
  // (and re-record them here) only while every outcome digest above holds.
  constexpr std::uint64_t kCost[4][3][2] = {
      {{1852, 66}, {4779, 1633}, {4776, 1442}},
      {{1614, 67}, {4169, 1377}, {4420, 1377}},
      {{2256, 68}, {5639, 1793}, {5641, 1794}},
      {{1741, 59}, {4133, 1344}, {4137, 1250}},
  };
  const auto seeds = sample_seeds(4);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const auto reports =
        cross_level_reports(gen::generate_platform(seeds[i], gen::SizeTier::large), 32);
    ASSERT_EQ(reports.size(), 3u);
    for (std::size_t l = 0; l < reports.size(); ++l) {
      EXPECT_EQ(reports[l].kernel_callbacks, kCost[i][l][0])
          << "seed " << seeds[i] << " L" << l + 1;
      EXPECT_EQ(reports[l].delta_cycles, kCost[i][l][1])
          << "seed " << seeds[i] << " L" << l + 1;
    }
  }
}

TEST(GenCampaign, SmallAndMediumTierOutcomesMatchGoldenDigests) {
  // Levels 2/3 (bus traffic, bitstream downloads) of four small- and four
  // medium-tier seeds x 16 frames, pinned like the large tier above.
  constexpr gen::SizeTier kTiers[] = {gen::SizeTier::small, gen::SizeTier::medium};
  constexpr std::uint64_t kGolden[2][4][2] = {
      {{0x5f68c676b8ae2c6dULL, 0xffc3ea8614423e5cULL},
       {0x5eacdef5cb378d86ULL, 0x5eacdef5cb378d86ULL},
       {0xdecdafa55cc0ffa7ULL, 0xdecdafa55cc0ffa7ULL},
       {0xf3f032996c3648bfULL, 0x03b9b340d9ccf54eULL}},
      {{0xc3c84be70007f43aULL, 0x61eb993afdb9eb78ULL},
       {0x39e8a3fc54b2ef57ULL, 0xefd00ce511a573c1ULL},
       {0x8911fbcf8c585a03ULL, 0x8911fbcf8c585a03ULL},
       {0x1edddbb1c2e548f2ULL, 0x44d06d09990faa1cULL}},
  };
  const auto seeds = sample_seeds(4);
  for (std::size_t t = 0; t < 2; ++t) {
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      const auto reports =
          cross_level_reports(gen::generate_platform(seeds[i], kTiers[t]), 16);
      ASSERT_EQ(reports.size(), 3u);
      for (std::size_t l = 1; l < reports.size(); ++l) {
        EXPECT_EQ(outcome_digest(reports[l]), kGolden[t][i][l - 1])
            << gen::to_string(kTiers[t]) << " seed " << seeds[i] << " L" << l + 1
            << ": 0x" << std::hex << outcome_digest(reports[l]);
      }
    }
  }
}

// -------------------------------------------------------------- explorer

TEST(GenExplorer, GradesGeneratedDesignSpaces) {
  const auto platform =
      gen::generate_platform(sample_seeds(2)[1], gen::SizeTier::medium);
  // Pin everything outside the generated movable set so the explorer
  // enumerates exactly the platform's declared design space.
  core::Explorer::Options options;
  for (const auto& node : platform.graph.tasks()) {
    bool movable = false;
    for (const auto& task : platform.movable) movable |= (task == node.name);
    if (!movable) options.pinned_software.push_back(node.name);
  }
  const core::AnalyticModel model{platform.params};
  const core::Explorer explorer{platform.graph, model, options};
  core::ExploreInfo info;
  auto points = explorer.explore(&info);
  ASSERT_FALSE(points.empty());
  EXPECT_EQ(info.movable_tasks, platform.movable.size());
  EXPECT_FALSE(info.truncated());

  // Simulation-backed re-grading of the short list through the campaign
  // runner, with the generated platform's own parameters and semantics.
  exec::CampaignRunner::Options ropts;
  ropts.workers = 2;
  const exec::CampaignRunner runner{gen::synthetic_runtime_factory(), ropts};
  const auto scorer =
      exec::simulation_scorer(runner, platform.graph, platform.params, /*frames=*/2);
  const std::size_t top_k = points.size() < 3 ? points.size() : 3;
  points = core::Explorer::grade_by_simulation(std::move(points), top_k, scorer);
  std::size_t graded = 0;
  for (const auto& p : points) {
    if (p.simulation_graded) {
      ++graded;
      EXPECT_GT(p.grade.frames_per_second, 0.0) << p.label;
      EXPECT_GT(p.analytic_fps, 0.0) << p.label;
    }
  }
  EXPECT_EQ(graded, top_k);
}

// --------------------------------------------------------- media schedule

TEST(GenQuery, ScheduleIsDeterministicAndInRange) {
  const auto seed = sample_seeds(1)[0];
  const auto a = gen::query_schedule(seed, 16, 4);
  const auto b = gen::query_schedule(seed, 16, 4);
  ASSERT_EQ(a.size(), 16u);
  ASSERT_EQ(b.size(), 16u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_GE(a[i].identity, 0);
    EXPECT_LT(a[i].identity, 4);
    EXPECT_EQ(a[i].identity, b[i].identity);
    EXPECT_EQ(a[i].pose.dx, b[i].pose.dx);
    EXPECT_EQ(a[i].pose.dy, b[i].pose.dy);
    EXPECT_EQ(a[i].pose.rot_deg, b[i].pose.rot_deg);
    EXPECT_EQ(a[i].pose.scale_q8, b[i].pose.scale_q8);
    EXPECT_EQ(a[i].pose.light_offset, b[i].pose.light_offset);
    EXPECT_EQ(a[i].pose.noise_amp, b[i].pose.noise_amp);
    EXPECT_EQ(a[i].pose.noise_seed, b[i].pose.noise_seed);
  }
  EXPECT_THROW((void)gen::query_schedule(seed, 0, 4), std::invalid_argument);
  EXPECT_THROW((void)gen::query_schedule(seed, 4, 0), std::invalid_argument);
}

TEST(GenQuery, ScheduleDrivesTheFacePipeline) {
  const auto db = media::FaceDatabase::enroll(3, 2);
  const auto seed = sample_seeds(1)[0];
  const auto schedule = gen::query_schedule(seed, 6, db.identities());

  app::FaceStageRuntime a{db};
  app::FaceStageRuntime b{db};
  app::FaceStageRuntime plain{db};
  a.set_query_schedule(schedule);
  b.set_query_schedule(schedule);
  bool diverged = false;
  const auto graph = app::face_task_graph(db);
  const auto& camera = graph.task(stage::camera);
  for (int f = 0; f < 6; ++f) {
    (void)a.execute_stage(camera, f);
    (void)b.execute_stage(camera, f);
    (void)plain.execute_stage(camera, f);
    EXPECT_EQ(a.trace_value(camera, f), b.trace_value(camera, f));
    diverged |= a.trace_value(camera, f) != plain.trace_value(camera, f);
  }
  // The generated stream is not the default round-robin query loop.
  EXPECT_TRUE(diverged);
  // Out-of-range identities are rejected up-front.
  app::FaceStageRuntime guard{db};
  EXPECT_THROW(guard.set_query_schedule({{db.identities(), {}}}),
               std::invalid_argument);
  // So is a zero zoom, which the renderer divides by.
  media::Pose zero_zoom;
  zero_zoom.scale_q8 = 0;
  EXPECT_THROW(guard.set_query_schedule({{0, zero_zoom}}), std::invalid_argument);
}

// ----------------------------------------------------------- seed corpus

namespace {

constexpr const char* kManifestPath = SYMBAD_GEN_CORPUS_DIR "/manifest.txt";
constexpr int kCorpusSeedsPerTier = 4;

std::string render_manifest() {
  // Format (one design point per line, fixed field order — the corpus
  // currency): "<tier> <seed> <platform-digest> <netlist-digest>", digests
  // in lowercase hex. Regenerate with SYMBAD_GEN_CORPUS_WRITE=1.
  const gen::SweepConfig cfg;  // the committed corpus pins the default sweep
  std::ostringstream out;
  for (const auto tier : kAllTiers) {
    for (int i = 0; i < kCorpusSeedsPerTier; ++i) {
      const auto seed = cfg.seed_at(i);
      const auto platform = gen::generate_platform(seed, tier);
      const auto netlist = gen::generate_netlist(seed, tier);
      out << static_cast<int>(tier) << ' ' << seed << ' ' << std::hex
          << gen::platform_digest(platform) << ' ' << gen::netlist_digest(netlist)
          << std::dec << '\n';
    }
  }
  return out.str();
}

}  // namespace

TEST(GenCorpus, ManifestMatchesRegeneratedDigests) {
  const std::string fresh = render_manifest();
  if (core::parse_env_int("SYMBAD_GEN_CORPUS_WRITE", 0, 1).value_or(0) != 0) {
    std::ofstream out{kManifestPath, std::ios::trunc};
    ASSERT_TRUE(out.good()) << "cannot write " << kManifestPath;
    out << fresh;
    ASSERT_TRUE(out.good());
    SUCCEED() << "corpus manifest re-recorded";
    return;
  }
  std::ifstream in{kManifestPath};
  ASSERT_TRUE(in.good()) << "missing " << kManifestPath
                         << " — run test_gen with SYMBAD_GEN_CORPUS_WRITE=1 to record";
  std::ostringstream committed;
  committed << in.rdbuf();
  EXPECT_EQ(committed.str(), fresh)
      << "generator drift: the recipe no longer reproduces tests/corpus/"
         "manifest.txt. If the change is intentional, re-record with "
         "SYMBAD_GEN_CORPUS_WRITE=1 ./test_gen and commit the new manifest.";
}
