#include "workloads.hpp"

#include <map>
#include <stdexcept>
#include <utility>

#include "app/face_system.hpp"
#include "app/rtl_blocks.hpp"
#include "app/sw_source.hpp"
#include "atpg/atpg.hpp"
#include "core/system_model.hpp"
#include "exec/campaign.hpp"
#include "gen/gen.hpp"
#include "lpv/lpv.hpp"
#include "lpv/petri.hpp"
#include "mc/mc.hpp"
#include "media/database.hpp"
#include "obs/obs.hpp"
#include "pcc/pcc.hpp"
#include "symbc/checker.hpp"

namespace flowbench {
namespace {

using namespace symbad;

/// splitmix64 over (seed, salt): the driver's own input generator, so each
/// input aspect gets an independent stream from one --seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Fisher-Yates shuffle driven by mix().
template <typename T>
void shuffle(std::vector<T>& items, std::uint64_t seed) {
  for (std::size_t i = items.size(); i > 1; --i) {
    seed = mix(seed, i);
    std::swap(items[i - 1], items[seed % i]);
  }
}

/// FNV-1a over the deterministic outputs of one iteration.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void add(const std::string& s) {
    for (const char c : s) byte(static_cast<unsigned char>(c));
    byte(0);
  }
  void add(const sim::Trace& trace) {
    add(trace.size());
    for (const auto& e : trace.entries()) {
      add(static_cast<std::uint64_t>(e.at.picoseconds()));
      add(e.channel);
      add(e.value);
    }
  }
  /// The simulated (modelled) outcome of one run. Host times and the
  /// kernel's event counts are cost, not outcome, and stay out so a faster
  /// simulator still reproduces the digest.
  void add(const core::PerformanceReport& r) {
    add(static_cast<std::uint64_t>(r.frames));
    add(static_cast<std::uint64_t>(r.elapsed.picoseconds()));
    add(r.bus_beats);
    add(r.bus_transactions);
    add(r.reconfigurations);
    add(static_cast<std::uint64_t>(r.reconfiguration_time.picoseconds()));
    add(r.consistency_violations);
    for (const auto& [fifo, peak] : r.fifo_peaks) {
      add(fifo);
      add(peak);
    }
    add(r.trace);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001B3ULL;
  }
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Records the first failed check of an iteration.
void expect(IterationResult& r, bool condition, const char* what) {
  if (condition || !r.ok) return;
  r.ok = false;
  r.error = what;
}

// ------------------------------------------------------------ paper_flow

class PaperFlow final : public Workload {
 public:
  static constexpr int kFrames = 6;

  explicit PaperFlow(std::uint64_t seed)
      : default_seed_{seed == kDefaultSeed},
        db_{media::FaceDatabase::enroll(20, 5)},
        graph_{app::face_task_graph(db_)},
        laerte_{atpg::Laerte::Config{8, 3, 64, {}, 8}},
        root_{app::build_root_rtl()},
        wrapper_{app::build_wrapper_fsm()},
        initial_{app::wrapper_properties_initial()},
        extended_{app::wrapper_properties_extended()},
        spec_{app::face_config_spec()},
        sw_correct_{app::face_sw_correct()},
        sw_buggy_{app::face_sw_missing_reload()} {
    pcc_.bmc_bound = 8;
    if (!default_seed_) {
      ga_seed_ = mix(seed, 1);
      pcc_.seed = mix(seed, 2);
      queries_ = gen::query_schedule(mix(seed, 3), kFrames, db_.identities());
    }
  }

  IterationResult iterate() override {
    IterationResult r;
    core::TaskGraph graph = graph_;

    // Level 1: functional simulation, ATPG, deadlock freeness.
    const auto rep1 =
        run_level(graph, core::Partition::all_software(graph),
                  core::ModelLevel::untimed_functional);
    atpg::Testbench tb;
    {
      OBS_SPAN("atpg.genetic_testbench");
      tb = laerte_.genetic_testbench(5, 6, 3, ga_seed_);
    }
    atpg::Estimate estimate;
    {
      OBS_SPAN("atpg.evaluate");
      estimate = laerte_.evaluate(tb, /*grade_bit_faults=*/true);
    }
    bool memory_bug = false;
    {
      OBS_SPAN("atpg.detects_seeded_memory_bug");
      memory_bug = laerte_.detects_seeded_memory_bug(tb);
    }
    lpv::DeadlockResult deadlock;
    {
      OBS_SPAN("lpv");
      deadlock = lpv::check_deadlock_freeness(lpv::petri_from_task_graph(graph));
    }

    // Level 2: profiling-driven annotation, timed platform, real-time LPV.
    {
      OBS_SPAN("app.profile_reference");
      const auto profile = app::profile_reference(db_, 4);
      app::annotate_from_profile(graph, profile, 4);
    }
    const auto rep2 = run_level(graph, app::paper_level2_partition(graph),
                                core::ModelLevel::timed_platform);
    lpv::DeadlineResult deadline;
    lpv::FifoSizingResult sizing;
    {
      OBS_SPAN("lpv");
      std::map<std::string, double> durations;
      for (const auto& node : graph.tasks()) {
        durations[node.name] = static_cast<double>(node.ops_per_frame) / (50e6 / 1.8);
      }
      deadline = lpv::check_deadline(graph, durations, 0.2);
      sizing = lpv::size_fifos_for_period(graph, durations, deadline.min_period_s * 1.05);
    }

    // Level 3: reconfigurable platform, SymbC consistency.
    const auto rep3 = run_level(graph, app::paper_level3_partition(graph),
                                core::ModelLevel::reconfigurable);
    symbc::ConsistencyResult sw_ok;
    symbc::ConsistencyResult sw_bad;
    {
      OBS_SPAN("symbc.check_source");
      sw_ok = symbc::check_source(sw_correct_, spec_);
    }
    {
      OBS_SPAN("symbc.check_source");
      sw_bad = symbc::check_source(sw_buggy_, spec_);
    }

    // Level 4: model checking and property coverage.
    const mc::ModelChecker checker{wrapper_};
    std::size_t proved = 0;
    for (const auto& property : extended_) {
      if (checker.check(property).status == mc::CheckStatus::proved) ++proved;
    }
    const auto initial = pcc::check_property_coverage(wrapper_, initial_, pcc_);
    const auto extended = pcc::check_property_coverage(wrapper_, extended_, pcc_);

    const bool l1_l2 = sim::Trace::data_equal(rep1.trace, rep2.trace);
    const bool l2_l3 = sim::Trace::data_equal(rep2.trace, rep3.trace);
    expect(r, l1_l2, "level-1/level-2 traces differ");
    expect(r, l2_l3, "level-2/level-3 traces differ");
    expect(r, rep3.consistency_violations == 0, "level-3 consistency violations");
    expect(r, proved == extended_.size(), "a wrapper property was not proved");
    expect(r, deadlock.proved_free, "deadlock freeness not proved");
    expect(r, deadline.met && sizing.feasible, "LPV deadline or FIFO sizing failed");
    expect(r, sw_ok.consistent, "SymbC rejected the correct source");
    expect(r, !sw_bad.violations.empty(), "SymbC accepted the buggy source");
    for (const auto* plan : {&initial, &extended}) {
      expect(r, plan->detected + plan->undetected.size() == plan->total_faults,
             "PCC detected + undetected != total");
    }
    expect(r, extended.detected >= initial.detected,
           "extended plan covers less than the initial one");
    expect(r, estimate.bit_faults.detected <= estimate.bit_faults.total,
           "bit-fault grade out of range");
    if (default_seed_) {
      // The paper's figures: 11.7% -> 86.7% PCC with 8 uncovered faults,
      // 2 SymbC violations, and the seeded memory bug found.
      expect(r, initial.total_faults == 60 && initial.detected == 7,
             "initial plan is not 7/60 (11.7%)");
      expect(r, extended.total_faults == 60 && extended.detected == 52 &&
                    extended.undetected.size() == 8,
             "extended plan is not 52/60 (86.7%) with 8 uncovered");
      expect(r, sw_bad.violations.size() == 2, "buggy source does not give 2 violations");
      expect(r, memory_bug, "seeded memory bug not found");
    }

    Digest d;
    for (const auto* rep : {&rep1, &rep2, &rep3}) d.add(*rep);
    d.add(static_cast<std::uint64_t>(estimate.coverage.statement_covered));
    d.add(static_cast<std::uint64_t>(estimate.coverage.branch_covered));
    d.add(static_cast<std::uint64_t>(estimate.coverage.condition_covered));
    d.add(estimate.bit_faults.detected);
    d.add(estimate.bit_faults.total);
    d.add(memory_bug ? 1 : 0);
    d.add(deadlock.proved_free ? 1 : 0);
    d.add(static_cast<std::uint64_t>(sizing.total_slots));
    d.add(sw_ok.certificate.size());
    d.add(sw_bad.violations.size());
    d.add(proved);
    d.add(root_.gate_count());
    d.add(wrapper_.gate_count());
    for (const auto* plan : {&initial, &extended}) {
      d.add(plan->detected);
      for (const auto& f : plan->undetected) {
        d.add(static_cast<std::uint64_t>(f.net));
        d.add(f.stuck_to ? 1 : 0);
      }
    }
    r.digest = d.value();

    r.faults = estimate.bit_faults.total + initial.total_faults + extended.total_faults;
    const double bus_hz = core::PlatformParams{}.bus_hz;
    for (const auto* rep : {&rep2, &rep3}) {
      r.sim_cycles += rep->elapsed.to_seconds() * bus_hz;
      r.sim_host_seconds += rep->host.wall_seconds;
    }
    return r;
  }

 private:
  [[nodiscard]] core::PerformanceReport run_level(const core::TaskGraph& graph,
                                                  core::Partition partition,
                                                  core::ModelLevel level) const {
    OBS_SPAN("core.system_model.run");
    app::FaceStageRuntime runtime{db_};
    if (!queries_.empty()) runtime.set_query_schedule(queries_);
    core::SystemModel model{graph, std::move(partition), runtime, {}, level};
    return model.run(kFrames);
  }

  bool default_seed_;
  media::FaceDatabase db_;
  core::TaskGraph graph_;
  atpg::Laerte laerte_;
  rtl::Netlist root_;
  rtl::Netlist wrapper_;
  std::vector<mc::Property> initial_;
  std::vector<mc::Property> extended_;
  symbc::ConfigSpec spec_;
  std::string sw_correct_;
  std::string sw_buggy_;
  std::uint64_t ga_seed_ = 42;
  pcc::PccOptions pcc_;
  std::vector<media::QueryRequest> queries_;
};

// --------------------------------------------------------- fault_grading

class FaultGrading final : public Workload {
 public:
  // Golden figures. The ROOT counts hold at the default seed; the PE's SAT
  // detectability is exact per fault, so it holds in every fault order.
  static constexpr std::size_t kRootFaults = 1760;
  static constexpr std::size_t kRootPruned = 1670;
  static constexpr std::size_t kRootDetected = 4;  // all by the simulation pre-pass
  static constexpr std::size_t kPeFaults = 34;
  static constexpr std::size_t kPeDetectable = 26;

  explicit FaultGrading(std::uint64_t seed)
      : default_seed_{seed == kDefaultSeed},
        root_{app::build_root_rtl()},
        pe_{app::build_distance_rtl(8, 16)} {
    properties_.push_back(mc::Property::invariant(
        "busy_done_exclusive", !(mc::Expr::signal("busy") && mc::Expr::signal("done"))));
    pcc_.bmc_bound = 4;
    pcc_.simulation_runs = 1;
    pcc_.simulation_cycles = 8;
    for (const rtl::Net ff : pe_.flip_flops()) {
      pe_faults_.emplace_back(ff, false);
      pe_faults_.emplace_back(ff, true);
    }
    if (!default_seed_) {
      pcc_.seed = mix(seed, 1);
      // The SAT engine shares one solver across the list, so the order
      // changes the work (learned clauses carry over), never the verdicts.
      shuffle(pe_faults_, mix(seed, 2));
    }
  }

  IterationResult iterate() override {
    IterationResult r;
    const auto report = pcc::check_property_coverage(root_, properties_, pcc_);
    std::vector<atpg::SatEngine::FaultResult> tests;
    {
      OBS_SPAN("atpg.sat_generate_test");
      atpg::SatEngine engine{pe_, atpg::SatEngine::Options{3}};
      tests = engine.generate_tests(pe_faults_);
    }

    std::size_t detectable = 0;
    bool frames_ok = true;
    for (const auto& t : tests) {
      if (!t.test.has_value()) continue;
      ++detectable;
      frames_ok = frames_ok && t.test->frames.size() == 3;
    }
    expect(r, report.detected + report.undetected.size() == report.total_faults,
           "PCC detected + undetected != total");
    expect(r, report.detected_by_simulation + report.detected_by_bmc == report.detected,
           "PCC simulation + BMC detections != detected");
    expect(r, report.lint_pruned_faults <= report.undetected.size(),
           "PCC pruned more faults than it left undetected");
    expect(r, frames_ok, "an ATPG test does not span 3 frames");
    expect(r, tests.size() == kPeFaults && detectable == kPeDetectable,
           "ATPG did not find 26/34 PE faults detectable");
    if (default_seed_) {
      expect(r, report.total_faults == kRootFaults && report.lint_pruned_faults == kRootPruned,
             "ROOT campaign is not 1760 faults with 1670 pruned");
      expect(r, report.detected == kRootDetected && report.detected_by_simulation == kRootDetected,
             "ROOT detections differ from the golden 4 (all by simulation)");
    }

    Digest d;
    d.add(report.total_faults);
    d.add(report.detected);
    d.add(report.lint_pruned_faults);
    for (const auto& f : report.undetected) {
      d.add(static_cast<std::uint64_t>(f.net));
      d.add(f.stuck_to ? 1 : 0);
    }
    for (const auto& t : tests) {
      d.add(static_cast<std::uint64_t>(t.net));
      d.add(t.stuck_to ? 1 : 0);
      d.add(t.test.has_value() ? 1 : 0);
    }
    r.digest = d.value();
    r.faults = report.total_faults + tests.size();
    return r;
  }

 private:
  bool default_seed_;
  rtl::Netlist root_;
  rtl::Netlist pe_;
  std::vector<mc::Property> properties_;
  pcc::PccOptions pcc_;
  std::vector<std::pair<rtl::Net, bool>> pe_faults_;
};

// -------------------------------------------------------- platform_sweep

class PlatformSweep final : public Workload {
 public:
  static constexpr int kPlatforms = 64;
  static constexpr int kFrames = 32;
  static constexpr int kWorkers = 2;

  explicit PlatformSweep(std::uint64_t seed)
      : runner_{gen::synthetic_runtime_factory(),
                exec::CampaignRunner::Options{kWorkers, false, false}} {
    // The generator's default sweep: one fixed corpus of platforms. The
    // seed permutes the submission order instead of drawing new platforms,
    // because the bounded-Pareto traffic makes the work of 64 random
    // platforms vary by over 10% from draw to draw; a new order moves
    // worker assignment and queueing while the work stays the same.
    const gen::SweepConfig sweep;
    std::vector<exec::Scenario> corpus;
    for (int i = 0; i < kPlatforms; ++i) {
      const auto platform = gen::generate_platform(sweep.seed_at(i), gen::SizeTier::large);
      for (auto& s : gen::cross_level_scenarios_for(platform, kFrames)) {
        corpus.push_back(std::move(s));
      }
    }
    for (std::size_t i = 0; i < corpus.size(); ++i) corpus_index_.push_back(i);
    if (seed != kDefaultSeed) shuffle(corpus_index_, mix(seed, 1));
    for (const std::size_t i : corpus_index_) scenarios_.push_back(corpus[i]);
  }

  IterationResult iterate() override {
    IterationResult r;
    const auto report = runner_.run(scenarios_);
    expect(r, report.results.size() == scenarios_.size(), "missing scenario results");
    expect(r, report.failures() == 0, "a scenario failed");
    expect(r, report.all_agree(), "adjacent levels disagree");
    expect(r, report.agreements.size() == 2 * static_cast<std::size_t>(kPlatforms),
           "agreement checks != 2 per platform");

    // Digest in corpus order, so every submission order must reproduce it.
    std::vector<const exec::ScenarioResult*> by_corpus(report.results.size());
    for (const auto& res : report.results) {
      by_corpus.at(corpus_index_.at(res.index)) = &res;
      if (res.level >= 2) {
        r.sim_cycles += res.report.elapsed.to_seconds() * scenarios_[res.index].params.bus_hz;
        r.sim_host_seconds += res.report.host.wall_seconds;
      }
    }
    Digest d;
    for (std::size_t i = 0; i < by_corpus.size(); ++i) {
      d.add(i);
      d.add(static_cast<std::uint64_t>(by_corpus[i]->level));
      d.add(by_corpus[i]->report);
    }
    r.digest = d.value();
    expect(r, r.digest == kGoldenDigest, "scenario report digest differs from golden");
    r.scenarios = report.results.size();
    for (int w = 0; w < report.workers; ++w) {
      const std::string prefix = "host.exec.worker" + std::to_string(w);
      r.queue_wait_seconds += report.metrics.gauge(prefix + ".queue_wait_seconds");
      r.worker_wall_seconds += report.metrics.gauge(prefix + ".wall_seconds");
    }
    return r;
  }

 private:
  /// Digest of the corpus's simulated outcomes (see Digest::add).
  static constexpr std::uint64_t kGoldenDigest = 0x2063c20c7d88ade5ULL;

  exec::CampaignRunner runner_;
  std::vector<std::size_t> corpus_index_;  ///< submission position -> corpus index
  std::vector<exec::Scenario> scenarios_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper_flow", "fault_grading",
                                              "platform_sweep"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed) {
  if (name == "paper_flow") return std::make_unique<PaperFlow>(seed);
  if (name == "fault_grading") return std::make_unique<FaultGrading>(seed);
  if (name == "platform_sweep") return std::make_unique<PlatformSweep>(seed);
  throw std::invalid_argument{"unknown workload '" + std::string{name} + "'"};
}

}  // namespace flowbench
