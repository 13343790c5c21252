#pragma once
// Parallel scenario-campaign execution over `core::SystemModel`.
//
// Every caller used to hand-roll one `SystemModel::run()` at a time on one
// thread; the `CampaignRunner` is the shared batch-execution layer: it
// executes N scenarios across a fixed pool of worker threads, each worker
// building a private `StageRuntime` (and, inside `SystemModel::run`, a
// private `sim::Kernel`) per scenario so that every simulation stays
// bit-deterministic regardless of the worker count or scheduling order.
//
// Worker-count invariance guarantee: for any fixed scenario list,
// `run()` produces identical `ScenarioResult`s (same traces, same reports,
// same agreement verdicts, results in submission order) at 1, 2, 4 or any
// other worker count — only `CampaignReport::scenarios_per_second` and the
// `HostMetrics` inside each report may differ, and those never participate
// in trace or determinism comparisons. `test_exec` pins this across worker
// counts and seeds.
//
// Coverage-merge semantics: with `Options::collect_coverage`, each worker
// runs every scenario under its own `verif::CoverageDb` scope (coverage
// points hit by concurrent scenarios never race), and the per-worker
// databases are folded with `CoverageDb::merge_from` after the pool joins.
// Merging sums hit counts per (module, point), so the merged
// `CampaignReport::coverage` is independent of worker count and of which
// worker executed which scenario; per-scenario attribution is deliberately
// not preserved.
//
// The report aggregates per-scenario `PerformanceReport`s, trace-agreement
// verdicts between adjacent refinement levels of each scenario group, the
// merged coverage, and the campaign's host-side throughput (scenarios per
// wall-clock second).

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/explorer.hpp"
#include "core/system_model.hpp"
#include "exec/scenario.hpp"
#include "obs/obs.hpp"
#include "verif/coverage.hpp"

namespace symbad::exec {

/// Outcome of one scenario.
struct ScenarioResult {
  std::string name;
  std::string group;
  std::size_t index = 0;  ///< position in the submitted scenario list
  int level = 0;          ///< refinement level (1/2/3)
  bool ok = false;
  std::string error;      ///< exception message when !ok
  core::PerformanceReport report;
};

/// Trace-agreement verdict between two adjacent members of one scenario
/// group (ordered by refinement level, then submission index). The paper's
/// "functionality has been fully verified matching the results against the
/// level N-1 ones", as a first-class campaign artifact.
struct AgreementVerdict {
  std::string group;
  std::size_t lower_index = 0;   ///< scenario index of the lower level
  std::size_t higher_index = 0;  ///< scenario index of the higher level
  int lower_level = 0;
  int higher_level = 0;
  bool agree = false;
  std::string detail;  ///< first divergence, or why the check was skipped
};

/// Aggregated campaign outcome.
struct CampaignReport {
  std::vector<ScenarioResult> results;     ///< same order as submitted
  std::vector<AgreementVerdict> agreements;
  int workers = 0;                          ///< pool size actually used
  double wall_seconds_total = 0.0;          ///< host metric
  double scenarios_per_second = 0.0;        ///< host metric
  verif::CoverageReport coverage;           ///< merged across workers
  std::size_t coverage_modules = 0;
  /// Registry snapshot taken after the pool joined: the campaign's
  /// heartbeat/progress record. Deterministic namespaces are worker-count
  /// invariant (`metrics.to_json(false)` is byte-identical at any worker
  /// count for a fixed scenario list); `host.*` entries are wall-clock and
  /// scheduling dependent. Note the registry is process-wide and
  /// monotonic, so this reflects everything since process start (or the
  /// last obs::Registry::reset), not this campaign alone.
  obs::Snapshot metrics;
  /// Non-fatal post-campaign export failure (e.g. SYMBAD_OBS_TRACE names an
  /// unwritable path). The campaign itself finished, so the failure is
  /// recorded here — and flagged by to_string() — instead of thrown, which
  /// would discard the completed results.
  std::string trace_error;

  [[nodiscard]] std::size_t failures() const noexcept {
    std::size_t n = 0;
    for (const auto& r : results) {
      if (!r.ok) ++n;
    }
    return n;
  }
  [[nodiscard]] bool all_agree() const noexcept {
    for (const auto& v : agreements) {
      if (!v.agree) return false;
    }
    return true;
  }
  [[nodiscard]] bool clean() const noexcept {
    return failures() == 0 && all_agree();
  }
  [[nodiscard]] std::string to_string() const;
};

class CampaignRunner {
public:
  /// Builds the data semantics of one scenario. Invoked on worker threads,
  /// possibly concurrently — it must not share mutable state between calls
  /// (immutable captures like a const database reference are fine). The
  /// scenario's `seed` is the factory's to interpret.
  using RuntimeFactory =
      std::function<std::unique_ptr<core::StageRuntime>(const Scenario&)>;

  struct Options {
    /// Worker threads. 0 = the SYMBAD_CAMPAIGN_WORKERS environment
    /// variable if set, else the hardware concurrency.
    int workers = 0;
    /// Install a per-worker coverage database around every scenario and
    /// merge the results into CampaignReport::coverage.
    bool collect_coverage = false;
    /// Rethrow the first scenario failure (by submission index) after the
    /// pool joins, instead of only recording it in the results.
    bool rethrow_errors = false;
  };

  explicit CampaignRunner(RuntimeFactory factory);
  CampaignRunner(RuntimeFactory factory, Options options);

  /// Executes every scenario, preserving submission order in the results.
  /// Individual scenario failures are recorded (or rethrown, per
  /// Options::rethrow_errors); the pool always joins cleanly.
  [[nodiscard]] CampaignReport run(const std::vector<Scenario>& scenarios) const;

  /// Resolves a requested worker count: explicit value, else the
  /// SYMBAD_CAMPAIGN_WORKERS environment variable, else hardware
  /// concurrency; clamped to [1, 64]. The environment variable is parsed
  /// strictly — anything other than an integer in [1, 64] throws
  /// std::invalid_argument rather than silently falling back.
  [[nodiscard]] static int resolve_workers(int requested);

  [[nodiscard]] const Options& options() const noexcept { return options_; }

private:
  RuntimeFactory factory_;
  Options options_;
};

// ------------------------------------------------- explorer integration

/// One scenario per design point: level 3 when the partition holds FPGA
/// bindings, level 2 otherwise (mirrors how the examples pick a model).
[[nodiscard]] std::vector<Scenario> scenarios_for_points(
    const std::vector<core::DesignPoint>& points, const core::TaskGraph& graph,
    const core::PlatformParams& params, int frames);

/// A `core::SimulationScorer` backed by `runner`: grades candidate design
/// points by actually simulating them as a campaign instead of trusting the
/// closed-form analytic model. Throws if any scenario fails.
[[nodiscard]] core::SimulationScorer simulation_scorer(
    const CampaignRunner& runner, const core::TaskGraph& graph,
    const core::PlatformParams& params, int frames);

}  // namespace symbad::exec
