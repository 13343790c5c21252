// Tests for the observability layer (src/obs): registry semantics, the
// worker-count determinism contract, allocation-free hot path, per-call
// Scope deltas, Chrome-trace export, env knobs, and the per-subsystem
// registry bridges.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <algorithm>
#include <fstream>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "app/rtl_blocks.hpp"
#include "atpg/atpg.hpp"
#include "exec/campaign.hpp"
#include "gen/gen.hpp"
#include "mc/mc.hpp"
#include "obs/obs.hpp"
#include "pcc/pcc.hpp"
#include "rtl/wordops.hpp"
#include "sat/solver.hpp"
#include "support/alloc_counter.hpp"
#include "support/test_util.hpp"

namespace app = symbad::app;
namespace atpg = symbad::atpg;
namespace exec = symbad::exec;
namespace gen = symbad::gen;
namespace mc = symbad::mc;
namespace obs = symbad::obs;
namespace pcc = symbad::pcc;
namespace rtl = symbad::rtl;
namespace sat = symbad::sat;

using symbad::test_support::arm_allocation_counter;
using symbad::test_support::disarm_allocation_counter;

namespace {

/// Restores the registry level (and clears any trace path) on scope exit, so
/// a test that flips SYMBAD_OBS semantics cannot leak into its neighbours.
class LevelGuard {
 public:
  LevelGuard()
      : level_{obs::Registry::instance().level()},
        trace_path_{obs::Registry::instance().trace_path()} {}
  ~LevelGuard() {
    obs::Registry::instance().set_level(level_);
    obs::Registry::instance().set_trace_path(trace_path_);
  }

 private:
  int level_;
  std::string trace_path_;
};

std::vector<exec::Scenario> generated_scenarios() {
  const auto platform = gen::generate_platform(0x0B5EED, gen::SizeTier::small);
  return gen::cross_level_scenarios_for(platform, /*frames=*/3);
}

exec::CampaignReport run_campaign(const std::vector<exec::Scenario>& scenarios,
                                  int workers) {
  exec::CampaignRunner::Options options;
  options.workers = workers;  // explicit: bypasses SYMBAD_CAMPAIGN_WORKERS
  options.rethrow_errors = true;
  const exec::CampaignRunner runner{gen::synthetic_runtime_factory(), options};
  return runner.run(scenarios);
}

/// Saturating 3-bit counter with enable (same shape test_mc_pcc uses) —
/// small enough for bridge-equality checks to stay instant.
rtl::Netlist saturating_counter() {
  rtl::Netlist n{"obs_satcnt"};
  const auto en = n.add_input("en");
  const auto regs = rtl::make_registers(n, "c", 3, 0);
  const auto one = rtl::make_constant(n, 1, 3);
  const auto [inc, carry] = rtl::add(n, regs, one);
  (void)carry;
  const auto at_max = rtl::equal_constant(n, regs, 7);
  const auto hold = n.add_or(at_max, n.add_not(en));
  const auto next = rtl::mux_word(n, hold, regs, inc);
  rtl::connect_registers(n, regs, next);
  rtl::set_output_word(n, "c", regs);
  n.set_output("at_max", at_max);
  n.set_output("en_out", en);
  return n;
}

// ------------------------------------------------- minimal JSON validator
// Just enough of RFC 8259 to certify "this file loads as JSON": objects,
// arrays, strings with escapes, numbers, true/false/null.

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : s_{text} {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          if (pos_ + 4 >= s_.size()) return false;
          pos_ += 4;
        } else if (std::string_view{"\"\\/bfnrt"}.find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                                s_[pos_] == '.' || s_[pos_] == 'e' ||
                                s_[pos_] == 'E' || s_[pos_] == '+' ||
                                s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  [[nodiscard]] char peek() const {
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

// ------------------------------------------------------------- registry

TEST(ObsRegistry, CounterRegistrationIsIdempotentAndOrdered) {
  const LevelGuard guard;
  auto& registry = obs::Registry::instance();
  registry.set_level(1);  // counting must be on even under SYMBAD_OBS=0
  const auto before = registry.counters_registered();
  const auto c1 = registry.counter("test.obs.alpha");
  const auto c2 = registry.counter("test.obs.alpha");
  EXPECT_EQ(registry.counters_registered(), before + 1);

  const auto base = registry.snapshot().counter("test.obs.alpha");
  c1.add(3);
  c2.inc();
  EXPECT_EQ(registry.snapshot().counter("test.obs.alpha"), base + 4);
}

TEST(ObsRegistry, DefaultConstructedHandlesAreNoOps) {
  const obs::Counter c;
  const obs::Gauge g;
  c.add(17);  // must not crash or register anything
  g.set(1.0);
  g.add(1.0);
}

TEST(ObsRegistry, GaugeCapacityCoversMaxCampaignWorkerFleet) {
  auto& registry = obs::Registry::instance();
  // resolve_workers clamps to 64 and every campaign worker registers two
  // host gauges from its own thread, where a capacity throw would escape
  // the thread entry point and terminate the process — so the full fleet
  // (plus the fixed host.exec.*/host.sim.* gauges, registered by any prior
  // campaign in this process) must fit under kMaxGauges with room to spare.
  for (int w = 0; w < 64; ++w) {
    const std::string prefix = "host.exec.worker" + std::to_string(w);
    EXPECT_NO_THROW((void)registry.gauge(prefix + ".wall_seconds"));
    EXPECT_NO_THROW((void)registry.gauge(prefix + ".queue_wait_seconds"));
  }
  EXPECT_LE(registry.gauges_registered(), obs::kMaxGauges);
}

TEST(ObsRegistry, GaugeSetAndAdd) {
  const LevelGuard guard;
  auto& registry = obs::Registry::instance();
  registry.set_level(1);  // counting must be on even under SYMBAD_OBS=0
  const auto g = registry.gauge("test.obs.gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(registry.snapshot().gauge("test.obs.gauge"), 2.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(registry.snapshot().gauge("test.obs.gauge"), 3.0);
}

TEST(ObsRegistry, SnapshotIsNameSortedAndFiltersHostNamespace) {
  auto& registry = obs::Registry::instance();
  (void)registry.counter("test.obs.zz");
  (void)registry.counter("test.obs.aa");
  (void)registry.gauge("host.test.obs.wall");

  const auto snap = registry.snapshot();
  ASSERT_FALSE(snap.entries.empty());
  for (std::size_t i = 1; i < snap.entries.size(); ++i) {
    EXPECT_LT(snap.entries[i - 1].name, snap.entries[i].name);
  }
  EXPECT_TRUE(snap.has("host.test.obs.wall"));

  const auto with_host = snap.to_json(/*include_host=*/true);
  const auto without_host = snap.to_json(/*include_host=*/false);
  EXPECT_NE(with_host.find("host.test.obs.wall"), std::string::npos);
  EXPECT_EQ(without_host.find("host."), std::string::npos);
  EXPECT_NE(without_host.find("test.obs.aa"), std::string::npos);
  EXPECT_TRUE(JsonChecker{with_host}.valid());
  EXPECT_TRUE(JsonChecker{without_host}.valid());

  const auto text = snap.to_text(/*include_host=*/false);
  EXPECT_NE(text.find("test.obs.aa "), std::string::npos);
  EXPECT_EQ(text.find("host."), std::string::npos);
}

TEST(ObsRegistry, LevelZeroDisablesCounting) {
  const LevelGuard guard;
  auto& registry = obs::Registry::instance();
  const auto c = registry.counter("test.obs.level0");
  registry.set_level(1);
  c.inc();
  const auto counted = registry.snapshot().counter("test.obs.level0");
  registry.set_level(0);
  c.add(100);
  EXPECT_EQ(registry.snapshot().counter("test.obs.level0"), counted);
  EXPECT_THROW(registry.set_level(3), std::invalid_argument);
  EXPECT_THROW(registry.set_level(-1), std::invalid_argument);
}

TEST(ObsRegistry, ResetZeroesValuesButKeepsRegistrations) {
  const LevelGuard guard;
  auto& registry = obs::Registry::instance();
  registry.set_level(1);
  const auto c = registry.counter("test.obs.reset");
  const auto g = registry.gauge("test.obs.reset_gauge");
  c.add(5);
  g.set(9.0);
  const auto names_before = registry.counters_registered();

  registry.reset();
  EXPECT_EQ(registry.counters_registered(), names_before);
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter("test.obs.reset"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauge("test.obs.reset_gauge"), 0.0);
  EXPECT_EQ(registry.span_events_recorded(), 0u);

  c.inc();  // handles survive the reset
  EXPECT_EQ(registry.snapshot().counter("test.obs.reset"), 1u);
}

TEST(ObsWorkerId, ScopesNestAndRestore) {
  EXPECT_EQ(obs::current_worker_id(), -1);
  {
    const obs::ScopedWorkerId outer{3};
    EXPECT_EQ(obs::current_worker_id(), 3);
    {
      const obs::ScopedWorkerId inner{7};
      EXPECT_EQ(obs::current_worker_id(), 7);
    }
    EXPECT_EQ(obs::current_worker_id(), 3);
  }
  EXPECT_EQ(obs::current_worker_id(), -1);
}

// ------------------------------------------------------------ env knobs

TEST(ObsEnv, StrictLevelParse) {
  const LevelGuard guard;
  {
    const symbad::test::EnvGuard env{"SYMBAD_OBS", nullptr};
    EXPECT_EQ(obs::resolve_level_from_env(), 1);  // unset -> default 1
  }
  for (const char* good : {"0", "1", "2"}) {
    const symbad::test::EnvGuard env{"SYMBAD_OBS", good};
    EXPECT_EQ(obs::resolve_level_from_env(), good[0] - '0');
  }
  for (const char* bad : {"garbage", "3", "-1", "1.5", ""}) {
    const symbad::test::EnvGuard env{"SYMBAD_OBS", bad};
    EXPECT_THROW(obs::resolve_level_from_env(), std::invalid_argument)
        << "SYMBAD_OBS=" << bad;
  }
}

// ---------------------------------------------------------- determinism

TEST(ObsDeterminism, SnapshotByteIdenticalAcrossWorkerCounts) {
  const LevelGuard guard;
  auto& registry = obs::Registry::instance();
  registry.set_level(2);  // spans on: the harder case for determinism

  const auto scenarios = generated_scenarios();
  ASSERT_EQ(scenarios.size(), 3u);

  std::vector<std::string> snapshots;
  for (const int workers : {1, 4}) {
    registry.reset();
    const auto report = run_campaign(scenarios, workers);
    ASSERT_EQ(report.failures(), 0u) << report.to_string();

    // CampaignReport::metrics is the post-join snapshot: it must already
    // carry this campaign's deterministic counters.
    EXPECT_EQ(report.metrics.counter("exec.campaigns"), 1u);
    EXPECT_EQ(report.metrics.counter("exec.scenarios"), scenarios.size());
    EXPECT_EQ(report.metrics.counter("exec.scenario_failures"), 0u);
    EXPECT_EQ(report.metrics.counter("exec.agreement_checks"),
              report.agreements.size());
    EXPECT_GT(report.metrics.counter("sim.kernel.runs"), 0u);

    snapshots.push_back(report.metrics.to_json(/*include_host=*/false));
  }
  EXPECT_EQ(snapshots[0], snapshots[1])
      << "deterministic counter namespaces must not depend on worker count";
}

TEST(ObsDeterminism, HostNamespaceCarriesWallClockMetrics) {
  const LevelGuard guard;
  obs::Registry::instance().set_level(1);
  obs::Registry::instance().reset();
  const auto scenarios = generated_scenarios();
  const auto report = run_campaign(scenarios, 2);
  EXPECT_GT(report.metrics.gauge("host.exec.wall_seconds"), 0.0);
  EXPECT_GT(report.metrics.gauge("host.sim.wall_seconds"), 0.0);
  // Per-worker attribution exists for both workers and sums to the total.
  const auto w0 = report.metrics.counter("host.exec.worker0.scenarios");
  const auto w1 = report.metrics.counter("host.exec.worker1.scenarios");
  EXPECT_EQ(w0 + w1, scenarios.size());
}

// ------------------------------------------------------------ hot path

TEST(ObsAlloc, CounterHotPathIsAllocationFree) {
  const LevelGuard guard;
  auto& registry = obs::Registry::instance();
  registry.set_level(1);
  const auto c = registry.counter("test.obs.hotpath");
  c.inc();  // warm-up: thread-shard registration happens off the armed region

  const auto base = registry.snapshot().counter("test.obs.hotpath");
  arm_allocation_counter();
  for (int i = 0; i < 10'000; ++i) c.add(1);
  const auto allocations = disarm_allocation_counter();
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(registry.snapshot().counter("test.obs.hotpath"), base + 10'000);
}

// ---------------------------------------------------------- scoped deltas

namespace {

/// Every counter one SAT portfolio check of the wrapper plan adds to.
constexpr const char* kPortfolioCounters[] = {
    "mc.checks",       "mc.properties",      "mc.frames_encoded", "mc.sat_conflicts",
    "mc.encoded_vars", "mc.encoded_clauses", "mc.arena_bytes",    "mc.arena_live",
    "mc.compactions",  "sat.solves",         "sat.decisions",     "sat.propagations",
    "sat.conflicts",
};

/// Deltas of kPortfolioCounters over one SAT check_all of the extended
/// wrapper plan (bound 12, induction depth 4), read through a Scope.
std::vector<std::uint64_t> wrapper_suite_deltas() {
  const auto fsm = app::build_wrapper_fsm();
  const mc::BmcChecker checker{fsm};
  const auto props = app::wrapper_properties_extended();
  const obs::Scope scope;
  (void)checker.check_all(props, {12, 4});
  std::vector<std::uint64_t> deltas;
  for (const char* name : kPortfolioCounters) deltas.push_back(scope.delta(name));
  return deltas;
}

}  // namespace

TEST(ObsScope, DeltasStayExactWhileThreadsCountTheSameCounters) {
  const LevelGuard guard;
  obs::Registry::instance().set_level(1);
  const auto single = wrapper_suite_deltas();
  EXPECT_EQ(single.front(), 1u);  // mc.checks

  std::vector<std::vector<std::uint64_t>> per_thread(4);
  std::latch start{static_cast<std::ptrdiff_t>(per_thread.size())};
  std::vector<std::thread> threads;
  for (auto& deltas : per_thread) {
    threads.emplace_back([&start, &deltas] {
      start.arrive_and_wait();
      deltas = wrapper_suite_deltas();
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& deltas : per_thread) EXPECT_EQ(deltas, single);
}

TEST(ObsScope, NestedScopesAndLevelZero) {
  const LevelGuard guard;
  auto& registry = obs::Registry::instance();
  registry.set_level(1);
  const auto c = registry.counter("test.obs.scope");
  const obs::Scope outer;
  c.add(3);
  {
    const obs::Scope inner;
    c.add(4);
    EXPECT_EQ(inner.delta("test.obs.scope"), 4u);
  }
  EXPECT_EQ(outer.delta("test.obs.scope"), 7u);
  EXPECT_EQ(outer.delta("test.obs.never_registered"), 0u);

  // Nothing counts at level 0, so every delta reads 0 — a whole check too.
  registry.set_level(0);
  const obs::Scope off;
  c.add(5);
  const auto deltas = wrapper_suite_deltas();
  EXPECT_TRUE(std::all_of(deltas.begin(), deltas.end(),
                          [](std::uint64_t d) { return d == 0; }));
  EXPECT_EQ(off.delta("test.obs.scope"), 0u);
}

TEST(ObsScope, McCostCountersMatchTheRetiredReportFields) {
  // The counters that replaced CheckResult's and MultiCheckResult's cost
  // fields, pinned for these wrapper checks on the SAT engine (through
  // ModelChecker the wrapper's checks go to the table engine). A single
  // check is a one-property portfolio. The encoding figures are those of
  // the netlist as given, cut to the cone of influence.
  const LevelGuard guard;
  obs::Registry::instance().set_level(1);
  const auto fsm = app::build_wrapper_fsm();
  const mc::BmcChecker checker{fsm};
  const auto props = app::wrapper_properties_extended();
  const auto proved_prop = std::find_if(props.begin(), props.end(), [](const auto& p) {
    return p.name == "idle_start_goes_load";
  });
  ASSERT_NE(proved_prop, props.end());

  const obs::Scope proved;
  ASSERT_EQ(checker.check(*proved_prop, {}).status, mc::CheckStatus::proved);
  EXPECT_EQ(proved.delta("mc.sat_conflicts"), 22u);
  EXPECT_EQ(proved.delta("mc.frames_encoded"), 22u);
  EXPECT_EQ(proved.delta("mc.encoded_vars"), 621u);
  EXPECT_EQ(proved.delta("mc.encoded_clauses"), 1589u);
  EXPECT_EQ(proved.delta("mc.arena_bytes"), 21136u);
  EXPECT_EQ(proved.delta("mc.arena_live"), 21136u);
  EXPECT_EQ(proved.delta("mc.compactions"), 0u);

  const obs::Scope falsified;
  const auto never_acks = mc::Property::invariant("wrapper_never_acks",
                                                  !mc::Expr::signal("ack"));
  ASSERT_EQ(checker.check(never_acks, {}).status, mc::CheckStatus::falsified);
  EXPECT_EQ(falsified.delta("mc.sat_conflicts"), 1u);
  EXPECT_EQ(falsified.delta("mc.frames_encoded"), 4u);
  EXPECT_EQ(falsified.delta("mc.encoded_vars"), 97u);
  EXPECT_EQ(falsified.delta("mc.encoded_clauses"), 230u);
  EXPECT_EQ(falsified.delta("mc.arena_bytes"), 3092u);
  EXPECT_EQ(falsified.delta("mc.arena_live"), 3092u);

  const obs::Scope portfolio;
  (void)checker.check_all(props, {12, 4});
  EXPECT_EQ(portfolio.delta("mc.sat_conflicts"), 154u);
  EXPECT_EQ(portfolio.delta("mc.frames_encoded"), 14u);
  EXPECT_EQ(portfolio.delta("mc.encoded_vars"), 1005u);
  EXPECT_EQ(portfolio.delta("mc.encoded_clauses"), 2661u);
  EXPECT_EQ(portfolio.delta("mc.arena_bytes"), 39736u);
  EXPECT_EQ(portfolio.delta("mc.arena_live"), 39736u);
  EXPECT_EQ(portfolio.delta("mc.compactions"), 0u);
}

// ---------------------------------------------------------- chrome trace

namespace symbad::test {

class ObsTraceTest : public TmpDirTest {};

TEST_F(ObsTraceTest, CampaignWritesValidChromeTraceWithSpanPerWorker) {
  const LevelGuard guard;
  auto& registry = obs::Registry::instance();
  registry.set_level(2);
  registry.reset();
  const auto trace_file = (tmp_dir() / "trace.json").string();
  registry.set_trace_path(trace_file);

  const auto scenarios = generated_scenarios();
  const auto report = run_campaign(scenarios, 2);
  ASSERT_EQ(report.failures(), 0u) << report.to_string();
  // run() auto-exports after the pool joins (SYMBAD_OBS_TRACE semantics).

  std::ifstream in{trace_file};
  ASSERT_TRUE(in.good()) << "campaign did not write " << trace_file;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string trace = buffer.str();

  EXPECT_TRUE(JsonChecker{trace}.valid());
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  // Both campaign workers opened an `exec.worker` span, attributed to their
  // worker ids (Chrome-trace tid).
  EXPECT_NE(trace.find("\"name\":\"exec.worker\""), std::string::npos);
  EXPECT_NE(trace.find("\"tid\":0"), std::string::npos);
  EXPECT_NE(trace.find("\"tid\":1"), std::string::npos);
  // The campaign span itself nests the whole run on the calling thread.
  EXPECT_NE(trace.find("\"name\":\"exec.campaign\""), std::string::npos);
}

TEST_F(ObsTraceTest, UnwritableTracePathIsReportedNotThrown) {
  const LevelGuard guard;
  auto& registry = obs::Registry::instance();
  registry.set_level(2);
  registry.reset();
  // The export runs after the campaign finished; a bad path must surface as
  // a report warning, not throw away the completed results.
  registry.set_trace_path((tmp_dir() / "no_such_dir" / "trace.json").string());

  const auto scenarios = generated_scenarios();
  const auto report = run_campaign(scenarios, 2);
  EXPECT_EQ(report.failures(), 0u);
  EXPECT_FALSE(report.trace_error.empty());
  EXPECT_NE(report.to_string().find("trace export failed"), std::string::npos);
}

}  // namespace symbad::test

// ------------------------------------------------------ subsystem bridges

TEST(ObsBridge, SatSolveDeltasSumIntoRegistry) {
  const LevelGuard guard;
  auto& registry = obs::Registry::instance();
  registry.set_level(1);
  registry.reset();

  // The registry accumulates per-solve deltas (add_clause may propagate
  // outside any solve; that work is deliberately not bridged), so compare
  // against the sum of last_solve_statistics over the two calls.
  sat::Solver solver;
  const auto a = sat::Lit::positive(solver.new_var());
  const auto b = sat::Lit::positive(solver.new_var());
  solver.add_clause({a, b});
  solver.add_clause({~a, b});
  std::uint64_t decisions = 0, propagations = 0, conflicts = 0;
  ASSERT_EQ(solver.solve(), sat::Result::sat);
  decisions += solver.last_solve_statistics().decisions;
  propagations += solver.last_solve_statistics().propagations;
  conflicts += solver.last_solve_statistics().conflicts;
  solver.add_clause({~b});
  ASSERT_EQ(solver.solve(), sat::Result::unsat);
  decisions += solver.last_solve_statistics().decisions;
  propagations += solver.last_solve_statistics().propagations;
  conflicts += solver.last_solve_statistics().conflicts;

  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter("sat.solves"), 2u);
  EXPECT_EQ(snap.counter("sat.decisions"), decisions);
  EXPECT_EQ(snap.counter("sat.propagations"), propagations);
  EXPECT_EQ(snap.counter("sat.conflicts"), conflicts);
}

TEST(ObsBridge, CheckResultMatchesRegistry) {
  const LevelGuard guard;
  auto& registry = obs::Registry::instance();
  registry.set_level(1);
  registry.reset();

  const auto n = saturating_counter();
  const mc::ModelChecker checker{n};
  const auto inv = mc::Property::invariant("never_max", !mc::Expr::signal("at_max"));
  const auto result = checker.check(inv);
  ASSERT_EQ(result.status, mc::CheckStatus::falsified);

  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter("mc.checks"), 1u);
  EXPECT_EQ(snap.counter("mc.properties"), 1u);
}

TEST(ObsBridge, MultiCheckResultMatchesRegistry) {
  const LevelGuard guard;
  auto& registry = obs::Registry::instance();
  registry.set_level(1);
  registry.reset();

  const auto n = saturating_counter();
  const mc::ModelChecker checker{n};
  const std::vector<mc::Property> properties{
      mc::Property::invariant("p0", !mc::Expr::signal("at_max")),
      mc::Property::invariant(
          "p1", mc::Expr::signal("at_max").implies(mc::Expr::signal("c[0]"))),
  };
  const auto multi = checker.check_all(properties);
  ASSERT_EQ(multi.results.size(), 2u);

  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter("mc.checks"), 1u);
  EXPECT_EQ(snap.counter("mc.properties"), multi.results.size());
}

TEST(ObsBridge, PccReportMatchesRegistry) {
  const LevelGuard guard;
  auto& registry = obs::Registry::instance();
  registry.set_level(1);
  registry.reset();

  const auto n = saturating_counter();
  const std::vector<mc::Property> properties{
      mc::Property::invariant(
          "at_max_all_ones",
          mc::Expr::signal("at_max").implies(mc::Expr::signal("c[0]") &&
                                             mc::Expr::signal("c[1]") &&
                                             mc::Expr::signal("c[2]"))),
  };
  pcc::PccOptions options;
  options.bmc_bound = 4;
  options.simulation_cycles = 16;
  options.simulation_runs = 2;
  options.max_faults = 6;
  const auto report = pcc::check_property_coverage(n, properties, options);

  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter("pcc.campaigns"), 1u);
  EXPECT_EQ(snap.counter("pcc.faults_total"), report.total_faults);
  EXPECT_EQ(snap.counter("pcc.detected"), report.detected);
  EXPECT_EQ(snap.counter("pcc.detected_by_simulation"),
            report.detected_by_simulation);
  EXPECT_EQ(snap.counter("pcc.detected_by_bmc"), report.detected_by_bmc);
  EXPECT_EQ(snap.counter("pcc.lint_pruned"), report.lint_pruned_faults);
}

TEST(ObsBridge, PccSimPassesCountsLaneBatches) {
  // pcc.sim_passes lives in the registry only. With no stimulus nothing is
  // detected, so every pass grades a full 64-lane batch; a property the
  // fault-free design already violates makes passes commit short batches.
  const LevelGuard guard;
  auto& registry = obs::Registry::instance();
  registry.set_level(1);
  registry.reset();

  const auto n = saturating_counter();
  pcc::PccOptions options;
  options.bmc_bound = 2;
  options.simulation_runs = 0;
  const std::vector<mc::Property> never_max{
      mc::Property::invariant("never_max", !mc::Expr::signal("at_max"))};
  const auto quiet = pcc::check_property_coverage(n, never_max, options);
  ASSERT_GT(quiet.total_faults, 0u);
  EXPECT_EQ(quiet.detected_by_simulation, 0u);
  EXPECT_EQ(registry.snapshot().counter("pcc.sim_passes"), (quiet.total_faults + 63) / 64);

  registry.reset();
  options.simulation_runs = 4;
  const auto busy = pcc::check_property_coverage(n, never_max, options);
  EXPECT_GT(busy.detected_by_simulation, 0u);
  EXPECT_GT(registry.snapshot().counter("pcc.sim_passes"), (busy.total_faults + 63) / 64);
}

TEST(ObsBridge, LaerteCountsFrontEndRunsAndResumedFaultFrames) {
  // atpg.* lives in the registry only, one add per call. On the flow's
  // configuration the GA's 105 frame evaluations reduce to 39 distinct
  // stimuli; grading runs 5 golden frames, and 64 of the 158 graded
  // (fault, frame) pairs change their faulted word and resume.
  const LevelGuard guard;
  auto& registry = obs::Registry::instance();
  registry.set_level(1);
  atpg::Laerte laerte{atpg::Laerte::Config{8, 3, 64, {}, 8}};

  registry.reset();
  const auto tb = laerte.genetic_testbench(5, 6, 3, 42);
  EXPECT_EQ(registry.snapshot().counter("atpg.front_end_runs"), 39u);
  EXPECT_EQ(registry.snapshot().counter("atpg.fault_frames_resumed"), 0u);

  registry.reset();
  (void)laerte.evaluate(tb);
  EXPECT_EQ(registry.snapshot().counter("atpg.front_end_runs"), 5u);
  EXPECT_EQ(registry.snapshot().counter("atpg.fault_frames_resumed"), 0u);

  registry.reset();
  (void)laerte.evaluate(tb, /*grade_bit_faults=*/true);
  EXPECT_EQ(registry.snapshot().counter("atpg.front_end_runs"), 5u);
  EXPECT_EQ(registry.snapshot().counter("atpg.fault_frames_resumed"), 64u);
}

TEST(ObsBridge, KernelAndHostMetricsMatchReports) {
  const LevelGuard guard;
  auto& registry = obs::Registry::instance();
  registry.set_level(1);
  registry.reset();

  const auto scenarios = generated_scenarios();
  const auto report = run_campaign(scenarios, 1);
  ASSERT_EQ(report.failures(), 0u);

  std::uint64_t callbacks = 0;
  std::uint64_t deltas = 0;
  double wall = 0.0;
  for (const auto& r : report.results) {
    callbacks += r.report.kernel_callbacks;
    deltas += r.report.delta_cycles;
    wall += r.report.host.wall_seconds;
  }
  const auto snap = registry.snapshot();
  // One SystemModel::run per scenario = one kernel run each; the registry
  // totals are exactly the sums of the per-report deterministic counts.
  EXPECT_EQ(snap.counter("sim.kernel.runs"), scenarios.size());
  EXPECT_EQ(snap.counter("sim.kernel.callbacks"), callbacks);
  EXPECT_EQ(snap.counter("sim.kernel.delta_cycles"), deltas);
  // HostMetrics thin-view equivalence: the accumulated host.sim gauge is
  // the sum of the per-run struct fields (single worker: exact fp order).
  EXPECT_DOUBLE_EQ(snap.gauge("host.sim.wall_seconds"), wall);
}
