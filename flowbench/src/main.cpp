// Flow-benchmark driver: set-up, timed iterations and work counters for one
// workload, written as one JSON object on stdout (run.py turns it into the
// benchmark's metrics and per-layer profile).
//
//   flowbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// --trace 0 runs every iteration at SYMBAD_OBS=1 (counters, no spans).
// --trace 1 alternates SYMBAD_OBS=1 and SYMBAD_OBS=2 iterations, so the
// span overhead is an interleaved A/B inside one process, and writes the
// level-2 iterations' spans as a Chrome trace to --trace-out.
//
// Work counters are obs registry deltas taken around every iteration
// (host.* excluded). Every iteration must repeat the first one's deltas
// exactly, at either level: a mismatch is reported as a benchmark error.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using Counters = std::map<std::string, std::uint64_t>;

/// Every environment knob the library reads. All are cleared before the
/// first library call, so ambient settings cannot change what is measured;
/// SYMBAD_OBS is then pinned to its default by the driver.
constexpr const char* kKnobs[] = {
    "SYMBAD_OPT",       "SYMBAD_OPT_SWEEP",   "SYMBAD_OPT_SWEEP_ROUNDS",
    "SYMBAD_OPT_SWEEP_MAX_PROOFS",            "SYMBAD_OPT_INCREMENTAL",
    "SYMBAD_LINT",      "SYMBAD_SAT_COMPACT", "SYMBAD_OBS",
    "SYMBAD_OBS_TRACE", "SYMBAD_CAMPAIGN_WORKERS",
    "SYMBAD_GEN_COUNT", "SYMBAD_GEN_TIER",    "SYMBAD_GEN_SEED"};

/// Untraced iterations at least: p90 needs ten samples above it.
constexpr std::size_t kMinUntraced = 100;
/// Set-ups timed before the first iteration; one more is timed after every
/// measured iteration and the median of all is reported. Spreading them
/// over the run matters: set-ups timed back to back in a process's first
/// second ran either ~1.0x or ~1.7x (per process, at random) on a shared
/// host, while the iterations, spread over the run, did not.
constexpr std::size_t kFirstSetups = 5;
/// Hard ceiling on the measuring phase, whatever the sample counts.
constexpr double kMaxMeasureSeconds = 140.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "flowbench: %s\nusage: flowbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used, 10);
  } catch (const std::exception&) {
    usage(flag + " expects a non-negative integer, got '" + text + "'");
  }
  if (used != text.size() || text.front() == '-') {
    usage(flag + " expects a non-negative integer, got '" + text + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_uint(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      const auto s = parse_uint(flag, value);
      if (s < 1 || s > 120) usage("--seconds must be in [1, 120]");
      a.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace expects 0 or 1");
      a.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  const auto& names = flowbench::workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage("unknown workload '" + a.workload + "'");
  }
  if (a.trace && a.trace_out.empty()) usage("--trace 1 needs --trace-out");
  return a;
}

void pin_environment() {
  for (const char* knob : kKnobs) ::unsetenv(knob);
  ::setenv("SYMBAD_OBS", "1", 1);
}

Counters work_counters() {
  Counters out;
  for (const auto& e : symbad::obs::Registry::instance().snapshot().entries) {
    if (!e.is_gauge && !e.name.starts_with("host.")) out[e.name] = e.count;
  }
  return out;
}

/// Non-zero per-counter increments between two snapshots.
Counters delta(const Counters& before, const Counters& after) {
  Counters out;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    const std::uint64_t d = value - (it == before.end() ? 0 : it->second);
    if (d != 0) out[name] = d;
  }
  return out;
}

/// This process's peak resident set (VmHWM). Not getrusage's ru_maxrss:
/// Linux carries that across fork + exec, so under run.py it would report
/// the Python parent's footprint.
double peak_rss_kb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) return std::stod(line.substr(6));
  }
  throw std::runtime_error{"no VmHWM in /proc/self/status"};
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------- JSON out

void json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

void json_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void json_list(std::string& out, const std::vector<double>& values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    json_number(out, values[i]);
  }
  out += ']';
}

// -------------------------------------------------------------- the run

struct Run {
  std::vector<double> setup_s;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  /// Per untraced iteration; empty when the workload has none of it.
  std::vector<double> sim_cycles_per_s;
  std::vector<double> queue_wait_ms;
  std::vector<double> busy_ratio;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;  ///< first few, for the report
  std::size_t counter_mismatches = 0;
  std::string first_mismatch;
  Counters counters;  ///< the reference iteration's deltas
  std::uint64_t digest = 0;  ///< the reference iteration's output digest
  std::uint64_t faults = 0;
  std::uint64_t scenarios = 0;
};

class Driver {
 public:
  Driver(const Args& args, Run& run) : args_{args}, run_{run} {}

  void setup() {
    for (std::size_t i = 0; i < kFirstSetups; ++i) {
      workload_.reset();  // never hold two set-ups at once (peak RSS)
      timed_setup(workload_);
    }
  }

  void measure() {
    // Warm-up: lazily registered counters and first-touch allocations land
    // here; its counter deltas and output digest are the reference.
    iterate(false, /*reference=*/true);
    const auto start = Clock::now();
    for (std::size_t i = 0;; ++i) {
      const bool traced = args_.trace && i % 2 == 1;
      iterate(traced, false);
      std::unique_ptr<flowbench::Workload> spare;
      timed_setup(spare);
      const double elapsed = seconds_since(start);
      if ((run_.untraced_ms.size() >= kMinUntraced && elapsed >= args_.seconds) ||
          elapsed >= kMaxMeasureSeconds) {
        break;
      }
    }
  }

 private:
  void timed_setup(std::unique_ptr<flowbench::Workload>& into) {
    const auto t0 = Clock::now();
    into = flowbench::make_workload(args_.workload, args_.seed);
    run_.setup_s.push_back(seconds_since(t0));
  }

  void iterate(bool traced, bool reference) {
    auto& registry = symbad::obs::Registry::instance();
    registry.set_level(traced ? 2 : 1);
    const Counters before = work_counters();
    flowbench::IterationResult r;
    const auto t0 = Clock::now();
    try {
      r = workload_->iterate();
    } catch (const std::exception& e) {
      r.ok = false;
      r.error = std::string{"threw: "} + e.what();
    }
    const double ms = seconds_since(t0) * 1e3;
    registry.set_level(1);  // the spare set-ups between iterations stay untraced
    const Counters counters = delta(before, work_counters());

    ++run_.attempted;
    if (reference) {
      run_.counters = counters;
      run_.digest = r.digest;
      run_.faults = r.faults;
      run_.scenarios = r.scenarios;
    } else {
      if (r.ok && r.digest != run_.digest) {
        r.ok = false;
        r.error = "outputs differ from the first iteration's";
      }
      if (counters != run_.counters) {
        if (run_.counter_mismatches++ == 0) run_.first_mismatch = describe(counters);
      }
      (traced ? run_.traced_ms : run_.untraced_ms).push_back(ms);
      if (!traced) {
        if (r.sim_host_seconds > 0.0) {
          run_.sim_cycles_per_s.push_back(r.sim_cycles / r.sim_host_seconds);
        }
        if (r.worker_wall_seconds > 0.0) {
          run_.queue_wait_ms.push_back(r.queue_wait_seconds * 1e3);
          run_.busy_ratio.push_back(1.0 - r.queue_wait_seconds / r.worker_wall_seconds);
        }
      }
    }
    if (!r.ok) {
      ++run_.failed;
      if (run_.errors.size() < 5) run_.errors.push_back(r.error);
    }
  }

  /// Names the first counter whose delta differs from the reference.
  std::string describe(const Counters& got) const {
    for (const auto& [name, value] : run_.counters) {
      const auto it = got.find(name);
      const std::uint64_t v = it == got.end() ? 0 : it->second;
      if (v != value) {
        return name + ": " + std::to_string(v) + " vs " + std::to_string(value);
      }
    }
    for (const auto& [name, value] : got) {
      if (!run_.counters.contains(name)) {
        return name + ": " + std::to_string(value) + " vs 0";
      }
    }
    return "?";
  }

  const Args& args_;
  Run& run_;
  std::unique_ptr<flowbench::Workload> workload_;
};

std::string to_json(const Args& args, const Run& run) {
  std::string out = "{\"workload\":";
  json_string(out, args.workload);
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"trace\":" + std::to_string(args.trace ? 1 : 0);
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"knobs\":{";
  bool first = true;
  for (const char* knob : kKnobs) {
    if (!first) out += ',';
    first = false;
    json_string(out, knob);
    out += ':';
    const char* value = std::getenv(knob);
    if (value == nullptr) {
      out += "null";
    } else {
      json_string(out, value);
    }
  }
  out += "},\"setups\":" + std::to_string(run.setup_s.size());
  out += ",\"setup_s\":";
  json_number(out, median(run.setup_s));
  out += ",\"untraced_ms\":";
  json_list(out, run.untraced_ms);
  out += ",\"traced_ms\":";
  json_list(out, run.traced_ms);
  out += ",\"sim_cycles_per_s\":";
  json_list(out, run.sim_cycles_per_s);
  out += ",\"queue_wait_ms\":";
  json_list(out, run.queue_wait_ms);
  out += ",\"busy_ratio\":";
  json_list(out, run.busy_ratio);
  out += ",\"attempted\":" + std::to_string(run.attempted);
  out += ",\"failed\":" + std::to_string(run.failed);
  out += ",\"errors\":[";
  for (std::size_t i = 0; i < run.errors.size(); ++i) {
    if (i != 0) out += ',';
    json_string(out, run.errors[i]);
  }
  out += "],\"counter_mismatches\":" + std::to_string(run.counter_mismatches);
  out += ",\"first_mismatch\":";
  json_string(out, run.first_mismatch);
  out += ",\"counters\":{";
  first = true;
  for (const auto& [name, value] : run.counters) {
    if (!first) out += ',';
    first = false;
    json_string(out, name);
    out += ':' + std::to_string(value);
  }
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(run.digest));
  out += "},\"output_digest\":";
  json_string(out, digest);
  out += ",\"faults\":" + std::to_string(run.faults);
  out += ",\"scenarios\":" + std::to_string(run.scenarios);
  out += ",\"peak_rss_mb\":";
  json_number(out, peak_rss_kb() / 1024.0);
  out += ",\"span_drops\":" +
         std::to_string(symbad::obs::Registry::instance().span_events_dropped());
  out += "}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  pin_environment();
  try {
    Run run;
    Driver driver{args, run};
    driver.setup();
    driver.measure();
    if (args.trace) {
      symbad::obs::Registry::instance().write_chrome_trace_file(args.trace_out);
    }
    std::printf("%s\n", to_json(args, run).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flowbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
