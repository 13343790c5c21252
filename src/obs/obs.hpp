#pragma once
// Unified telemetry for the whole stack: named counters/gauges, scoped
// spans, and stable exporters (JSON metrics snapshot + Chrome-trace span
// timelines).
//
// Before this module every subsystem kept private accounting with no common
// schema and no export path: `sat::Statistics`, `exec`'s host throughput,
// `CheckResult`/`PccReport` fields, bench-only `gen_*` counters.
// The registry is the one process-wide sink they all publish into, so a
// campaign coordinator (or a human with `chrome://tracing`) can watch the
// sim kernel, the campaign workers, the SAT core and the formal engines
// through one pipe.
//
// Design constraints, in order:
//
//  1. Determinism. Counter *values* are byte-identical at any campaign
//     worker count for deterministic quantities: counters are monotonic
//     sums, merged by addition across per-thread shards, so scheduling
//     order cannot change a total. Everything wall-clock- or
//     scheduling-dependent (worker timings, per-worker scenario counts,
//     throughput gauges) lives in the reserved `host.` name prefix —
//     exactly the `HostMetrics` split `core::PerformanceReport` already
//     made — and `Snapshot::to_json(/*include_host=*/false)` excludes it,
//     which is what the worker-count byte-identity tests pin.
//
//  2. Near-zero hot-path cost. `Counter::add` is an O(1) relaxed atomic
//     increment into a thread-local shard (campaign workers never contend
//     on a shared cache line) and performs no heap allocation in steady
//     state; shards are merged only when a snapshot is taken. The whole
//     layer gates on the SYMBAD_OBS level (0 = off, 1 = counters only,
//     2 = counters + spans; default 1), and the OBS_SPAN macro compiles to
//     nothing when SYMBAD_OBS_NO_SPANS is defined at build time.
//
//  3. Stable export. Snapshots order metrics by name, so two runs that did
//     the same deterministic work serialize to the same bytes. The span
//     timeline exports as Chrome-trace `traceEvents` JSON (load it in
//     chrome://tracing or Perfetto), keyed by campaign worker id.
//
// Registration is cheap but not free (a mutex + name map); call sites keep
// a `static` handle (see the adoption sites in exec/, mc/, sat/) so the
// lookup happens once. Counter/gauge capacity is fixed
// (`kMaxCounters`/`kMaxGauges`) so shards never reallocate; exceeding it
// throws std::length_error at registration, never on the hot path.

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace symbad::obs {

class Registry;

/// Hard cap on distinct registered counters (gauges have their own cap).
/// Fixed so per-thread shards are allocated once and never grow — growth
/// on the increment path would mean locks and reallocation where the
/// contract promises a relaxed atomic add.
inline constexpr std::size_t kMaxCounters = 512;
/// Sized so the worst-case campaign fleet fits: `exec::CampaignRunner`
/// clamps to 64 workers and each worker registers two `host.exec.workerN.*`
/// gauges (plus the fixed `host.exec.*`/`host.sim.*` ones) from its own
/// thread, where a capacity throw would escape the thread entry point.
/// 64 * 2 = 128 worker gauges, so 256 leaves half the space for everyone
/// else; test_obs pins that the full fleet registers without throwing.
inline constexpr std::size_t kMaxGauges = 256;
/// Span-event soft cap: beyond this the recorder drops (and counts the
/// drops), so a million-scenario soak with spans left on cannot OOM.
inline constexpr std::size_t kMaxSpanEvents = 1u << 20;

/// Handle to a named monotonic counter. Cheap to copy (a slot index);
/// obtain from Registry::counter. A default-constructed handle ignores
/// add() — useful for optional instrumentation.
class Counter {
 public:
  Counter() = default;

  /// O(1), allocation-free in steady state, thread-safe (thread-local
  /// shard). No-op at SYMBAD_OBS level 0.
  void add(std::uint64_t n) const noexcept;
  void inc() const noexcept { add(1); }

 private:
  friend class Registry;
  explicit Counter(std::uint32_t slot) noexcept : slot_{slot} {}
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  std::uint32_t slot_ = kInvalid;
};

/// Handle to a named gauge (a double with set/accumulate semantics, not
/// sharded — gauges are for completion-point values, not hot paths).
/// Accumulating doubles across threads is order-dependent, so accumulated
/// gauges belong in the `host.` namespace.
class Gauge {
 public:
  Gauge() = default;

  void set(double value) const noexcept;
  void add(double value) const noexcept;

 private:
  friend class Registry;
  explicit Gauge(std::uint32_t slot) noexcept : slot_{slot} {}
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  std::uint32_t slot_ = kInvalid;
};

/// A merged, name-ordered view of every registered metric at one instant.
/// Plain data: filter `entries` freely and re-serialize.
struct Snapshot {
  struct Entry {
    std::string name;
    bool is_gauge = false;
    std::uint64_t count = 0;  ///< counter value (is_gauge == false)
    double value = 0.0;       ///< gauge value (is_gauge == true)
  };
  std::vector<Entry> entries;  ///< sorted by name

  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  [[nodiscard]] double gauge(std::string_view name) const;
  [[nodiscard]] bool has(std::string_view name) const;

  /// Stable serialization: `{"counters":{...},"gauges":{...}}`, keys in
  /// sorted order, one metric per line. With include_host = false every
  /// `host.`-prefixed entry is excluded — the deterministic projection the
  /// worker-count invariance tests compare byte-for-byte.
  [[nodiscard]] std::string to_json(bool include_host = true) const;
  /// `name value` lines in the same order, for humans and logs.
  [[nodiscard]] std::string to_text(bool include_host = true) const;
};

/// Per-call view of the counters: snapshots the calling thread's shard when
/// constructed, and `delta(name)` returns what this thread has added to
/// that counter since. Exact while other threads add to the same counter
/// (their adds land in their own shards), and 0 at level 0, where nothing
/// counts. This is how callers read the cost of one engine call — the
/// engines add each number to the registry once and keep no second copy.
/// A Registry::reset() inside the Scope invalidates its deltas.
class Scope {
 public:
  Scope();

  [[nodiscard]] std::uint64_t delta(std::string_view name) const;

 private:
  std::array<std::uint64_t, kMaxCounters> start_{};
};

/// RAII wall-time span. Use via OBS_SPAN — the macro is the compile-out
/// point. Records (name, start, duration, worker id, nesting depth) into a
/// thread-local buffer when the runtime level is >= 2; a disabled span is
/// one relaxed atomic load.
class SpanScope {
 public:
  /// `name` must outlive the registry (string literals only — OBS_SPAN
  /// enforces nothing, but every call site passes a literal).
  explicit SpanScope(const char* name) noexcept;
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  bool active_ = false;
};

/// Tags the current thread with a campaign worker id for span attribution
/// (Chrome-trace `tid`). Nested scopes restore the previous id. Threads
/// without a worker id trace under 1000 + an arbitrary registration index.
class ScopedWorkerId {
 public:
  explicit ScopedWorkerId(int worker_id) noexcept;
  ~ScopedWorkerId();
  ScopedWorkerId(const ScopedWorkerId&) = delete;
  ScopedWorkerId& operator=(const ScopedWorkerId&) = delete;

 private:
  int previous_;
};

/// The current thread's worker id, -1 when untagged.
[[nodiscard]] int current_worker_id() noexcept;

/// Re-reads SYMBAD_OBS (strict: anything but an integer in [0, 2] throws
/// std::invalid_argument via core::parse_env_value; unset means 1) and
/// applies it as the runtime level. The Registry constructor runs this
/// once; exposed so tests can exercise the strict parse and knob changes.
int resolve_level_from_env();

/// The process-wide metric registry. Thread-safe throughout; the hot
/// increment path never takes its lock.
class Registry {
 public:
  /// The process singleton (leaked deliberately: worker threads flush
  /// their shards at thread exit, which must never race static
  /// destruction).
  [[nodiscard]] static Registry& instance();

  /// Registers (or finds) a counter/gauge by name. Idempotent: the same
  /// name always maps to the same slot, in first-registration order.
  /// Throws std::length_error past kMaxCounters/kMaxGauges.
  [[nodiscard]] Counter counter(std::string_view name);
  [[nodiscard]] Gauge gauge(std::string_view name);

  /// Merges every thread shard with the retired-thread base and returns
  /// the name-sorted view. Safe while workers are still incrementing
  /// (relaxed reads); for exact totals snapshot at a quiescent point.
  [[nodiscard]] Snapshot snapshot() const;
  [[nodiscard]] std::string to_json(bool include_host = true) const;

  /// Runtime level: 0 = off, 1 = counters, 2 = counters + spans.
  [[nodiscard]] int level() const noexcept;
  /// Test/embedding override of the SYMBAD_OBS level; throws
  /// std::invalid_argument outside [0, 2].
  void set_level(int level);

  /// Chrome-trace output path (SYMBAD_OBS_TRACE; empty = no auto-export).
  [[nodiscard]] std::string trace_path() const;
  void set_trace_path(std::string path);

  /// Serializes every *flushed* span as Chrome-trace JSON. The calling
  /// thread's pending spans are flushed first; other threads flush when
  /// their buffer fills and at thread exit — call this after joining the
  /// workers you want to see (exec::CampaignRunner does).
  void write_chrome_trace(std::ostream& os);
  /// write_chrome_trace into `path`; throws std::runtime_error when the
  /// file cannot be opened.
  void write_chrome_trace_file(const std::string& path);
  /// write_chrome_trace_file(trace_path()) when a path is configured and
  /// the level records spans. Returns whether a file was written.
  bool write_trace_if_configured();

  /// Zeroes every counter and gauge and discards every span, keeping
  /// registrations. Concurrent increments may survive a racing reset —
  /// reset at quiescent points (tests do, between campaign runs).
  void reset();

  [[nodiscard]] std::size_t counters_registered() const;
  [[nodiscard]] std::size_t gauges_registered() const;
  /// Span events currently retained (flushed + the calling thread's
  /// pending buffer) and dropped at the kMaxSpanEvents cap.
  [[nodiscard]] std::size_t span_events_recorded() const;
  [[nodiscard]] std::size_t span_events_dropped() const;

  /// Defined in obs.cpp; public only so the file-scope hot-path helpers
  /// there can name it (the definition never leaves the implementation).
  struct Impl;

 private:
  Registry();
  Impl* impl_;

  friend class Counter;
  friend class Gauge;
  friend class SpanScope;
};

}  // namespace symbad::obs

// OBS_SPAN("subsystem.operation") — scoped wall-time span, one per block.
// Compiled out entirely (no object, no atomic load) when
// SYMBAD_OBS_NO_SPANS is defined before the first include of this header;
// otherwise a runtime no-op below SYMBAD_OBS level 2.
#if defined(SYMBAD_OBS_NO_SPANS)
#define OBS_SPAN(name) ((void)0)
#else
#define SYMBAD_OBS_CONCAT2(a, b) a##b
#define SYMBAD_OBS_CONCAT(a, b) SYMBAD_OBS_CONCAT2(a, b)
#define OBS_SPAN(name) \
  const ::symbad::obs::SpanScope SYMBAD_OBS_CONCAT(obs_span_at_line_, __LINE__) { name }
#endif
