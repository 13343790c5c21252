#include "obs/obs.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/env.hpp"

namespace symbad::obs {

namespace {

using Clock = std::chrono::steady_clock;

struct SpanEvent {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::int32_t tid = 0;
  std::int32_t depth = 0;
};

/// Per-thread shard: fixed-capacity atomic slots (so other threads can
/// read/zero them safely during snapshot/reset) plus the thread's pending
/// span buffer (owner-mutated only; published under the registry mutex).
struct ThreadState {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counts{};
  std::vector<SpanEvent> pending_spans;
  std::uint64_t epoch = 0;  ///< lazily resyncs after Registry::reset
  int thread_index = 0;
};

/// Flush the pending span buffer to the registry once it reaches this many
/// events (amortizes the mutex to ~1/256 spans) and at thread exit.
constexpr std::size_t kSpanFlushBatch = 256;

thread_local ThreadState* t_state = nullptr;
thread_local int t_worker_id = -1;
thread_local int t_span_depth = 0;
/// Set when this thread's shard has been folded into the registry by the
/// owner's destructor. thread_local destruction order is unspecified, so a
/// later-destroyed thread_local may still increment counters; after
/// retirement those folds go straight into the base instead of
/// re-registering a shard that nobody would ever retire (and whose owner
/// registration would write a destructed ThreadStateOwner).
thread_local bool t_retired = false;

}  // namespace

struct Registry::Impl {
  mutable std::mutex mu;

  // Names, in fixed first-registration order; the index maps are the
  // idempotence lookup. string keys (not string_view) own the storage.
  std::vector<std::string> counter_names;
  std::map<std::string, std::uint32_t, std::less<>> counter_index;
  std::vector<std::string> gauge_names;
  std::map<std::string, std::uint32_t, std::less<>> gauge_index;

  /// Retired-thread counter folds: a thread's shard is summed in here when
  /// the thread exits, so totals survive worker joins.
  std::array<std::atomic<std::uint64_t>, kMaxCounters> base{};
  std::array<std::atomic<double>, kMaxGauges> gauges{};

  std::vector<ThreadState*> threads;  ///< live shards, under mu
  int next_thread_index = 0;

  std::vector<SpanEvent> flushed_spans;  ///< under mu
  std::atomic<std::uint64_t> span_count{0};
  std::atomic<std::uint64_t> span_drops{0};
  std::atomic<std::uint64_t> epoch{0};

  std::atomic<int> level{1};
  std::string trace_path;  ///< under mu

  Clock::time_point origin = Clock::now();

  ThreadState* register_this_thread();
  void retire_thread(ThreadState* state) noexcept;
  void flush_pending_locked(ThreadState& state);
};

namespace {

/// The singleton's Impl, reachable from the hot path without going through
/// Registry::instance()'s magic-static guard on every increment.
Registry::Impl* g_impl = nullptr;

/// Owns the thread_local shard registration; its destructor runs at thread
/// exit and folds the shard into the registry base.
struct ThreadStateOwner {
  ThreadState* state = nullptr;
  ~ThreadStateOwner() {
    if (state != nullptr && g_impl != nullptr) g_impl->retire_thread(state);
  }
};
thread_local ThreadStateOwner t_owner;

std::uint64_t now_ns(const Clock::time_point origin) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin)
          .count());
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Shortest-round-trip double formatting (std::to_chars): stable bytes for
/// a given value on every run, unlike iostream precision juggling.
void append_double(std::string& out, double v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, static_cast<std::size_t>(ptr - buf));
  (void)ec;
}

bool is_host_metric(std::string_view name) { return name.starts_with("host."); }

}  // namespace

// ----------------------------------------------------------------- shards

ThreadState* Registry::Impl::register_this_thread() {
  auto state = std::make_unique<ThreadState>();
  // Sized up front so recording a span never allocates: a thread's first
  // span can land inside a measured steady state (a span opened before the
  // registry existed is skipped, so the first recorded one comes later).
  state->pending_spans.reserve(kSpanFlushBatch);
  {
    const std::lock_guard<std::mutex> lock{mu};
    state->thread_index = next_thread_index++;
    state->epoch = epoch.load(std::memory_order_relaxed);
    threads.push_back(state.get());
  }
  t_state = state.get();
  t_owner.state = state.get();
  return state.release();  // owned by t_owner from here
}

void Registry::Impl::retire_thread(ThreadState* state) noexcept {
  const std::lock_guard<std::mutex> lock{mu};
  // Counts fold unconditionally: reset zeroes live shards in place, so a
  // shard's content is always current-window. Only the span buffer needs
  // the epoch discipline (reset cannot clear it owner-side).
  for (std::size_t i = 0; i < counter_names.size(); ++i) {
    const std::uint64_t v = state->counts[i].load(std::memory_order_relaxed);
    if (v != 0) base[i].fetch_add(v, std::memory_order_relaxed);
  }
  if (state->epoch == epoch.load(std::memory_order_relaxed)) {
    flushed_spans.insert(flushed_spans.end(), state->pending_spans.begin(),
                         state->pending_spans.end());
  }
  threads.erase(std::remove(threads.begin(), threads.end(), state), threads.end());
  t_state = nullptr;
  t_retired = true;  // runs on the owning thread (only ~ThreadStateOwner calls)
  delete state;
}

void Registry::Impl::flush_pending_locked(ThreadState& state) {
  if (state.epoch != epoch.load(std::memory_order_relaxed)) {
    // A reset happened since this thread last recorded: its pending spans
    // predate the reset and must not leak into the new window.
    state.pending_spans.clear();
    state.epoch = epoch.load(std::memory_order_relaxed);
    return;
  }
  flushed_spans.insert(flushed_spans.end(), state.pending_spans.begin(),
                       state.pending_spans.end());
  state.pending_spans.clear();
}

// ----------------------------------------------------------------- handles

void Counter::add(std::uint64_t n) const noexcept {
  if (slot_ == kInvalid || g_impl == nullptr) return;
  auto& impl = *g_impl;
  if (impl.level.load(std::memory_order_relaxed) == 0) return;
  ThreadState* state = t_state;
  if (state == nullptr) {
    if (t_retired) {
      // Post-retirement increment (thread_local teardown order): the shard
      // is gone, fold into the retired-thread base directly.
      impl.base[slot_].fetch_add(n, std::memory_order_relaxed);
      return;
    }
    state = impl.register_this_thread();  // cold, once/thread
  }
  // No epoch check here: reset zeroes the shard slots in place (they are
  // atomics), so the count path never goes stale. Span-buffer resync after
  // a reset is the SpanScope destructor's job.
  state->counts[slot_].fetch_add(n, std::memory_order_relaxed);
}

void Gauge::set(double value) const noexcept {
  if (slot_ == kInvalid || g_impl == nullptr) return;
  if (g_impl->level.load(std::memory_order_relaxed) == 0) return;
  g_impl->gauges[slot_].store(value, std::memory_order_relaxed);
}

void Gauge::add(double value) const noexcept {
  if (slot_ == kInvalid || g_impl == nullptr) return;
  if (g_impl->level.load(std::memory_order_relaxed) == 0) return;
  auto& cell = g_impl->gauges[slot_];
  double expected = cell.load(std::memory_order_relaxed);
  while (!cell.compare_exchange_weak(expected, expected + value,
                                     std::memory_order_relaxed)) {
  }
}

// ------------------------------------------------------------------- scope

Scope::Scope() {
  (void)Registry::instance();  // delta() needs the registry's name index
  // A thread without a shard has added nothing yet: its baseline is zero.
  if (const ThreadState* state = t_state) {
    for (std::size_t i = 0; i < kMaxCounters; ++i) {
      start_[i] = state->counts[i].load(std::memory_order_relaxed);
    }
  }
}

std::uint64_t Scope::delta(std::string_view name) const {
  std::uint32_t slot = 0;
  {
    const std::lock_guard<std::mutex> lock{g_impl->mu};
    const auto it = g_impl->counter_index.find(name);
    if (it == g_impl->counter_index.end()) return 0;
    slot = it->second;
  }
  const ThreadState* state = t_state;
  const std::uint64_t now =
      state != nullptr ? state->counts[slot].load(std::memory_order_relaxed) : 0;
  return now - start_[slot];
}

// ------------------------------------------------------------------- spans

SpanScope::SpanScope(const char* name) noexcept {
  if (g_impl == nullptr || g_impl->level.load(std::memory_order_relaxed) < 2) return;
  name_ = name;
  start_ns_ = now_ns(g_impl->origin);
  active_ = true;
  ++t_span_depth;
}

SpanScope::~SpanScope() {
  if (!active_) return;
  auto& impl = *g_impl;
  const int depth = --t_span_depth;
  // Level may have dropped mid-span; record anyway — the scope was timed.
  if (impl.span_count.fetch_add(1, std::memory_order_relaxed) >= kMaxSpanEvents) {
    impl.span_count.fetch_sub(1, std::memory_order_relaxed);
    impl.span_drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ThreadState* state = t_state;
  if (state == nullptr) {
    if (t_retired) {
      // No shard to buffer into anymore; record the span as dropped.
      impl.span_count.fetch_sub(1, std::memory_order_relaxed);
      impl.span_drops.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    state = impl.register_this_thread();
  }
  SpanEvent ev;
  ev.name = name_;
  ev.start_ns = start_ns_;
  const std::uint64_t end = now_ns(impl.origin);
  ev.dur_ns = end > start_ns_ ? end - start_ns_ : 0;
  ev.tid = t_worker_id >= 0 ? t_worker_id : 1000 + state->thread_index;
  ev.depth = depth;
  const std::uint64_t current_epoch = impl.epoch.load(std::memory_order_relaxed);
  if (state->epoch != current_epoch) {
    state->pending_spans.clear();
    state->epoch = current_epoch;
  }
  state->pending_spans.push_back(ev);
  if (state->pending_spans.size() >= kSpanFlushBatch) {
    const std::lock_guard<std::mutex> lock{impl.mu};
    impl.flush_pending_locked(*state);
  }
}

ScopedWorkerId::ScopedWorkerId(int worker_id) noexcept : previous_{t_worker_id} {
  t_worker_id = worker_id;
}

ScopedWorkerId::~ScopedWorkerId() { t_worker_id = previous_; }

int current_worker_id() noexcept { return t_worker_id; }

// ---------------------------------------------------------------- registry

int resolve_level_from_env() {
  int level = 1;
  if (const auto parsed = core::parse_env_int("SYMBAD_OBS", 0, 2)) {
    level = static_cast<int>(*parsed);
  }
  if (g_impl != nullptr) g_impl->level.store(level, std::memory_order_relaxed);
  return level;
}

Registry::Registry() : impl_{new Impl} {
  g_impl = impl_;
  impl_->level.store(1, std::memory_order_relaxed);
  // Strict knob resolution happens at first registry touch: a garbage
  // SYMBAD_OBS fails the process loudly instead of silently observing at
  // some default level.
  resolve_level_from_env();
  if (const char* path = std::getenv("SYMBAD_OBS_TRACE")) {
    impl_->trace_path = path;
  }
}

Registry& Registry::instance() {
  // Leaked on purpose: thread_local shard owners flush into the registry
  // at thread exit, and static destruction order must not invalidate it.
  static Registry* registry = new Registry;
  return *registry;
}

Counter Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock{impl_->mu};
  if (const auto it = impl_->counter_index.find(name); it != impl_->counter_index.end()) {
    return Counter{it->second};
  }
  if (impl_->counter_names.size() >= kMaxCounters) {
    throw std::length_error{"obs: counter capacity exhausted (" +
                            std::string{name} + ")"};
  }
  const auto slot = static_cast<std::uint32_t>(impl_->counter_names.size());
  impl_->counter_names.emplace_back(name);
  impl_->counter_index.emplace(std::string{name}, slot);
  return Counter{slot};
}

Gauge Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock{impl_->mu};
  if (const auto it = impl_->gauge_index.find(name); it != impl_->gauge_index.end()) {
    return Gauge{it->second};
  }
  if (impl_->gauge_names.size() >= kMaxGauges) {
    throw std::length_error{"obs: gauge capacity exhausted (" + std::string{name} +
                            ")"};
  }
  const auto slot = static_cast<std::uint32_t>(impl_->gauge_names.size());
  impl_->gauge_names.emplace_back(name);
  impl_->gauge_index.emplace(std::string{name}, slot);
  return Gauge{slot};
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  const std::lock_guard<std::mutex> lock{impl_->mu};
  snap.entries.reserve(impl_->counter_names.size() + impl_->gauge_names.size());
  for (std::size_t i = 0; i < impl_->counter_names.size(); ++i) {
    Snapshot::Entry e;
    e.name = impl_->counter_names[i];
    e.is_gauge = false;
    e.count = impl_->base[i].load(std::memory_order_relaxed);
    for (const ThreadState* state : impl_->threads) {
      e.count += state->counts[i].load(std::memory_order_relaxed);
    }
    snap.entries.push_back(std::move(e));
  }
  for (std::size_t i = 0; i < impl_->gauge_names.size(); ++i) {
    Snapshot::Entry e;
    e.name = impl_->gauge_names[i];
    e.is_gauge = true;
    e.value = impl_->gauges[i].load(std::memory_order_relaxed);
    snap.entries.push_back(std::move(e));
  }
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const Snapshot::Entry& a, const Snapshot::Entry& b) {
              return a.name < b.name;
            });
  return snap;
}

std::string Registry::to_json(bool include_host) const {
  return snapshot().to_json(include_host);
}

int Registry::level() const noexcept {
  return impl_->level.load(std::memory_order_relaxed);
}

void Registry::set_level(int level) {
  if (level < 0 || level > 2) {
    throw std::invalid_argument{"obs: level must be 0, 1 or 2, got " +
                                std::to_string(level)};
  }
  impl_->level.store(level, std::memory_order_relaxed);
}

std::string Registry::trace_path() const {
  const std::lock_guard<std::mutex> lock{impl_->mu};
  return impl_->trace_path;
}

void Registry::set_trace_path(std::string path) {
  const std::lock_guard<std::mutex> lock{impl_->mu};
  impl_->trace_path = std::move(path);
}

void Registry::write_chrome_trace(std::ostream& os) {
  std::vector<SpanEvent> events;
  {
    const std::lock_guard<std::mutex> lock{impl_->mu};
    if (t_state != nullptr) impl_->flush_pending_locked(*t_state);
    events = impl_->flushed_spans;
  }
  // Stable-ish order: by (tid, start, longest-first) so nested spans follow
  // their parents. Timestamps themselves are host data, of course.
  std::sort(events.begin(), events.end(), [](const SpanEvent& a, const SpanEvent& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.dur_ns > b.dur_ns;
  });
  std::string out;
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanEvent& ev : events) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"name\":\"";
    append_json_escaped(out, ev.name);
    out += "\",\"cat\":\"symbad\",\"ph\":\"X\",\"ts\":";
    append_double(out, static_cast<double>(ev.start_ns) / 1000.0);
    out += ",\"dur\":";
    append_double(out, static_cast<double>(ev.dur_ns) / 1000.0);
    out += ",\"pid\":0,\"tid\":";
    out += std::to_string(ev.tid);
    out += ",\"args\":{\"depth\":";
    out += std::to_string(ev.depth);
    out += "}}";
  }
  out += "\n]}\n";
  os << out;
}

void Registry::write_chrome_trace_file(const std::string& path) {
  std::ofstream os{path};
  if (!os) {
    throw std::runtime_error{"obs: cannot open trace file '" + path + "'"};
  }
  write_chrome_trace(os);
}

bool Registry::write_trace_if_configured() {
  if (level() < 2) return false;
  const std::string path = trace_path();
  if (path.empty()) return false;
  write_chrome_trace_file(path);
  return true;
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock{impl_->mu};
  impl_->epoch.fetch_add(1, std::memory_order_relaxed);
  for (auto& cell : impl_->base) cell.store(0, std::memory_order_relaxed);
  for (auto& cell : impl_->gauges) cell.store(0.0, std::memory_order_relaxed);
  for (ThreadState* state : impl_->threads) {
    for (auto& cell : state->counts) cell.store(0, std::memory_order_relaxed);
    // Pending span buffers of other threads are cleared lazily via the
    // epoch (owner-side); clearing them here would race their push_back.
    if (state == t_state) {
      state->pending_spans.clear();
      state->epoch = impl_->epoch.load(std::memory_order_relaxed);
    }
  }
  impl_->flushed_spans.clear();
  impl_->span_count.store(0, std::memory_order_relaxed);
  impl_->span_drops.store(0, std::memory_order_relaxed);
}

std::size_t Registry::counters_registered() const {
  const std::lock_guard<std::mutex> lock{impl_->mu};
  return impl_->counter_names.size();
}

std::size_t Registry::gauges_registered() const {
  const std::lock_guard<std::mutex> lock{impl_->mu};
  return impl_->gauge_names.size();
}

std::size_t Registry::span_events_recorded() const {
  const std::lock_guard<std::mutex> lock{impl_->mu};
  std::size_t n = impl_->flushed_spans.size();
  if (t_state != nullptr &&
      t_state->epoch == impl_->epoch.load(std::memory_order_relaxed)) {
    n += t_state->pending_spans.size();
  }
  return n;
}

std::size_t Registry::span_events_dropped() const {
  return impl_->span_drops.load(std::memory_order_relaxed);
}

// --------------------------------------------------------------- snapshot

std::uint64_t Snapshot::counter(std::string_view name) const {
  for (const Entry& e : entries) {
    if (!e.is_gauge && e.name == name) return e.count;
  }
  return 0;
}

double Snapshot::gauge(std::string_view name) const {
  for (const Entry& e : entries) {
    if (e.is_gauge && e.name == name) return e.value;
  }
  return 0.0;
}

bool Snapshot::has(std::string_view name) const {
  for (const Entry& e : entries) {
    if (e.name == name) return true;
  }
  return false;
}

std::string Snapshot::to_json(bool include_host) const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const Entry& e : entries) {
    if (e.is_gauge || (!include_host && is_host_metric(e.name))) continue;
    if (!first) out += ',';
    first = false;
    out += "\n  \"";
    append_json_escaped(out, e.name);
    out += "\": ";
    out += std::to_string(e.count);
  }
  out += "\n},\"gauges\":{";
  first = true;
  for (const Entry& e : entries) {
    if (!e.is_gauge || (!include_host && is_host_metric(e.name))) continue;
    if (!first) out += ',';
    first = false;
    out += "\n  \"";
    append_json_escaped(out, e.name);
    out += "\": ";
    append_double(out, e.value);
  }
  out += "\n}}\n";
  return out;
}

std::string Snapshot::to_text(bool include_host) const {
  std::string out;
  for (const Entry& e : entries) {
    if (!include_host && is_host_metric(e.name)) continue;
    out += e.name;
    out += ' ';
    if (e.is_gauge) {
      append_double(out, e.value);
    } else {
      out += std::to_string(e.count);
    }
    out += '\n';
  }
  return out;
}

}  // namespace symbad::obs
