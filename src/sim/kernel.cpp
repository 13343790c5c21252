#include "sim/kernel.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace symbad::sim {

namespace {

// Registered once; run() bridges its per-invocation deltas here, so the
// scheduling loop itself stays untouched (no per-callback instrumentation
// on the allocation-free hot path — the counts already exist as members).
struct KernelObs {
  obs::Counter runs;
  obs::Counter callbacks;
  obs::Counter delta_cycles;
};

const KernelObs& kernel_obs() {
  static const KernelObs counters{
      obs::Registry::instance().counter("sim.kernel.runs"),
      obs::Registry::instance().counter("sim.kernel.callbacks"),
      obs::Registry::instance().counter("sim.kernel.delta_cycles"),
  };
  return counters;
}

}  // namespace

// ---------------------------------------------------------------- Time

std::string Time::to_string() const {
  std::ostringstream os;
  const auto abs_ps = ps_ < 0 ? -ps_ : ps_;
  if (abs_ps >= 1'000'000'000'000) {
    os << to_seconds() << " s";
  } else if (abs_ps >= 1'000'000'000) {
    os << to_ms() << " ms";
  } else if (abs_ps >= 1'000'000) {
    os << to_us() << " us";
  } else if (abs_ps >= 1'000) {
    os << to_ns() << " ns";
  } else {
    os << ps_ << " ps";
  }
  return os.str();
}

// --------------------------------------------------------------- Event

Event::Event(Kernel& kernel, std::string name)
    : kernel_{&kernel}, name_{std::move(name)} {}

void Event::fire() {
  // Move waiters out first: a resumed coroutine may immediately re-wait.
  // The scratch vector keeps its capacity across fires, so steady-state
  // notification allocates nothing.
  firing_.swap(waiters_);
  // Waiters not yet resumed run in this same callback: pending work for
  // Kernel::quiet_until.
  for (std::size_t i = 0; i < firing_.size(); ++i) {
    kernel_->waiters_left_ = firing_.size() - 1 - i;
    firing_[i].resume();
  }
  kernel_->waiters_left_ = 0;
  firing_.clear();
}

void Event::notify() {
  if (pending_ && pending_is_delta_) return;  // delta notification already wins
  ++generation_;
  pending_ = true;
  pending_is_delta_ = true;
  kernel_->schedule_delta([this, gen = generation_] {
    if (gen != generation_) return;  // superseded or cancelled
    pending_ = false;
    fire();
  });
}

void Event::notify(Time delay) {
  if (delay < Time::zero()) throw std::invalid_argument{"Event::notify: negative delay"};
  if (delay.is_zero()) {
    notify();
    return;
  }
  const Time at = kernel_->now() + delay;
  if (pending_ && (pending_is_delta_ || pending_at_ <= at)) return;  // earlier wins
  ++generation_;
  pending_ = true;
  pending_is_delta_ = false;
  pending_at_ = at;
  kernel_->schedule(delay, [this, gen = generation_] {
    if (gen != generation_) return;
    pending_ = false;
    fire();
  });
}

void Event::cancel() noexcept {
  ++generation_;
  pending_ = false;
}

// -------------------------------------------------------------- Kernel

namespace detail {

void process_finished(Kernel& kernel, void* frame) noexcept {
  auto& live = kernel.live_processes_;
  if (auto it = std::find(live.begin(), live.end(), frame); it != live.end()) {
    *it = live.back();
    live.pop_back();
  }
}

void process_failed(Kernel& kernel, std::exception_ptr error) noexcept {
  if (!kernel.pending_error_) kernel.pending_error_ = std::move(error);
  kernel.stop();
}

}  // namespace detail

Kernel::~Kernel() {
  // Destroy frames of processes that never ran to completion so that a
  // simulation abandoned mid-flight does not leak coroutine frames.
  for (void* frame : live_processes_) {
    std::coroutine_handle<>::from_address(frame).destroy();
  }
}

void Kernel::spawn(Process process, std::string /*name*/) {
  Process::Handle handle = process.release();
  if (!handle) throw std::invalid_argument{"Kernel::spawn: empty process"};
  handle.promise().kernel = this;
  live_processes_.push_back(handle.address());
  ++processes_spawned_;
  schedule_delta([handle] { handle.resume(); });
}

void Kernel::schedule(Time delay, SmallFn fn) {
  if (delay < Time::zero()) {
    throw std::invalid_argument{"Kernel::schedule: negative delay"};
  }
  if (delay.is_zero()) {
    // Current-time bucket: plain FIFO append, no heap reshuffle. Ordering
    // is preserved because every event already queued for this instant
    // carries a smaller sequence number and is drained first.
    now_bucket_.push_back(std::move(fn));
    return;
  }
  heap_.push_back(Scheduled{now_ + delay, next_seq_++, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Kernel::schedule_delta(SmallFn fn) {
  delta_.push_back(std::move(fn));
}

Time Kernel::quiet_until() const noexcept {
  if (!running_ || stop_requested_ || in_delta_ || waiters_left_ > 0 || !delta_.empty() ||
      now_head_ < now_bucket_.size()) {
    return now_;
  }
  if (heap_.empty()) return limit_;
  const Time next = heap_.front().at;  // now_ itself for a same-instant event
  return next < limit_ ? next : limit_;
}

void Kernel::run_next_timed() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Scheduled item = std::move(heap_.back());
  heap_.pop_back();
  now_ = item.at;
  item.fn();
  ++callbacks_executed_;
}

RunResult Kernel::run(Time limit) {
  if (running_) throw std::logic_error{"Kernel::run: re-entered"};
  OBS_SPAN("sim.kernel.run");
  const std::uint64_t callbacks_before = callbacks_executed_;
  const std::uint64_t deltas_before = delta_cycles_;
  running_ = true;
  stop_requested_ = false;
  limit_ = limit;
  RunResult result = RunResult::no_more_events;

  while (true) {
    if (stop_requested_) {
      result = RunResult::stopped;
      break;
    }
    if (!delta_.empty()) {
      // One delta cycle: drain the jobs queued so far; jobs they enqueue
      // belong to the following delta cycle. Swapping with the scratch
      // vector retains both buffers' capacity across cycles.
      delta_scratch_.swap(delta_);
      ++delta_cycles_;
      in_delta_ = true;
      for (auto& fn : delta_scratch_) {
        fn();
        ++callbacks_executed_;
        if (stop_requested_) break;
      }
      in_delta_ = false;
      delta_scratch_.clear();
      continue;
    }
    // Timed events at the current instant that were scheduled before this
    // time point began (they precede every bucket entry in seq order).
    if (!heap_.empty() && heap_.front().at <= now_) {
      if (now_ > limit) {
        now_ = limit;
        result = RunResult::time_limit;
        break;
      }
      run_next_timed();
      continue;
    }
    // Zero-delay callbacks appended while executing at the current instant.
    if (now_head_ < now_bucket_.size()) {
      if (now_ > limit) {
        now_ = limit;
        result = RunResult::time_limit;
        break;
      }
      SmallFn fn = std::move(now_bucket_[now_head_++]);
      if (now_head_ == now_bucket_.size()) {
        now_bucket_.clear();
        now_head_ = 0;
      }
      fn();
      ++callbacks_executed_;
      continue;
    }
    if (heap_.empty()) {
      result = RunResult::no_more_events;
      break;
    }
    if (heap_.front().at > limit) {
      now_ = limit;
      result = RunResult::time_limit;
      break;
    }
    run_next_timed();
  }

  running_ = false;
  // Deterministic event counts, summed registry-side across every kernel
  // in the process — worker-count invariant because each scenario's kernel
  // does identical work regardless of which worker hosts it.
  const KernelObs& counters = kernel_obs();
  counters.runs.inc();
  counters.callbacks.add(callbacks_executed_ - callbacks_before);
  counters.delta_cycles.add(delta_cycles_ - deltas_before);
  if (pending_error_) {
    auto error = std::exchange(pending_error_, nullptr);
    std::rethrow_exception(error);
  }
  return result;
}

}  // namespace symbad::sim
