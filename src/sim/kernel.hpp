#pragma once
// The Symbad discrete-event scheduler and its notification primitive.
//
// Scheduling model (a deliberate simplification of the SystemC two-phase
// model that is sufficient for transaction-level platforms):
//
//  * Timed events are processed in (time, insertion-order) order.
//  * `Event::notify()` wakes waiters in the *next delta cycle* of the current
//    time point; delta jobs are always drained before simulated time advances.
//  * An earlier pending notification on an `Event` overrides a later one
//    (SystemC rule); `Event::cancel()` discards a pending notification.
//
// Processes awaiting events or timeouts are plain coroutine handles; an
// `Event` resumes all of its waiters when it fires.

#include <coroutine>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/coro.hpp"
#include "sim/smallfn.hpp"
#include "sim/time.hpp"

namespace symbad::sim {

class Kernel;

/// Why `Kernel::run` returned.
enum class RunResult {
  no_more_events,  ///< event queue drained
  stopped,         ///< Kernel::stop() was called
  time_limit,      ///< the time limit was reached
};

/// A notifiable synchronisation object that coroutines can `co_await`.
/// Events must outlive the simulation they participate in.
class Event {
public:
  explicit Event(Kernel& kernel, std::string name = "event");
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  /// Wake all current waiters in the next delta cycle.
  void notify();
  /// Wake all waiters `delay` from now. An already-pending earlier
  /// notification wins; a later pending one is superseded.
  void notify(Time delay);
  /// Discard any pending notification.
  void cancel() noexcept;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t waiter_count() const noexcept { return waiters_.size(); }
  [[nodiscard]] bool notification_pending() const noexcept { return pending_; }

  struct Awaiter {
    Event& event;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { event.waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };
  Awaiter operator co_await() noexcept { return Awaiter{*this}; }

private:
  void fire();

  Kernel* kernel_;
  std::string name_;
  std::vector<std::coroutine_handle<>> waiters_;
  std::vector<std::coroutine_handle<>> firing_;  ///< fire() scratch, capacity reused
  std::uint64_t generation_ = 0;
  bool pending_ = false;
  bool pending_is_delta_ = false;
  Time pending_at_;
};

/// The discrete-event scheduler.
class Kernel {
public:
  Kernel() = default;
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;
  ~Kernel();

  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Register a top-level process; it starts when `run` is (next) entered.
  void spawn(Process process, std::string name = "process");

  /// Schedule `fn` to run `delay` from now (0 = at the current time, after
  /// already-queued same-time work). Throws on negative delay. Zero-delay
  /// callbacks go to a current-time bucket (plain FIFO, no heap reshuffle);
  /// with SmallFn payloads and retained queue capacity, steady-state
  /// scheduling performs no heap allocation.
  void schedule(Time delay, SmallFn fn);
  /// Schedule `fn` into the next delta cycle of the current time point.
  void schedule_delta(SmallFn fn);

  /// Run until the queue drains, `stop()` is called, or `limit` is passed.
  /// Re-throws the first exception that escaped a process.
  RunResult run(Time limit = Time::max());

  /// Request that `run` return after the current callback.
  void stop() noexcept { stop_requested_ = true; }

  /// Earliest instant at which a callback other than the running one can
  /// run. `now()` while delta jobs, zero-delay callbacks or timed events of
  /// the current instant are pending, during a delta cycle, while an event
  /// still has waiters to resume in this callback, after `stop()` and
  /// outside `run`; otherwise the next timed event, capped by `run`'s limit.
  /// A model alone on a resource until then may advance it in one wake
  /// instead of one per step (`tlm::Bus::stream`). A raw `schedule`d
  /// callback that resumes coroutines must resume at most one.
  [[nodiscard]] Time quiet_until() const noexcept;

  // --- awaitables -----------------------------------------------------
  struct TimedAwaiter {
    Kernel& kernel;
    Time delay;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      kernel.schedule(delay, [h] { h.resume(); });
    }
    void await_resume() const noexcept {}
  };
  /// `co_await kernel.wait(Time::ns(10))` — suspend for a duration.
  [[nodiscard]] TimedAwaiter wait(Time delay) { return TimedAwaiter{*this, delay}; }
  /// Suspend until the absolute time `at` (no-op wait if already past).
  [[nodiscard]] TimedAwaiter wait_until(Time at) {
    const Time delay = at > now_ ? at - now_ : Time::zero();
    return TimedAwaiter{*this, delay};
  }

  // --- statistics -----------------------------------------------------
  [[nodiscard]] std::uint64_t callbacks_executed() const noexcept {
    return callbacks_executed_;
  }
  [[nodiscard]] std::uint64_t delta_cycles() const noexcept { return delta_cycles_; }
  [[nodiscard]] std::uint64_t processes_spawned() const noexcept {
    return processes_spawned_;
  }
  [[nodiscard]] std::size_t live_processes() const noexcept {
    return live_processes_.size();
  }

private:
  friend class Event;
  friend void detail::process_finished(Kernel&, void*) noexcept;
  friend void detail::process_failed(Kernel&, std::exception_ptr) noexcept;

  struct Scheduled {
    Time at;
    std::uint64_t seq;
    SmallFn fn;
  };
  /// Heap ordering: std::push_heap's "max" element under this comparison is
  /// the earliest (time, insertion-order) event, kept at heap_.front().
  struct Later {
    bool operator()(const Scheduled& a, const Scheduled& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Pops the earliest heap event and runs it at its timestamp.
  void run_next_timed();

  // Timed events beyond the current instant: a binary min-heap over a plain
  // vector (std::push_heap / std::pop_heap move elements, so the move-only
  // SmallFn payload never needs a copy and the vector's capacity is retained
  // across pops — no allocation once warmed up).
  std::vector<Scheduled> heap_;
  // Zero-delay events at the current time point: drained FIFO after the
  // heap's same-time events (which always carry smaller sequence numbers).
  std::vector<SmallFn> now_bucket_;
  std::size_t now_head_ = 0;
  // Delta queue and its ping-pong partner: one cycle swaps them, so both
  // retain their capacity instead of reallocating every cycle.
  std::vector<SmallFn> delta_;
  std::vector<SmallFn> delta_scratch_;
  std::vector<void*> live_processes_;  // frames of spawned, unfinished processes
  std::exception_ptr pending_error_;
  Time now_;
  Time limit_;                      // the running `run`'s time limit
  std::size_t waiters_left_ = 0;    // Event::fire's waiters not yet resumed
  std::uint64_t next_seq_ = 0;
  std::uint64_t callbacks_executed_ = 0;
  std::uint64_t delta_cycles_ = 0;
  std::uint64_t processes_spawned_ = 0;
  bool stop_requested_ = false;
  bool running_ = false;
  bool in_delta_ = false;
};

}  // namespace symbad::sim
