#pragma once
// Simulated time for the Symbad discrete-event kernel.
//
// Time is an integral count of picoseconds, wide enough for ~106 days of
// simulated time. All platform models (bus cycles, CPU cycles, FPGA
// reconfiguration latencies) are expressed in this unit.

#include <compare>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace symbad::sim {

/// A point in (or duration of) simulated time, in picoseconds.
class Time {
public:
  constexpr Time() = default;

  static constexpr Time zero() noexcept { return Time{}; }
  static constexpr Time max() noexcept {
    return Time{std::numeric_limits<std::int64_t>::max()};
  }
  static constexpr Time ps(std::int64_t v) noexcept { return Time{v}; }
  static constexpr Time ns(std::int64_t v) noexcept { return Time{v * 1'000}; }
  static constexpr Time us(std::int64_t v) noexcept { return Time{v * 1'000'000}; }
  static constexpr Time ms(std::int64_t v) noexcept { return Time{v * 1'000'000'000}; }
  static constexpr Time sec(std::int64_t v) noexcept {
    return Time{v * 1'000'000'000'000};
  }

  /// Clock period of a frequency given in hertz (truncated to whole ps).
  /// Throws std::invalid_argument unless `hz` is finite and the period is
  /// in [1 ps, 9e18 ps): above 1e12 Hz it would truncate to 0 ps, and NaN,
  /// infinite, negative or slower rates have no such int64 period.
  static constexpr Time period_of_hz(double hz) {
    // Written so that NaN, whose comparisons are all false, fails too; an
    // infinite rate gives a 0 ps period.
    const double ps = hz > 0.0 ? 1e12 / hz : 0.0;
    if (!(ps >= 1.0 && ps < 9e18)) {
      throw std::invalid_argument{
          "Time::period_of_hz: hz must be finite with a period in [1 ps, 9e18 ps)"};
    }
    return Time{static_cast<std::int64_t>(ps)};
  }

  /// `n` cycles of clock period `period`.
  static constexpr Time cycles(std::int64_t n, Time period) noexcept {
    return Time{n * period.ps_};
  }

  [[nodiscard]] constexpr std::int64_t picoseconds() const noexcept { return ps_; }
  [[nodiscard]] constexpr double to_ns() const noexcept { return static_cast<double>(ps_) / 1e3; }
  [[nodiscard]] constexpr double to_us() const noexcept { return static_cast<double>(ps_) / 1e6; }
  [[nodiscard]] constexpr double to_ms() const noexcept { return static_cast<double>(ps_) / 1e9; }
  [[nodiscard]] constexpr double to_seconds() const noexcept {
    return static_cast<double>(ps_) / 1e12;
  }
  [[nodiscard]] constexpr bool is_zero() const noexcept { return ps_ == 0; }

  constexpr auto operator<=>(const Time&) const noexcept = default;

  constexpr Time& operator+=(Time rhs) noexcept {
    ps_ += rhs.ps_;
    return *this;
  }
  constexpr Time& operator-=(Time rhs) noexcept {
    ps_ -= rhs.ps_;
    return *this;
  }
  friend constexpr Time operator+(Time a, Time b) noexcept { return Time{a.ps_ + b.ps_}; }
  friend constexpr Time operator-(Time a, Time b) noexcept { return Time{a.ps_ - b.ps_}; }
  friend constexpr Time operator*(Time a, std::int64_t n) noexcept {
    return Time{a.ps_ * n};
  }
  friend constexpr Time operator*(std::int64_t n, Time a) noexcept { return a * n; }
  /// Integral ratio of two durations (how many `b` fit in `a`).
  friend constexpr std::int64_t operator/(Time a, Time b) {
    if (b.ps_ == 0) throw std::domain_error{"Time: division by zero duration"};
    return a.ps_ / b.ps_;
  }

  /// Human-readable rendering with an auto-selected unit, e.g. "12.5 us".
  [[nodiscard]] std::string to_string() const;

private:
  constexpr explicit Time(std::int64_t ps) noexcept : ps_{ps} {}
  std::int64_t ps_ = 0;
};

}  // namespace symbad::sim
