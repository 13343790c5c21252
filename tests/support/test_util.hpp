#pragma once
// Shared support for the Symbad test suites.
//
// Four concerns every suite kept reinventing:
//
//  1. Deterministic randomness. Property sweeps must generate identical
//     instances on every platform and standard library, so all test
//     randomness flows through symbad::verif::Rng (SplitMix64) instead of
//     std::mt19937 + distributions (whose outputs are implementation
//     defined for distributions). `symbad::test::rng(salt)` forks an
//     independent stream per call site from one base seed, overridable via
//     the SYMBAD_TEST_SEED environment variable for shmoo runs — the
//     default keeps CI reproducible.
//
//  2. Cross-level trace comparison. The methodology's soundness invariant
//     is "refined model trace == level-1 trace"; a bare EXPECT_TRUE on
//     Trace::data_equal says only *that* they differ. The helpers here
//     report *where*: first missing channel, first diverging index, both
//     values.
//
//  3. Scratch directories. Tests that write artifacts (coverage dumps,
//     generated sources) derive from TmpDirTest, which hands out a unique
//     directory and removes it afterwards.
//
//  4. Telemetry level. Engine cost lives only in the obs registry, read
//     per call through an obs::Scope; a test that asserts such a delta
//     holds a CountersOn, so it passes at any SYMBAD_OBS setting.
//
//  5. Environment knobs. They are process globals, so a test that sets one
//     holds an EnvGuard, which restores the previous state on exit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <random>
#include <string>
#include <string_view>

#include "obs/obs.hpp"
#include "sim/trace.hpp"
#include "verif/rng.hpp"

namespace symbad::test {

// ----------------------------------------------------------- determinism

/// Base seed for all test randomness. Override with SYMBAD_TEST_SEED=<n>
/// to shmoo the property sweeps; unset, every run is bit-identical.
inline std::uint64_t base_seed() {
  static const std::uint64_t seed = [] {
    if (const char* env = std::getenv("SYMBAD_TEST_SEED")) {
      return static_cast<std::uint64_t>(std::strtoull(env, nullptr, 0));
    }
    return std::uint64_t{0x5EEDBAD04ULL};
  }();
  return seed;
}

/// An independent deterministic stream for one call site. Distinct salts
/// give decorrelated streams (SplitMix64 fork), so parameterised tests pass
/// GetParam() as the salt.
[[nodiscard]] inline verif::Rng rng(std::uint64_t salt) {
  return verif::Rng{base_seed()}.fork(salt);
}

/// Salted by name, for suites that want per-test streams without numbering.
[[nodiscard]] inline verif::Rng rng(std::string_view name) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const char c : name) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  return rng(h);
}

/// Lazily constructed process-wide fixture, for suites whose setup
/// (database enrolment, reference profiling) is too expensive per-test.
template <typename T>
[[nodiscard]] T& shared_fixture() {
  static T instance;
  return instance;
}

// ------------------------------------------------------ trace comparison

/// Trace::data_equal with a diagnosis: which channel, which index, which
/// values (via sim::Trace::first_divergence, the one implementation of the
/// cross-level agreement check). Use with EXPECT_TRUE / ASSERT_TRUE.
[[nodiscard]] inline ::testing::AssertionResult traces_data_equal(
    const sim::Trace& golden, const sim::Trace& candidate) {
  if (const auto diff =
          sim::Trace::first_divergence(golden, candidate, "golden", "candidate")) {
    return ::testing::AssertionFailure() << *diff;
  }
  return ::testing::AssertionSuccess();
}

/// Prefix variant: every value the shorter trace recorded must open the
/// longer one's per-channel sequence (used by monotonic-extension tests).
[[nodiscard]] inline ::testing::AssertionResult trace_extends(
    const sim::Trace& shorter, const sim::Trace& longer) {
  const auto a = shorter.by_channel();
  const auto b = longer.by_channel();
  for (const auto& [channel, values] : a) {
    const auto it = b.find(channel);
    if (it == b.end()) {
      return ::testing::AssertionFailure()
             << "channel '" << channel << "' missing from the longer trace";
    }
    if (it->second.size() < values.size()) {
      return ::testing::AssertionFailure()
             << "channel '" << channel << "' shrank: " << values.size()
             << " -> " << it->second.size() << " values";
    }
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (values[i] != it->second[i]) {
        return ::testing::AssertionFailure()
               << "channel '" << channel << "' prefix diverges at index " << i
               << ": " << values[i] << " vs " << it->second[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// ------------------------------------------------------------- telemetry

/// Turns counter telemetry on (SYMBAD_OBS level >= 1) for its lifetime and
/// restores the previous level afterwards; a level-2 run keeps its spans.
class CountersOn {
public:
  CountersOn() : previous_{obs::Registry::instance().level()} {
    if (previous_ == 0) obs::Registry::instance().set_level(1);
  }
  ~CountersOn() { obs::Registry::instance().set_level(previous_); }
  CountersOn(const CountersOn&) = delete;
  CountersOn& operator=(const CountersOn&) = delete;

private:
  int previous_;
};

// ----------------------------------------------------------- environment

/// Sets (or, with nullptr, unsets) one environment variable for its
/// lifetime and restores the previous state afterwards.
class EnvGuard {
public:
  EnvGuard(const char* name, const char* value) : name_{name} {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value, 1);
    }
  }
  ~EnvGuard() {
    if (old_.has_value()) {
      ::setenv(name_.c_str(), old_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

private:
  std::string name_;
  std::optional<std::string> old_;
};

// -------------------------------------------------------------- tmp dirs

/// Fixture owning a unique scratch directory, removed on teardown.
class TmpDirTest : public ::testing::Test {
protected:
  void SetUp() override {
    // Unique per process AND per test: a random_device nonce keeps
    // concurrent runs (and leftovers from crashed ones) from colliding —
    // scratch paths need uniqueness, not reproducibility.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    const auto nonce = std::random_device{}();
    dir_ = std::filesystem::temp_directory_path() /
           ("symbad_test_" + std::string{info->name()} + "_" +
            std::to_string(nonce));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;  // best-effort; never fail a test in teardown
    std::filesystem::remove_all(dir_, ec);
  }

  [[nodiscard]] const std::filesystem::path& tmp_dir() const noexcept {
    return dir_;
  }

private:
  std::filesystem::path dir_;
};

}  // namespace symbad::test
