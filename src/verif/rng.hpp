#pragma once
// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component (synthetic face generator, sensor noise, the
// genetic ATPG engine) uses this engine so that results are identical across
// platforms and standard-library implementations.

#include <cstdint>

namespace symbad::verif {

/// SplitMix64: tiny, fast, high-quality 64-bit PRNG with deterministic
/// cross-platform output.
class Rng {
public:
  explicit constexpr Rng(std::uint64_t seed) noexcept : state_{seed} {}

  constexpr std::uint64_t next() noexcept {
    state_ += kGamma;
    return mix(state_);
  }

  /// The value the (k+1)-th `next()` call from here would return, without
  /// advancing. SplitMix64 is counter-based (the k-th state is the seed plus
  /// k gammas), so any offset costs O(1).
  [[nodiscard]] constexpr std::uint64_t at(std::uint64_t k) const noexcept {
    return mix(state_ + (k + 1) * kGamma);
  }

  /// Advances the stream as if `next()` had been called `n` times.
  constexpr void discard(std::uint64_t n) noexcept { state_ += n * kGamma; }

  /// Uniform in [0, bound) (bound > 0).
  constexpr std::uint64_t below(std::uint64_t bound) noexcept {
    return next() % bound;
  }

  /// Uniform integer in [lo, hi] inclusive.
  constexpr std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  constexpr double uniform() noexcept {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Bernoulli with probability p.
  constexpr bool chance(double p) noexcept { return uniform() < p; }

  /// Derives an independent stream (for per-component seeding).
  [[nodiscard]] constexpr Rng fork(std::uint64_t salt) noexcept {
    Rng r{state_ ^ (salt * 0xD1342543DE82EF95ULL + 0x63652362ULL)};
    (void)r.next();
    return r;
  }

private:
  static constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ULL;

  static constexpr std::uint64_t mix(std::uint64_t z) noexcept {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  std::uint64_t state_;
};

}  // namespace symbad::verif
