// Deterministic pseudo-random number generation for the model checker.
//
// Exploration must be reproducible from a seed (Spin logs the seed so a
// counterexample can be replayed), so we use a fixed, well-known generator
// (xoshiro256**, seeded via SplitMix64) rather than std::default_random_engine,
// whose algorithm is implementation-defined.
#pragma once

#include <array>
#include <cstdint>

namespace mcfs {

// SplitMix64: used to expand a single 64-bit seed into generator state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

// xoshiro256**: fast, high-quality, tiny state; the workhorse PRNG.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.Next();
  }

  std::uint64_t Next() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform value in [0, bound). bound == 0 returns 0.
  std::uint64_t Below(std::uint64_t bound) {
    if (bound == 0) return 0;
    // Multiply-shift rejection-free mapping (slight bias is irrelevant for
    // state-space exploration and keeps replay deterministic and fast).
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

  // Uniform value in [lo, hi] inclusive.
  std::uint64_t Between(std::uint64_t lo, std::uint64_t hi) {
    const std::uint64_t span = hi - lo;
    // Full-range request: span + 1 would wrap to 0 and Below(0) would
    // pin the result to lo; every 64-bit value is valid, so draw raw.
    if (span == ~std::uint64_t{0}) return Next();
    return lo + Below(span + 1);
  }

  // Bernoulli draw with probability num/den. A zero denominator is a
  // checked no-draw: it returns false WITHOUT consuming generator state
  // (Below(0) short-circuits too), so a caller probing a degenerate
  // ratio does not perturb replay determinism — and num/0 must not read
  // as "certain" the way `Below(0) < num` (0 < num) would.
  bool Chance(std::uint64_t num, std::uint64_t den) {
    if (den == 0) return false;
    return Below(den) < num;
  }

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace mcfs
