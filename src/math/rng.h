// Deterministic pseudo-random generation.
//
// The whole library (access strategies, Monte-Carlo verifiers, the
// discrete-event simulator) draws randomness from a single seeded generator
// so every experiment is reproducible. We implement xoshiro256** with
// SplitMix64 seeding — small, fast, and good enough statistically for
// simulation work. The class satisfies std::uniform_random_bit_generator.
#pragma once

#include <cstdint>

#include "util/require.h"

namespace pqs::math {

// SplitMix64: used to expand a single 64-bit seed into generator state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();

 private:
  std::uint64_t state_;
};

// xoshiro256** by Blackman & Vigna (public domain reference algorithm).
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next(); }

  // Inline (with below()) so the draw loops that call them per member —
  // Floyd's subset draw above all — keep the state in registers.
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound) without modulo bias (Lemire's
  // nearly-divisionless method).
  std::uint64_t below(std::uint64_t bound) {
    PQS_REQUIRE(bound > 0, "Rng::below(0)");
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  // Uniform double in [0, 1) with 53 bits of precision.
  double uniform();

  // Bernoulli(p) trial.
  bool chance(double p);

  // Uniform integer in [lo, hi] inclusive; any range, the full int64_t
  // one included.
  std::int64_t between(std::int64_t lo, std::int64_t hi);

  // Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  // Forks an independent generator; the child stream does not overlap the
  // parent's for any practical horizon. Used to give every simulated node
  // its own stream while keeping whole-run determinism from one seed.
  Rng fork();

  // Advances this generator by 2^128 steps (the xoshiro256** jump
  // polynomial). Successive jumps from one seed carve the period into
  // non-overlapping substreams of 2^128 draws each — the basis of the
  // deterministic sharding in core::Estimator: shard i gets a copy jumped
  // i times, so results are identical no matter how shards are scheduled.
  void jump();

  // Advances by 2^192 steps; partitions the sequence one level above
  // jump() (each long-jump leaves room for 2^64 jump() substreams).
  void long_jump();

  // The next substream: a copy of this generator after advancing *this* by
  // jump(). Calling substream() repeatedly yields generator 0, 1, 2, ...
  // of the non-overlapping substream sequence.
  Rng substream();

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  // Polynomial-jump core shared by jump() and long_jump().
  void jump_with(const std::uint64_t (&polynomial)[4]);

  std::uint64_t s_[4];
};

}  // namespace pqs::math
