#include "math/rng.h"

#include <cmath>

#include "util/require.h"

namespace pqs::math {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

std::int64_t Rng::between(std::int64_t lo, std::int64_t hi) {
  PQS_REQUIRE(lo <= hi, "Rng::between bounds");
  // The span in unsigned arithmetic: hi - lo overflows int64_t for ranges
  // wider than 2^63, and a span of all 2^64 values is one raw draw.
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  if (span == ~0ULL) return static_cast<std::int64_t>(next());
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   below(span + 1));
}

double Rng::exponential(double mean) {
  PQS_REQUIRE(mean > 0.0, "Rng::exponential mean");
  double u = uniform();
  // Avoid log(0); uniform() < 1 always, so 1-u > 0.
  return -mean * std::log1p(-u);
}

Rng Rng::fork() {
  Rng child(0);
  SplitMix64 sm(next() ^ 0xd1b54a32d192ed03ULL);
  for (auto& word : child.s_) word = sm.next();
  return child;
}

namespace {

// Jump polynomials from the xoshiro256** reference implementation
// (Blackman & Vigna, public domain).
constexpr std::uint64_t kJump[] = {0x180ec6d33cfd0abaULL,
                                   0xd5a61266f0c9392cULL,
                                   0xa9582618e03fc9aaULL,
                                   0x39abdc4529b1661cULL};
constexpr std::uint64_t kLongJump[] = {0x76e15d3efefdcbbfULL,
                                       0xc5004e441c522fb3ULL,
                                       0x77710069854ee241ULL,
                                       0x39109bb02acbe635ULL};

}  // namespace

void Rng::jump_with(const std::uint64_t (&polynomial)[4]) {
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::uint64_t word : polynomial) {
    for (int b = 0; b < 64; ++b) {
      if (word & (1ULL << b)) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      next();
    }
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
}

void Rng::jump() { jump_with(kJump); }

void Rng::long_jump() { jump_with(kLongJump); }

Rng Rng::substream() {
  const Rng current = *this;
  jump();
  return current;
}

}  // namespace pqs::math
