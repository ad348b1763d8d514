// QuorumBitset's word-parallel set algebra must agree with the sorted-vector
// routines it replaced.
#include "quorum/bitset.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/random_subset_system.h"
#include "math/rng.h"
#include "math/sampling.h"

namespace pqs::quorum {
namespace {

// Reference implementations over sorted vectors (the seed hot path).
std::uint32_t ref_overlap_with_prefix(const Quorum& q, std::uint32_t b) {
  std::uint32_t count = 0;
  for (auto u : q) {
    if (u < b) ++count;
  }
  return count;
}

std::uint32_t ref_overlap_excluding_prefix(const Quorum& a, const Quorum& b,
                                           std::uint32_t prefix) {
  std::uint32_t count = 0;
  for (auto u : a) {
    if (u < prefix) continue;
    for (auto v : b) {
      if (v == u) ++count;
    }
  }
  return count;
}

TEST(QuorumBitset, BasicSetAndTest) {
  QuorumBitset bs(130);  // spans three words
  EXPECT_EQ(bs.universe_size(), 130u);
  EXPECT_EQ(bs.count(), 0u);
  bs.set(0);
  bs.set(63);
  bs.set(64);
  bs.set(129);
  EXPECT_TRUE(bs.test(0));
  EXPECT_TRUE(bs.test(63));
  EXPECT_TRUE(bs.test(64));
  EXPECT_TRUE(bs.test(129));
  EXPECT_FALSE(bs.test(1));
  EXPECT_FALSE(bs.test(128));
  EXPECT_EQ(bs.count(), 4u);
  bs.clear();
  EXPECT_EQ(bs.count(), 0u);
  EXPECT_EQ(bs.universe_size(), 130u);
}

TEST(QuorumBitset, AssignAndRoundTrip) {
  const Quorum q{0, 5, 63, 64, 65, 99};
  QuorumBitset bs(100);
  bs.assign(q);
  EXPECT_EQ(bs.to_quorum(), q);
  // Re-assign replaces, not accumulates.
  const Quorum q2{1, 2};
  bs.assign(q2);
  EXPECT_EQ(bs.to_quorum(), q2);
}

TEST(QuorumBitset, CountBelowMatchesReference) {
  math::Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t n = 1 + static_cast<std::uint32_t>(rng.below(200));
    const std::uint32_t k = static_cast<std::uint32_t>(rng.below(n + 1));
    const auto q = math::sample_without_replacement(n, k, rng);
    QuorumBitset bs(n);
    bs.assign(q);
    for (std::uint32_t b : {0u, 1u, 63u, 64u, 65u, n / 2, n, n + 10}) {
      EXPECT_EQ(bs.count_below(b), ref_overlap_with_prefix(q, b))
          << "n=" << n << " k=" << k << " b=" << b;
    }
  }
}

TEST(QuorumBitset, IntersectionMatchesSortedRoutines) {
  math::Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t n = 1 + static_cast<std::uint32_t>(rng.below(300));
    const auto ka = static_cast<std::uint32_t>(rng.below(n + 1));
    const auto kb = static_cast<std::uint32_t>(rng.below(n + 1));
    const auto a = math::sample_without_replacement(n, ka, rng);
    const auto b = math::sample_without_replacement(n, kb, rng);
    QuorumBitset ba(n), bb(n);
    ba.assign(a);
    bb.assign(b);
    EXPECT_EQ(ba.intersects(bb), math::sorted_intersects(a, b));
    EXPECT_EQ(ba.intersection_count(bb), math::sorted_intersection_size(a, b));
    for (std::uint32_t lo : {0u, 1u, 64u, n / 3, n - 1, n, n + 5}) {
      EXPECT_EQ(ba.intersection_count_from(bb, lo),
                ref_overlap_excluding_prefix(a, b, lo))
          << "n=" << n << " lo=" << lo;
    }
  }
}

TEST(QuorumBitset, ResizeReusesAcrossUniverses) {
  QuorumBitset bs(10);
  bs.set(9);
  bs.resize(200);
  EXPECT_EQ(bs.count(), 0u);  // resize clears
  bs.set(199);
  EXPECT_EQ(bs.count(), 1u);
}

// The sorted-id adapter over sample_mask reuses the caller's vector.
TEST(SampleInto, ReusesCapacity) {
  const core::RandomSubsetSystem sys(100, 23);
  math::Rng rng(1);
  Quorum q;
  sys.sample_into(q, rng);
  const auto* data = q.data();
  const auto cap = q.capacity();
  for (int i = 0; i < 50; ++i) sys.sample_into(q, rng);
  EXPECT_EQ(q.capacity(), cap);
  EXPECT_EQ(q.data(), data);  // no reallocation across draws
}

}  // namespace
}  // namespace pqs::quorum
