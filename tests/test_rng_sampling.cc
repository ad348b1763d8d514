#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "math/rng.h"
#include "math/sampling.h"

namespace pqs::math {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr std::uint64_t kBound = 10;
  constexpr int kSamples = 100000;
  std::vector<int> counts(kBound, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[rng.below(kBound)];
  for (auto c : counts) {
    EXPECT_NEAR(c, kSamples / kBound, 5 * std::sqrt(kSamples / kBound));
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000, 0.5, 0.01);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceFrequency) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, BetweenInclusive) {
  Rng rng(23);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

// Wide ranges: the span is computed in uint64_t (hi - lo in int64_t
// overflows past 2^63), the full int64_t range is one raw draw, and
// ordinary ranges keep their stream: lo + below(hi - lo + 1).
TEST(Rng, BetweenWideRanges) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Rng rng(31);
  Rng reference(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.between(kMin, kMax),
              static_cast<std::int64_t>(reference.next()));
  }
  const std::pair<std::int64_t, std::int64_t> ranges[] = {
      {kMin, kMax - 1}, {kMin + 1, kMax}, {kMin, 0}, {-1, kMax},
      {kMin, kMin},     {kMax, kMax},     {-3, 3},   {0, 0}};
  for (const auto& [lo, hi] : ranges) {
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
    for (int i = 0; i < 100; ++i) {
      const std::int64_t v = rng.between(lo, hi);
      EXPECT_GE(v, lo);
      EXPECT_LE(v, hi);
      EXPECT_EQ(v, static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                             reference.below(span + 1)))
          << lo << ".." << hi;
    }
  }
  // Both halves of the full range are reached.
  bool negative = false, positive = false;
  for (int i = 0; i < 64; ++i) {
    const std::int64_t v = rng.between(kMin, kMax - 1);
    negative |= v < 0;
    positive |= v > 0;
  }
  EXPECT_TRUE(negative && positive);
}

TEST(Rng, ExponentialMean) {
  Rng rng(29);
  double sum = 0.0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(50.0);
  EXPECT_NEAR(sum / kSamples, 50.0, 1.0);
}

TEST(Rng, JumpIsDeterministic) {
  Rng a(7), b(7);
  a.jump();
  b.jump();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, JumpChangesTheStream) {
  Rng a(7), b(7);
  b.jump();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, JumpedStreamsDoNotCollide) {
  // jump() advances by 2^128 draws, so consecutive substreams are disjoint
  // for any horizon we can observe; check the first 20k outputs of eight
  // substreams pairwise for collisions.
  Rng base(123);
  std::set<std::uint64_t> seen;
  for (int stream = 0; stream < 8; ++stream) {
    Rng rng = base.substream();
    for (int i = 0; i < 20000; ++i) {
      ASSERT_TRUE(seen.insert(rng.next()).second)
          << "collision in stream " << stream << " at draw " << i;
    }
  }
}

TEST(Rng, LongJumpDiffersFromJump) {
  Rng a(99), b(99);
  a.jump();
  b.long_jump();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, SubstreamSequenceIsDistinctAndDeterministic) {
  Rng rng(5), replay(5);
  const Rng first = rng.substream();
  Rng second = rng.substream();
  // Deterministic: replaying the seed yields the same substreams.
  Rng first_replay = replay.substream();
  Rng first_copy = first;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(first_copy.next(), first_replay.next());
  }
  // Distinct: substream 0 and substream 1 do not overlap.
  Rng first_again = first;
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += (first_again.next() == second.next()) ? 1 : 0;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkedStreamsIndependent) {
  Rng parent(31);
  Rng child = parent.fork();
  // The child stream should not reproduce the parent stream.
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (parent.next() == child.next()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Sampling, ProducesSortedDistinctOfRightSize) {
  Rng rng(37);
  for (std::uint32_t n : {1u, 5u, 30u, 100u}) {
    for (std::uint32_t k = 0; k <= n; k += std::max(1u, n / 4)) {
      const auto s = sample_without_replacement(n, k, rng);
      EXPECT_EQ(s.size(), k);
      EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
      EXPECT_TRUE(std::adjacent_find(s.begin(), s.end()) == s.end());
      if (!s.empty()) {
        EXPECT_LT(s.back(), n);
      }
    }
  }
}

TEST(Sampling, FullSampleIsWholeUniverse) {
  Rng rng(41);
  const auto s = sample_without_replacement(12, 12, rng);
  for (std::uint32_t i = 0; i < 12; ++i) EXPECT_EQ(s[i], i);
}

TEST(Sampling, RejectsOversample) {
  Rng rng(43);
  EXPECT_THROW(sample_without_replacement(5, 6, rng), std::invalid_argument);
}

TEST(Sampling, UniformOverSubsets) {
  // Every 2-subset of {0..4} (10 of them) should appear ~equally often.
  Rng rng(47);
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> counts;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    const auto s = sample_without_replacement(5, 2, rng);
    ++counts[{s[0], s[1]}];
  }
  EXPECT_EQ(counts.size(), 10u);
  for (const auto& [subset, c] : counts) {
    EXPECT_NEAR(c, kSamples / 10, 5 * std::sqrt(kSamples / 10.0));
  }
}

TEST(Sampling, ElementInclusionFrequency) {
  // P(u in sample) = k/n for every u — the load identity of R(n, q).
  Rng rng(53);
  constexpr std::uint32_t n = 20, k = 7;
  constexpr int kSamples = 50000;
  std::vector<int> hits(n, 0);
  for (int i = 0; i < kSamples; ++i) {
    for (auto u : sample_without_replacement(n, k, rng)) ++hits[u];
  }
  for (auto h : hits) {
    EXPECT_NEAR(h / double(kSamples), double(k) / n, 0.02);
  }
}

TEST(Sampling, SortedIntersects) {
  EXPECT_TRUE(sorted_intersects({1, 3, 5}, {5, 7}));
  EXPECT_FALSE(sorted_intersects({1, 3, 5}, {0, 2, 6}));
  EXPECT_FALSE(sorted_intersects({}, {1}));
  EXPECT_FALSE(sorted_intersects({}, {}));
}

TEST(Sampling, SortedIntersectionSize) {
  EXPECT_EQ(sorted_intersection_size({1, 2, 3, 9}, {2, 3, 4, 9}), 3u);
  EXPECT_EQ(sorted_intersection_size({1, 2}, {3, 4}), 0u);
  EXPECT_EQ(sorted_intersection_size({}, {1, 2}), 0u);
  EXPECT_EQ(sorted_intersection_size({5}, {5}), 1u);
}

TEST(Sampling, ShufflePreservesMultiset) {
  Rng rng(59);
  std::vector<std::uint32_t> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = v;
  shuffle(copy, rng);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, v);
}

}  // namespace
}  // namespace pqs::math
