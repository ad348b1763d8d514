// Stream pins for the batched draw. Every QuorumSystem::sample_masks,
// override or default (grid and Strategy draw through the default loop),
// must fill exactly the masks that `count` successive sample_mask calls
// fill and leave the rng in exactly their end state, into owning bitsets
// and MaskBatch views alike, without allocating. The two-pass Floyd batch
// underneath, math::sample_without_replacement_bits_batch, is pinned the
// same way against the one-mask draw, including k = 0, k = n and a k
// wider than its index buffer.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/random_subset_system.h"
#include "math/rng.h"
#include "math/sampling.h"
#include "quorum/bitset.h"
#include "quorum/grid.h"
#include "quorum/mask_batch.h"
#include "quorum/strategy.h"
#include "quorum/threshold.h"

// Counts every global allocation in this test binary, so the draw tests
// can assert that sample_masks allocates nothing.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pqs {
namespace {

using quorum::QuorumBitset;
using quorum::QuorumSystem;

constexpr std::size_t kCounts[] = {0, 1, 15, 16, 17, 100};
constexpr std::uint32_t kUniverses[] = {1, 63, 64, 65, 100, 200, 1000};

// Equal generators produce equal outputs; four words of xoshiro256**
// output pin its 256-bit state for any practical purpose.
bool same_state(math::Rng a, math::Rng b) {
  for (int i = 0; i < 4; ++i) {
    if (a.next() != b.next()) return false;
  }
  return true;
}

// Draws `count` masks both ways from `seed` and requires identical masks
// and rng end states; the batched call must not allocate.
void expect_pinned(const QuorumSystem& system, std::size_t count,
                   std::uint64_t seed) {
  SCOPED_TRACE(system.name() + " count=" + std::to_string(count));
  const std::uint32_t n = system.universe_size();
  math::Rng expected_rng(seed);
  std::vector<QuorumBitset> expected(count);
  for (QuorumBitset& mask : expected) system.sample_mask(mask, expected_rng);

  // Warm-up on another stream: thread-local scratch (the grid's row and
  // column ids) takes its capacity here, not in the counted call.
  math::Rng warm_rng(seed + 1);
  std::vector<QuorumBitset> owned(std::max<std::size_t>(count, 1),
                                  QuorumBitset(n));
  system.sample_masks(owned.data(), owned.size(), warm_rng);

  math::Rng owned_rng(seed);
  std::uint64_t before = g_allocations.load();
  system.sample_masks(owned.data(), count, owned_rng);
  EXPECT_EQ(g_allocations.load() - before, 0u) << "owning bitsets";
  EXPECT_TRUE(same_state(owned_rng, expected_rng)) << "owning bitsets";

  quorum::MaskBatch batch(n, count);
  math::Rng view_rng(seed);
  before = g_allocations.load();
  system.sample_masks(batch.masks(), count, view_rng);
  EXPECT_EQ(g_allocations.load() - before, 0u) << "MaskBatch views";
  EXPECT_TRUE(same_state(view_rng, expected_rng)) << "MaskBatch views";

  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_TRUE(owned[i].equals(expected[i])) << "owning mask " << i;
    ASSERT_TRUE(batch.mask(i).equals(expected[i])) << "view mask " << i;
  }
}

TEST(SampleMasksPin, FloydBatchMatchesSequentialDraws) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cases;
  for (const std::uint32_t n : kUniverses) {
    for (const std::uint32_t k : {0u, 1u, n / 2, n - 1, n}) {
      cases.emplace_back(n, k);
    }
  }
  // Wider than the 4096-index buffer: one mask per chunk, in segments; and
  // a k that leaves room for two masks per chunk.
  cases.emplace_back(5000, 4500);
  cases.emplace_back(5000, 1500);
  for (const auto& [n, k] : cases) {
    const std::size_t words = (n + 63) / 64;
    for (const std::size_t count : kCounts) {
      SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k) +
                   " count=" + std::to_string(count));
      math::Rng expected_rng(n * 1000003ULL + k * 31ULL + count);
      math::Rng rng = expected_rng;
      std::vector<std::uint64_t> expected(count * words, 0);
      for (std::size_t i = 0; i < count; ++i) {
        math::sample_without_replacement_bits(n, k, expected_rng,
                                              expected.data() + i * words);
      }
      std::vector<std::uint64_t> got(count * words, 0);
      std::vector<std::uint64_t*> pointers(count);
      for (std::size_t i = 0; i < count; ++i) {
        pointers[i] = got.data() + i * words;
      }
      math::sample_without_replacement_bits_batch(n, k, rng, pointers.data(),
                                                  count);
      EXPECT_TRUE(same_state(rng, expected_rng));
      ASSERT_EQ(got, expected);
      for (std::size_t i = 0; i < count; ++i) {
        std::uint32_t members = 0;
        for (std::size_t w = 0; w < words; ++w) {
          members += quorum::popcount64(got[i * words + w]);
        }
        ASSERT_EQ(members, k) << "mask " << i;
      }
    }
  }
}

TEST(SampleMasksPin, FloydBatchRejectsOversample) {
  math::Rng rng(1);
  std::uint64_t word = 0;
  std::uint64_t* pointer = &word;
  EXPECT_THROW(math::sample_without_replacement_bits_batch(3, 4, rng,
                                                           &pointer, 1),
               std::invalid_argument);
}

TEST(SampleMasksPin, Threshold) {
  for (const std::uint32_t n : kUniverses) {
    for (const std::uint32_t q : {n / 2 + 1, n}) {
      const quorum::ThresholdSystem system(n, q);
      for (const std::size_t count : kCounts) {
        expect_pinned(system, count, 17 + n + q);
      }
    }
  }
}

TEST(SampleMasksPin, RandomSubset) {
  for (const std::uint32_t n : kUniverses) {
    for (const std::uint32_t q : {1u, std::max(1u, n / 2), n}) {
      const core::RandomSubsetSystem system(n, q);
      for (const std::size_t count : kCounts) {
        expect_pinned(system, count, 29 + n + q);
      }
    }
  }
}

TEST(SampleMasksPin, Grid) {
  // rows x cols = each universe size of kUniverses.
  const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
      {1, 1}, {7, 9}, {8, 8}, {5, 13}, {10, 10}, {10, 20}, {25, 40}};
  for (const auto& [rows, cols] : shapes) {
    for (const std::uint32_t d : {1u, std::min(rows, cols)}) {
      const quorum::GridSystem system(rows, cols, d);
      for (const std::size_t count : kCounts) {
        expect_pinned(system, count, 41 + rows * cols + d);
      }
    }
  }
}

TEST(SampleMasksPin, Strategy) {
  for (const std::uint32_t n : kUniverses) {
    const auto base = std::make_shared<quorum::ThresholdSystem>(
        quorum::ThresholdSystem::majority(n));
    math::Rng support_rng(n);
    std::vector<quorum::Quorum> support;
    for (int i = 0; i < 3; ++i) support.push_back(base->sample(support_rng));
    const quorum::Strategy system(base, support, {0.5, 0.3, 0.2}, support,
                                  {0.2, 0.3, 0.5});
    for (const std::size_t count : kCounts) {
      expect_pinned(system, count, 53 + n);
    }
  }
}

}  // namespace
}  // namespace pqs
