#include "math/sampling.h"

#include <algorithm>

#include "util/require.h"

namespace pqs::math {

void sample_without_replacement(std::uint32_t n, std::uint32_t k, Rng& rng,
                                std::vector<std::uint32_t>& out) {
  PQS_REQUIRE(k <= n, "sample size exceeds population");
  out.clear();
  out.reserve(k);
  // Floyd's algorithm: for j in [n-k, n), pick t uniform in [0, j]; insert t
  // unless already present, else insert j. Uniform over all k-subsets.
  //
  // The membership test is a word-mask lookup (O(1)) over a thread-local
  // scratch instead of a linear scan, turning a draw from O(k^2) into
  // O(k + n/64); the RNG consumption and the returned subset are identical
  // to the scan version, so seeded experiments are unaffected.
  static thread_local std::vector<std::uint64_t> taken;
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  taken.assign(words, 0);
  for (std::uint32_t j = n - k; j < n; ++j) {
    const std::uint32_t t =
        static_cast<std::uint32_t>(rng.below(static_cast<std::uint64_t>(j) + 1));
    const std::uint32_t pick =
        (taken[t >> 6] >> (t & 63)) & 1ULL ? j : t;
    taken[pick >> 6] |= 1ULL << (pick & 63);
    out.push_back(pick);
  }
  std::sort(out.begin(), out.end());
}

void sample_without_replacement_bits(std::uint32_t n, std::uint32_t k,
                                     Rng& rng, std::uint64_t* words) {
  PQS_REQUIRE(k <= n, "sample size exceeds population");
  // Floyd's algorithm as above, with the output mask doubling as the
  // membership structure: O(k) total, nothing to sort. The local copy of
  // the generator keeps its state out of memory the mask stores could
  // alias.
  Rng local = rng;
  for (std::uint32_t j = n - k; j < n; ++j) {
    const std::uint32_t t = static_cast<std::uint32_t>(
        local.below(static_cast<std::uint64_t>(j) + 1));
    const std::uint32_t pick =
        (words[t >> 6] >> (t & 63)) & 1ULL ? j : t;
    words[pick >> 6] |= 1ULL << (pick & 63);
  }
  rng = local;
}

void sample_without_replacement_bits_batch(std::uint32_t n, std::uint32_t k,
                                           Rng& rng,
                                           std::uint64_t* const* words,
                                           std::size_t count) {
  PQS_REQUIRE(k <= n, "sample size exceeds population");
  // Floyd indices buffered per chunk: as many whole masks as fit (the
  // estimators' 16-mask batches are one chunk for any k <= 256). A mask
  // whose k exceeds the buffer goes alone, in buffer-sized segments; the
  // draws stay in stream order either way.
  constexpr std::size_t kBuffer = 4096;
  std::uint32_t draws[kBuffer];
  const std::size_t lanes_max =
      k == 0 ? count : std::max<std::size_t>(1, kBuffer / k);
  const std::uint32_t segment_max =
      static_cast<std::uint32_t>(std::min<std::size_t>(k, kBuffer));
  Rng local = rng;
  for (std::size_t base = 0; base < count;) {
    const std::size_t lanes = std::min(lanes_max, count - base);
    std::uint64_t* const* lane_words = words + base;
    for (std::uint32_t lo = n - k; lo < n;) {
      const std::uint32_t segment = std::min(segment_max, n - lo);
      // Pass 1: lane i's indices for j in [lo, lo + segment), lane by lane
      // — exactly the order the sequential draws consume the stream in.
      std::uint32_t* out = draws;
      for (std::size_t i = 0; i < lanes; ++i) {
        for (std::uint32_t j = lo; j < lo + segment; ++j) {
          *out++ = static_cast<std::uint32_t>(
              local.below(static_cast<std::uint64_t>(j) + 1));
        }
      }
      // Pass 2: the membership step, step-major across the lanes. Each
      // lane's steps still run in order, so every mask gets the subset
      // its own sequential draw would; the select is branchless
      // (t, or j when t is already taken).
      for (std::uint32_t s = 0; s < segment; ++s) {
        const std::uint32_t j = lo + s;
        for (std::size_t i = 0; i < lanes; ++i) {
          std::uint64_t* const mask = lane_words[i];
          const std::uint32_t t = draws[i * segment + s];
          const std::uint32_t taken =
              static_cast<std::uint32_t>(mask[t >> 6] >> (t & 63)) & 1u;
          const std::uint32_t pick = t ^ ((t ^ j) & (0u - taken));
          mask[pick >> 6] |= 1ULL << (pick & 63);
        }
      }
      lo += segment;
    }
    base += lanes;
  }
  rng = local;
}

std::vector<std::uint32_t> sample_without_replacement(std::uint32_t n,
                                                      std::uint32_t k,
                                                      Rng& rng) {
  std::vector<std::uint32_t> out;
  sample_without_replacement(n, k, rng, out);
  return out;
}

void shuffle(std::vector<std::uint32_t>& values, Rng& rng) {
  for (std::size_t i = values.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.below(i));
    std::swap(values[i - 1], values[j]);
  }
}

bool sorted_intersects(const std::vector<std::uint32_t>& a,
                       const std::vector<std::uint32_t>& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia == *ib) return true;
    if (*ia < *ib) ++ia;
    else ++ib;
  }
  return false;
}

std::size_t sorted_intersection_size(const std::vector<std::uint32_t>& a,
                                     const std::vector<std::uint32_t>& b) {
  std::size_t count = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia == *ib) {
      ++count;
      ++ia;
      ++ib;
    } else if (*ia < *ib) {
      ++ia;
    } else {
      ++ib;
    }
  }
  return count;
}

}  // namespace pqs::math
