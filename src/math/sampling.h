// Uniform sampling of server subsets.
//
// The access strategy of the paper's construction R(n, q) (Definition 3.13)
// picks a quorum uniformly at random among all q-subsets of the universe.
// sample_without_replacement implements that strategy; it is the hot path of
// every Monte-Carlo verifier and of quorum selection in the protocols.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "math/rng.h"

namespace pqs::math {

// Uniformly samples k distinct values from {0, 1, ..., n-1} using Floyd's
// algorithm (O(k) expected work, no O(n) allocation). The result is sorted.
std::vector<std::uint32_t> sample_without_replacement(std::uint32_t n,
                                                      std::uint32_t k,
                                                      Rng& rng);

// As above but writes into `out` (cleared first) to avoid reallocation in
// tight Monte-Carlo loops.
void sample_without_replacement(std::uint32_t n, std::uint32_t k, Rng& rng,
                                std::vector<std::uint32_t>& out);

// As above but sets the sampled ids as bits in `words` (ceil(n/64) words,
// all zero on entry; bit u of words[u/64] marks server u). Floyd's
// membership test IS the output mask here, so the draw does no sorting and
// no per-member stores beyond one OR each — the backbone of
// QuorumSystem::sample_mask for the size-based constructions. Consumes
// exactly the rng draws of the vector overloads and marks the same subset.
void sample_without_replacement_bits(std::uint32_t n, std::uint32_t k,
                                     Rng& rng, std::uint64_t* words);

// `count` successive draws of the above, mask i into words[i] (ceil(n/64)
// zeroed words each): the masks and the rng's end state are exactly those
// of `count` calls of sample_without_replacement_bits in index order. The
// work runs in two passes per chunk of masks: pass 1 draws every mask's k
// Floyd indices, in stream order, into a fixed stack buffer; pass 2 runs
// Floyd's membership step for all masks of the chunk interleaved, so their
// dependency chains (each step's test reads the word the previous step
// wrote) overlap instead of running back to back. No heap allocation.
void sample_without_replacement_bits_batch(std::uint32_t n, std::uint32_t k,
                                           Rng& rng,
                                           std::uint64_t* const* words,
                                           std::size_t count);

// Fisher-Yates shuffle of the whole vector.
void shuffle(std::vector<std::uint32_t>& values, Rng& rng);

// Returns true iff sorted ranges a and b share at least one element.
bool sorted_intersects(const std::vector<std::uint32_t>& a,
                       const std::vector<std::uint32_t>& b);

// Size of the intersection of two sorted ranges.
std::size_t sorted_intersection_size(const std::vector<std::uint32_t>& a,
                                     const std::vector<std::uint32_t>& b);

}  // namespace pqs::math
