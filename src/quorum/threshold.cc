#include "quorum/threshold.h"

#include <algorithm>

#include "math/sampling.h"
#include "quorum/measures.h"
#include "util/require.h"

namespace pqs::quorum {

void sample_uniform_masks(std::uint32_t n, std::uint32_t q, QuorumBitset* out,
                          std::size_t count, math::Rng& rng) {
  // Word pointers gathered a chunk at a time, so any count stays on the
  // stack.
  constexpr std::size_t kChunk = 64;
  std::uint64_t* words[kChunk];
  for (std::size_t base = 0; base < count; base += kChunk) {
    const std::size_t chunk = std::min(kChunk, count - base);
    for (std::size_t i = 0; i < chunk; ++i) {
      out[base + i].resize(n);
      words[i] = out[base + i].word_data();
    }
    math::sample_without_replacement_bits_batch(n, q, rng, words, chunk);
  }
}

ThresholdSystem::ThresholdSystem(std::uint32_t n, std::uint32_t q)
    : n_(n), q_(q) {
  PQS_REQUIRE(n >= 1, "threshold universe size");
  PQS_REQUIRE(q >= 1 && q <= n, "threshold quorum size");
  PQS_REQUIRE(2 * q > n, "threshold system requires 2q > n for intersection");
}

ThresholdSystem ThresholdSystem::majority(std::uint32_t n) {
  return ThresholdSystem(n, (n + 2) / 2);  // ceil((n+1)/2)
}

ThresholdSystem ThresholdSystem::dissemination(std::uint32_t n,
                                               std::uint32_t b) {
  PQS_REQUIRE(3 * b <= n - 1, "strict dissemination requires b <= (n-1)/3");
  return ThresholdSystem(n, (n + b + 2) / 2);  // ceil((n+b+1)/2)
}

ThresholdSystem ThresholdSystem::masking(std::uint32_t n, std::uint32_t b) {
  PQS_REQUIRE(4 * b <= n - 1, "strict masking requires b <= (n-1)/4");
  return ThresholdSystem(n, (n + 2 * b + 2) / 2);  // ceil((n+2b+1)/2)
}

std::string ThresholdSystem::name() const {
  return "threshold(n=" + std::to_string(n_) + ",q=" + std::to_string(q_) +
         ")";
}

Quorum ThresholdSystem::sample(math::Rng& rng) const {
  Quorum q;
  sample_into(q, rng);
  return q;
}

void ThresholdSystem::sample_into(Quorum& out, math::Rng& rng) const {
  math::sample_without_replacement(n_, q_, rng, out);
}

void ThresholdSystem::sample_mask(QuorumBitset& out, math::Rng& rng) const {
  out.resize(n_);
  math::sample_without_replacement_bits(n_, q_, rng, out.word_data());
}

void ThresholdSystem::sample_masks(QuorumBitset* out, std::size_t count,
                                   math::Rng& rng) const {
  sample_uniform_masks(n_, q_, out, count, rng);
}

double ThresholdSystem::load() const {
  // Uniform strategy over all q-subsets: every server carries load q/n,
  // which attains the Naor-Wool optimum for this set system.
  return static_cast<double>(q_) / static_cast<double>(n_);
}

double ThresholdSystem::failure_probability(double p) const {
  return size_based_failure_probability(n_, q_, p);
}

bool ThresholdSystem::has_live_quorum(const std::vector<bool>& alive) const {
  std::uint32_t count = 0;
  for (bool a : alive) count += a ? 1u : 0u;
  return count >= q_;
}

bool ThresholdSystem::has_live_quorum_mask(const QuorumBitset& alive) const {
  return alive.count() >= q_;
}

}  // namespace pqs::quorum
