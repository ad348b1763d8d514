// Threshold (voting) quorum systems.
//
// The classic strict construction: quorums are all subsets of size q with
// 2q > n, accessed uniformly at random. Includes the Byzantine variants of
// Malkhi & Reiter [MR98a] used as baselines throughout Section 6:
//   majority:            q = ceil((n+1)/2)      (pairwise intersection >= 1)
//   b-dissemination:     q = ceil((n+b+1)/2)    (intersection >= b+1)
//   b-masking:           q = ceil((n+2b+1)/2)   (intersection >= 2b+1)
#pragma once

#include <cstdint>
#include <string>

#include "quorum/quorum_system.h"

namespace pqs::quorum {

// Draws `count` uniform q-subsets of {0..n-1} into out[0..count), each
// resized to n, through math::sample_without_replacement_bits_batch: the
// sample_masks body of both constructions whose quorums are the uniform
// q-subsets (ThresholdSystem and core::RandomSubsetSystem). Consumes
// exactly the rng draws of `count` sample_mask calls; allocates nothing
// once the masks have their size.
void sample_uniform_masks(std::uint32_t n, std::uint32_t q, QuorumBitset* out,
                          std::size_t count, math::Rng& rng);

class ThresholdSystem final : public QuorumSystem {
 public:
  // Quorums are all q-subsets of an n-universe. Requires 1 <= q <= n and
  // 2q > n (so that the system is a strict quorum system).
  ThresholdSystem(std::uint32_t n, std::uint32_t q);

  // Factories for the standard instantiations. Each validates the
  // resilience precondition from Table 1 (b <= (n-1)/3 for dissemination,
  // b <= (n-1)/4 for masking).
  static ThresholdSystem majority(std::uint32_t n);
  static ThresholdSystem dissemination(std::uint32_t n, std::uint32_t b);
  static ThresholdSystem masking(std::uint32_t n, std::uint32_t b);

  std::string name() const override;
  std::uint32_t universe_size() const override { return n_; }
  void sample_mask(QuorumBitset& out, math::Rng& rng) const override;
  void sample_masks(QuorumBitset* out, std::size_t count,
                    math::Rng& rng) const override;
  std::uint32_t min_quorum_size() const override { return q_; }
  double load() const override;
  std::uint32_t fault_tolerance() const override { return n_ - q_ + 1; }
  double failure_probability(double p) const override;

  // Guaranteed |Q ∩ Q'| >= 2q - n for any two quorums.
  std::uint32_t min_pairwise_intersection() const { return 2 * q_ - n_; }

 private:
  bool any_quorum_live(const QuorumBitset& alive) const override;

  std::uint32_t n_;
  std::uint32_t q_;
};

}  // namespace pqs::quorum
