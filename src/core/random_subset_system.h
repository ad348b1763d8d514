// R(n, q) and R_k(n, q): the paper's probabilistic quorum constructions.
//
// Definition 3.13: quorums are all subsets of size q of an n-universe and
// the access strategy picks one uniformly at random. The same set system
// doubles as:
//   * an eps-intersecting quorum system (Theorem 3.16),
//   * a (b, eps)-dissemination quorum system (Theorems 4.4 / 4.6),
//   * with a read threshold k, the (b, eps)-masking system R_k(n, q)
//     (Definition 5.6, Theorem 5.10).
//
// The construction is symmetric and its strategy uniform, so every quorum is
// high quality (Section 3.4, "Quality Measures"); the probabilistic fault
// tolerance is n - q + 1 and the failure probability is the exact binomial
// tail P(#crashed > n - q).
#pragma once

#include <cstdint>
#include <string>

#include "quorum/quorum_system.h"

namespace pqs::core {

// How the system is being used; affects which epsilon() is reported and how
// read results must be interpreted by the protocols.
enum class Regime {
  kIntersecting,   // benign failures, Section 3
  kDissemination,  // Byzantine + self-verifying data, Section 4
  kMasking,        // Byzantine + arbitrary data, Section 5
};

const char* regime_name(Regime regime);

class RandomSubsetSystem final : public quorum::QuorumSystem {
 public:
  // Plain eps-intersecting system R(n, q).
  RandomSubsetSystem(std::uint32_t n, std::uint32_t q);

  // Factories solving for the smallest q meeting `target_epsilon`
  // (the Section 6 procedure). Throw std::invalid_argument when no quorum
  // size satisfies the target under the availability constraint.
  static RandomSubsetSystem intersecting(std::uint32_t n,
                                         double target_epsilon);
  static RandomSubsetSystem dissemination(std::uint32_t n, std::uint32_t b,
                                          double target_epsilon);
  // Also installs the read threshold k = ceil(q^2 / 2n).
  static RandomSubsetSystem masking(std::uint32_t n, std::uint32_t b,
                                    double target_epsilon);

  // Explicit-parameter constructors for studies that sweep q directly.
  static RandomSubsetSystem with_byzantine(std::uint32_t n, std::uint32_t q,
                                           std::uint32_t b, Regime regime);

  // -- QuorumSystem interface ------------------------------------------
  std::string name() const override;
  std::uint32_t universe_size() const override { return n_; }
  void sample_mask(quorum::QuorumBitset& out, math::Rng& rng) const override;
  void sample_masks(quorum::QuorumBitset* out, std::size_t count,
                    math::Rng& rng) const override;
  std::uint32_t min_quorum_size() const override { return q_; }
  double load() const override;
  std::uint32_t fault_tolerance() const override { return n_ - q_ + 1; }
  double failure_probability(double p) const override;

  // -- Probabilistic-quorum specifics ------------------------------------
  Regime regime() const { return regime_; }
  std::uint32_t quorum_size() const { return q_; }
  // l = q / sqrt(n), the paper's construction parameter.
  double ell() const;
  // Byzantine resilience the system was configured for (0 in the benign
  // regime).
  std::uint32_t byzantine_threshold() const { return b_; }
  // Masking read threshold k (1 in other regimes, unused).
  std::uint32_t read_threshold() const { return k_; }

  // Exact epsilon for the configured regime (Definitions 3.1 / 4.1 / 5.1).
  double epsilon() const;
  // The matching closed-form bound from the paper (Theorems 3.16, 4.4/4.6,
  // 5.10); always >= epsilon().
  double epsilon_bound() const;

 private:
  bool any_quorum_live(const quorum::QuorumBitset& alive) const override;

  RandomSubsetSystem(std::uint32_t n, std::uint32_t q, std::uint32_t b,
                     std::uint32_t k, Regime regime);

  std::uint32_t n_;
  std::uint32_t q_;
  std::uint32_t b_;
  std::uint32_t k_;
  Regime regime_;
};

}  // namespace pqs::core
