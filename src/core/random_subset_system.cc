#include "core/random_subset_system.h"

#include <cmath>

#include "core/epsilon.h"
#include "math/sampling.h"
#include "quorum/measures.h"
#include "quorum/threshold.h"
#include "util/require.h"

namespace pqs::core {

const char* regime_name(Regime regime) {
  switch (regime) {
    case Regime::kIntersecting: return "intersecting";
    case Regime::kDissemination: return "dissemination";
    case Regime::kMasking: return "masking";
  }
  return "?";
}

RandomSubsetSystem::RandomSubsetSystem(std::uint32_t n, std::uint32_t q)
    : RandomSubsetSystem(n, q, 0, 1, Regime::kIntersecting) {}

RandomSubsetSystem::RandomSubsetSystem(std::uint32_t n, std::uint32_t q,
                                       std::uint32_t b, std::uint32_t k,
                                       Regime regime)
    : n_(n), q_(q), b_(b), k_(k), regime_(regime) {
  PQS_REQUIRE(n >= 1, "universe size");
  PQS_REQUIRE(q >= 1 && q <= n, "quorum size");
  PQS_REQUIRE(b < n, "byzantine threshold");
  // Definitions 4.1 and 5.1 require A(<Q,w>) > b.
  PQS_REQUIRE(regime == Regime::kIntersecting || fault_tolerance() > b,
              "availability must exceed the Byzantine threshold");
  PQS_REQUIRE(k >= 1, "read threshold");
}

RandomSubsetSystem RandomSubsetSystem::intersecting(std::uint32_t n,
                                                    double target_epsilon) {
  const auto q = min_q_intersecting(n, target_epsilon);
  PQS_REQUIRE(q.has_value(), "no quorum size meets the epsilon target");
  return RandomSubsetSystem(n, static_cast<std::uint32_t>(*q));
}

RandomSubsetSystem RandomSubsetSystem::dissemination(std::uint32_t n,
                                                     std::uint32_t b,
                                                     double target_epsilon) {
  const auto q = min_q_dissemination(n, b, target_epsilon);
  PQS_REQUIRE(q.has_value(), "no quorum size meets the epsilon target");
  return RandomSubsetSystem(n, static_cast<std::uint32_t>(*q), b, 1,
                            Regime::kDissemination);
}

RandomSubsetSystem RandomSubsetSystem::masking(std::uint32_t n,
                                               std::uint32_t b,
                                               double target_epsilon) {
  const auto q = min_q_masking(n, b, target_epsilon);
  PQS_REQUIRE(q.has_value(), "no quorum size meets the epsilon target");
  const auto k = masking_threshold(n, *q);
  return RandomSubsetSystem(n, static_cast<std::uint32_t>(*q), b,
                            static_cast<std::uint32_t>(k), Regime::kMasking);
}

RandomSubsetSystem RandomSubsetSystem::with_byzantine(std::uint32_t n,
                                                      std::uint32_t q,
                                                      std::uint32_t b,
                                                      Regime regime) {
  const std::uint32_t k =
      regime == Regime::kMasking
          ? static_cast<std::uint32_t>(masking_threshold(n, q))
          : 1u;
  return RandomSubsetSystem(n, q, b, k, regime);
}

std::string RandomSubsetSystem::name() const {
  std::string out = std::string("R(n=") + std::to_string(n_) +
                    ",q=" + std::to_string(q_);
  if (regime_ != Regime::kIntersecting) {
    out += std::string(",b=") + std::to_string(b_);
  }
  if (regime_ == Regime::kMasking) {
    out += std::string(",k=") + std::to_string(k_);
  }
  out += std::string(")[") + regime_name(regime_) + "]";
  return out;
}

quorum::Quorum RandomSubsetSystem::sample(math::Rng& rng) const {
  quorum::Quorum q;
  sample_into(q, rng);
  return q;
}

void RandomSubsetSystem::sample_into(quorum::Quorum& out,
                                     math::Rng& rng) const {
  math::sample_without_replacement(n_, q_, rng, out);
}

void RandomSubsetSystem::sample_mask(quorum::QuorumBitset& out,
                                     math::Rng& rng) const {
  out.resize(n_);
  math::sample_without_replacement_bits(n_, q_, rng, out.word_data());
}

void RandomSubsetSystem::sample_masks(quorum::QuorumBitset* out,
                                      std::size_t count,
                                      math::Rng& rng) const {
  quorum::sample_uniform_masks(n_, q_, out, count, rng);
}

double RandomSubsetSystem::load() const {
  // Every server appears in C(n-1, q-1) of the C(n, q) quorums, so the
  // uniform strategy induces load q/n on each (Section 3.4).
  return static_cast<double>(q_) / static_cast<double>(n_);
}

double RandomSubsetSystem::failure_probability(double p) const {
  // All quorums are high quality by symmetry; some quorum is fully alive
  // iff at least q servers survive.
  return quorum::size_based_failure_probability(n_, q_, p);
}

bool RandomSubsetSystem::has_live_quorum(const std::vector<bool>& alive) const {
  std::uint32_t count = 0;
  for (bool a : alive) count += a ? 1u : 0u;
  return count >= q_;
}

bool RandomSubsetSystem::has_live_quorum_mask(
    const quorum::QuorumBitset& alive) const {
  return alive.count() >= q_;
}

double RandomSubsetSystem::ell() const {
  return static_cast<double>(q_) / std::sqrt(static_cast<double>(n_));
}

double RandomSubsetSystem::epsilon() const {
  switch (regime_) {
    case Regime::kIntersecting:
      return nonintersection_exact(n_, q_);
    case Regime::kDissemination:
      return dissemination_epsilon_exact(n_, q_, b_);
    case Regime::kMasking:
      return masking_epsilon_exact(n_, q_, b_, k_);
  }
  return 1.0;
}

double RandomSubsetSystem::epsilon_bound() const {
  switch (regime_) {
    case Regime::kIntersecting:
      return nonintersection_bound(n_, q_);
    case Regime::kDissemination: {
      const double alpha =
          static_cast<double>(b_) / static_cast<double>(n_);
      if (alpha <= 1.0 / 3.0) return dissemination_bound_third(n_, q_);
      return dissemination_bound_alpha(n_, q_, alpha);
    }
    case Regime::kMasking:
      return masking_bound(n_, q_, b_);
  }
  return 1.0;
}

}  // namespace pqs::core
