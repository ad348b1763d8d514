// The singleton quorum system: a single distinguished server.
//
// Degenerate but load-bearing in the paper's evaluation: for p >= 1/2 the
// most available *strict* quorum system is a singleton (F_p = p), and the
// strict lower-bound curve in Figures 1-3 is the minimum of the majority
// system and this one (footnote 3).
#pragma once

#include <cstdint>
#include <string>

#include "quorum/quorum_system.h"

namespace pqs::quorum {

class SingletonSystem final : public QuorumSystem {
 public:
  // A universe of n servers of which `center` serves every request.
  explicit SingletonSystem(std::uint32_t n, ServerId center = 0);

  std::string name() const override;
  std::uint32_t universe_size() const override { return n_; }
  void sample_mask(QuorumBitset& out, math::Rng& rng) const override;
  std::uint32_t min_quorum_size() const override { return 1; }
  double load() const override { return 1.0; }
  std::uint32_t fault_tolerance() const override { return 1; }
  double failure_probability(double p) const override { return p; }

 private:
  bool any_quorum_live(const QuorumBitset& alive) const override;

  std::uint32_t n_;
  ServerId center_;
};

}  // namespace pqs::quorum
