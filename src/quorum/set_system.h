// Explicit, finite set systems with exact analysis.
//
// SetSystem materializes a quorum system as a concrete list of quorums with
// an explicit access strategy (weights), exactly matching Definitions 2.1-2.7
// and 3.1. It is deliberately exhaustive rather than scalable: this is the
// machinery with which tests and small-scale studies verify the definitions —
// strict intersection, b-dissemination/b-masking overlap, strategy-induced
// load, exact fault tolerance via minimum hitting set, exact failure
// probability via inclusion-exclusion, and the probabilistic measures of
// Section 3.2 (delta-high-quality quorums and the inflation counterexample).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "quorum/quorum_system.h"
#include "quorum/types.h"

namespace pqs::quorum {

class SetSystem final : public QuorumSystem {
 public:
  // Uniform strategy over the given quorums. Quorums are sorted and each
  // must be a nonempty subset of {0..n-1}.
  SetSystem(std::uint32_t n, std::vector<Quorum> quorums);
  // Explicit strategy w; weights must be nonnegative and sum to ~1.
  SetSystem(std::uint32_t n, std::vector<Quorum> quorums,
            std::vector<double> weights);

  // Enumerates all q-subsets of {0..n-1} with the uniform strategy — the
  // construction R(n, q) of Definition 3.13 in explicit form. Feasible only
  // for tiny n (C(n, q) quorums); used to validate the analytic epsilon
  // computations by direct enumeration.
  static SetSystem all_subsets(std::uint32_t n, std::uint32_t q);

  // -- QuorumSystem interface ------------------------------------------
  std::string name() const override;
  std::uint32_t universe_size() const override { return n_; }
  void sample_mask(QuorumBitset& out, math::Rng& rng) const override;
  std::uint32_t min_quorum_size() const override;
  // Strategy-induced load L_w (Definition 2.4), exact.
  double load() const override;
  // Strict fault tolerance A(Q) (Definition 2.5): exact minimum hitting set
  // over *all* quorums, by branch and bound.
  std::uint32_t fault_tolerance() const override;
  // Exact F_p (Definition 2.6) by inclusion-exclusion over quorums.
  double failure_probability(double p) const override;

  // -- Exact structural analysis ----------------------------------------
  std::size_t quorum_count() const { return quorums_.size(); }
  const std::vector<Quorum>& quorums() const { return quorums_; }
  const std::vector<double>& weights() const { return weights_; }

  // Is this a strict quorum system (every pair intersects)? (Def. 2.2)
  bool is_strict() const;
  // Smallest pairwise intersection over all quorum pairs.
  std::uint32_t min_pairwise_intersection() const;
  // Definition 2.7 predicates.
  bool is_dissemination(std::uint32_t b) const;
  bool is_masking(std::uint32_t b) const;

  // P(Q ∩ Q' != ∅) for Q, Q' drawn independently by w (Definition 3.1);
  // the system is eps-intersecting for eps = 1 - this value.
  double intersection_probability() const;

  // Per-quorum quality: P(Q_i ∩ Q' != ∅) over Q' ~ w (Definition 3.4).
  double quorum_quality(std::size_t index) const;
  // Indices of the delta-high-quality quorums.
  std::vector<std::size_t> high_quality_indices(double delta) const;

  // Probabilistic fault tolerance A(<Q,w>) (Definition 3.7): minimum hitting
  // set over the sqrt(eps)-high-quality quorums only.
  std::uint32_t probabilistic_fault_tolerance() const;
  // Probabilistic F_p(<Q,w>) (Definition 3.8) over high-quality quorums.
  double probabilistic_failure_probability(double p) const;

  // Load induced by the weights on one server (Definition 2.4's l_w(u)).
  double server_load(ServerId u) const;

 private:
  bool any_quorum_live(const QuorumBitset& alive) const override;

  std::uint32_t hitting_set_size(const std::vector<std::size_t>& indices) const;
  double failure_probability_over(const std::vector<std::size_t>& indices,
                                  double p) const;

  std::uint32_t n_;
  std::vector<Quorum> quorums_;
  std::vector<double> weights_;
  std::vector<double> cumulative_;  // for sampling
  std::vector<QuorumBitset> masks_;  // one bitset per quorum, built once
};

}  // namespace pqs::quorum
