// Workload-aware quorum strategies (ROADMAP item 3, the quoracle idea).
//
// The paper fixes one construction and one access strategy per deployment.
// "Read-Write Quorum Systems Made Practical" (Whittaker, Charapko, Aguilera,
// Szekeres, Ports; PAPERS.md) observes that for a *given workload* — read
// fraction fr, heterogeneous per-server capacities, crash probability p —
// a discrete distribution over read quorums and write quorums of the same
// underlying system beats any single fixed strategy on load: the optimizer
// below is their linear-programming formulation specialized to this
// library's closed-form measures.
//
// Strategy is a full QuorumSystem, so everything that consumes a
// construction (InstantCluster, KvService, the estimators) can consume a
// strategy instead. Its draws obey the repo-wide determinism contract:
//
//   * one rng word per draw, always — the index comes from a Walker/Vose
//     alias table evaluated in pure 64-bit integer arithmetic
//     (multiply-shift bucket + fixed-point threshold), so draws are
//     bit-identical across threads and ISAs, and never
//     reject/loop like Lemire sampling would;
//   * zero allocation — the support's quorums are prebuilt as both sorted
//     vectors and QuorumBitsets at construction, and sample_mask() just
//     copies the selected mask into the caller's scratch (write-through
//     into MaskBatch views included);
//   * the generic sample_mask face (and the sample/sample_into adapters
//     over it) draws from the READ distribution (reads are what the
//     estimator hot loops measure); protocol code that distinguishes
//     reads from writes uses draw_read_index/draw_write_index plus the
//     indexed accessors, which is how InstantCluster wires the two
//     distributions in.
//
// The analytic face is exact over the explicit support: per-server access
// probabilities and capacity-weighted loads in closed form,
// predicted_epsilon(p) = sum_ij pr_i pw_j p^|R_i ∩ W_j| (at p = 0 this is
// the pairwise nonintersection probability — the Definition 3.1 eps of
// the strategy), failure_probability by inclusion-exclusion over the
// support, and fault_tolerance as the exact minimum hitting set.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "math/rng.h"
#include "quorum/bitset.h"
#include "quorum/quorum_system.h"
#include "quorum/types.h"

namespace pqs::quorum {

// The workload a strategy is optimized for (the quoracle inputs).
struct WorkloadSpec {
  // Fraction of operations that are reads, in [0, 1].
  double read_fraction = 0.5;
  // Independent per-server crash probability p, in [0, 1). Feeds the
  // epsilon matrix z_ij = p^|R_i ∩ W_j| the optimizer's ceiling
  // constraint is written over (p = 0: strict overlap only).
  double failure_prob = 0.0;
  // Relative per-server capacities; empty means uniform 1.0. A server's
  // reported load is its access probability divided by its capacity, so a
  // half-capacity server saturates at half the access share.
  std::vector<double> capacities;
};

class Strategy final : public QuorumSystem {
 public:
  // A discrete distribution over explicit read and write supports of
  // `base`'s universe. Probabilities must be nonnegative and sum to ~1
  // per side (they are renormalized exactly); quorums are copied, sorted,
  // and validated against the universe. The workload is carried along for
  // load() reporting and introspection.
  Strategy(std::shared_ptr<const QuorumSystem> base,
           std::vector<Quorum> read_support, std::vector<double> read_probs,
           std::vector<Quorum> write_support, std::vector<double> write_probs,
           WorkloadSpec workload = {});

  // ---- the two-distribution face (what the protocols use) -------------
  std::uint32_t read_support_size() const {
    return static_cast<std::uint32_t>(read_quorums_.size());
  }
  std::uint32_t write_support_size() const {
    return static_cast<std::uint32_t>(write_quorums_.size());
  }
  const Quorum& read_quorum(std::uint32_t i) const { return read_quorums_[i]; }
  const Quorum& write_quorum(std::uint32_t i) const {
    return write_quorums_[i];
  }
  const QuorumBitset& read_mask(std::uint32_t i) const {
    return read_masks_[i];
  }
  const QuorumBitset& write_mask(std::uint32_t i) const {
    return write_masks_[i];
  }
  double read_prob(std::uint32_t i) const { return read_probs_[i]; }
  double write_prob(std::uint32_t i) const { return write_probs_[i]; }
  const WorkloadSpec& workload() const { return workload_; }
  const QuorumSystem& base() const { return *base_; }

  // Draws a support index from the read / write distribution. Exactly one
  // rng word per call, integer-only — the strategy draw stream is as
  // disciplined as every construction's.
  std::uint32_t draw_read_index(math::Rng& rng) const {
    return draw(read_alias_, rng);
  }
  std::uint32_t draw_write_index(math::Rng& rng) const {
    return draw(write_alias_, rng);
  }

  // ---- exact analytic measures over the support -----------------------
  // P(server u is contacted by one operation) at the workload's read
  // fraction: fr * sum_i pr_i [u in R_i] + (1 - fr) * sum_j pw_j [u in W_j].
  double server_access_probability(ServerId u) const;
  // Capacity-weighted per-server loads (access probability / capacity).
  std::vector<double> load_vector() const;
  double max_load() const;
  // sum_ij pr_i pw_j p^|R_i ∩ W_j|: the probability that a read quorum
  // and an independently drawn write quorum share no *live* server when
  // servers crash iid with probability p. At p = 0 this is the pairwise
  // nonintersection probability — the strategy's Definition 3.1 epsilon.
  double predicted_epsilon(double p) const;

  // ---- QuorumSystem (the generic face draws the READ distribution) ----
  std::string name() const override;
  std::uint32_t universe_size() const override { return n_; }
  void sample_mask(QuorumBitset& out, math::Rng& rng) const override;
  std::uint32_t min_quorum_size() const override;
  // Definition 2.4 load of the shipped strategy at its workload mix,
  // capacity-weighted (== max_load()).
  double load() const override;
  // Exact Definition 2.5 over the support: the smaller of the two sides'
  // minimum hitting sets, minus one (the adversary wipes out whichever
  // side is cheaper to hit; crashing fewer servers than either hitting
  // set leaves a live quorum on both sides).
  std::uint32_t fault_tolerance() const override;
  // P(no fully-live read quorum OR no fully-live write quorum) under iid
  // crashes, exact by inclusion-exclusion over the (deduplicated)
  // support families. Exponential in the support size by nature; the
  // constructor caps the combined support (kMaxExactSupport) to keep it
  // tractable.
  double failure_probability(double p) const override;

  // Combined read+write support ceiling for the exact analytic forms.
  static constexpr std::uint32_t kMaxExactSupport = 26;

 private:
  bool any_quorum_live(const QuorumBitset& alive) const override;

  struct AliasSlot {
    std::uint64_t threshold = 0;  // accept idx while frac < threshold
    std::uint32_t alias = 0;
  };
  static std::vector<AliasSlot> build_alias(const std::vector<double>& probs);
  static std::uint32_t draw(const std::vector<AliasSlot>& table,
                            math::Rng& rng) {
    // One word w maps to (bucket, frac) = (w * m / 2^64, w * m mod 2^64):
    // the bucket is the multiply-shift range reduction, the remainder is a
    // uniform-enough fixed-point fraction against the bucket's threshold.
    const std::uint64_t w = rng.next();
    const unsigned __int128 wide =
        static_cast<unsigned __int128>(w) * table.size();
    const auto idx = static_cast<std::uint32_t>(wide >> 64);
    const auto frac = static_cast<std::uint64_t>(wide);
    const AliasSlot& slot = table[idx];
    return frac < slot.threshold ? idx : slot.alias;
  }

  std::shared_ptr<const QuorumSystem> base_;
  WorkloadSpec workload_;
  std::uint32_t n_ = 0;
  std::vector<Quorum> read_quorums_;
  std::vector<Quorum> write_quorums_;
  std::vector<QuorumBitset> read_masks_;
  std::vector<QuorumBitset> write_masks_;
  std::vector<double> read_probs_;
  std::vector<double> write_probs_;
  std::vector<AliasSlot> read_alias_;
  std::vector<AliasSlot> write_alias_;
  // |R_i ∩ W_j| for predicted_epsilon, row-major [i * mw + j].
  std::vector<std::uint32_t> overlap_;
};

// Optimizer knobs. Candidate quorums are drawn from the base system's own
// access strategy on a dedicated rng (seeded here — never a protocol
// stream), deduplicated; the LP then reweights them.
struct StrategyOptions {
  std::uint32_t read_candidates = 12;
  std::uint32_t write_candidates = 12;
  std::uint64_t seed = 0x57a7e61eULL;
  // Ceiling on predicted_epsilon(workload.failure_prob). Negative (the
  // default) derives it from the sampled support: the epsilon of the
  // *uniform* distribution over the candidates — i.e. the optimizer may
  // shift load around but may not be less consistent than undirected
  // sampling of the same quorums. Whatever the source, the ceiling is
  // clamped up to the support's minimum achievable epsilon so the program
  // is always feasible.
  double epsilon_ceiling = -1.0;
  // Alternating-LP rounds (each round solves the read side then the write
  // side; the bilinear eps constraint makes the joint problem non-convex,
  // and alternation keeps every iterate feasible because the constraint
  // is symmetric in the two sides).
  std::uint32_t rounds = 24;
};

// Searches for the distribution pair minimizing the maximum
// capacity-weighted per-server load subject to the epsilon ceiling, by
// alternating two exact LPs (math/simplex.h) over the closed-form loads:
// with pw fixed, the per-server load is linear in pr (and vice versa), so
// each half-step is  min t  s.t.  load_u(pr; pw) <= t for all u,
// sum_i pr_i e_i(pw) <= eps_max,  sum pr = 1,  pr >= 0.  Every half-step
// starts from a feasible incumbent and can only lower t, so the
// alternation converges monotonically.
std::shared_ptr<const Strategy> optimize_strategy(
    std::shared_ptr<const QuorumSystem> base, const WorkloadSpec& workload,
    const StrategyOptions& options = {});

}  // namespace pqs::quorum
