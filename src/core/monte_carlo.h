// Monte-Carlo verifiers: statistical cross-checks of every exact analysis.
//
// The library computes epsilon, load, and failure probability analytically;
// these estimators re-measure each quantity by direct simulation of the
// access strategy so tests can confirm the two agree, and so benches can
// demonstrate behaviour (e.g. of non-uniform strategies, Section 3.1's
// remark) that has no closed form.
//
// All estimators run on core::Estimator: trials are sharded over RNG
// substreams and executed on a worker pool, with results bit-identical for
// any thread count (see estimator.h). Each estimator takes an optional
// engine argument; the default is the process-wide shared engine at
// hardware concurrency. Inner loops draw via QuorumSystem::sample_mask
// into per-shard QuorumBitset scratch — bits are set directly, with no
// sorted-vector round trip — and compare quorums with word-parallel
// bitset operations; alive masks for the failure-probability estimator
// come from math::BernoulliBlockSampler, 64 Bernoulli lanes per digit
// word. No per-draw allocation anywhere.
//
// Determinism contract: for a fixed (seed, samples, shard count) every
// estimator returns bit-identical results at any thread count. The drawn
// trial sequence itself is a property of the current draw-path generation
// (mask draws + batched Bernoulli); it matched the PR-1 vector paths
// draw-for-draw for quorum sampling, but alive masks consume the stream
// differently than the old per-server loop, so failure-probability
// estimates are statistically equivalent, not bit-equal, to PR 1.
#pragma once

#include <cstdint>
#include <vector>

#include "core/estimator.h"
#include "math/rng.h"
#include "math/stats.h"
#include "quorum/quorum_system.h"
#include "stats/load_profile.h"

namespace pqs::core {

// Frequency of Q ∩ Q' = ∅ over `samples` independently drawn quorum pairs.
math::Proportion estimate_nonintersection(
    const quorum::QuorumSystem& system, std::uint64_t samples, math::Rng& rng,
    Estimator& engine = Estimator::shared());

// Frequency of Q ∩ Q' ⊆ B where B = {0..b-1} (WLOG for symmetric systems).
math::Proportion estimate_dissemination_epsilon(
    const quorum::QuorumSystem& system, std::uint32_t b, std::uint64_t samples,
    math::Rng& rng, Estimator& engine = Estimator::shared());

// Frequency of |Q ∩ B| >= k or |Q ∩ Q' \ B| < k, B = {0..b-1}
// (the masking eps of Definition 5.1).
math::Proportion estimate_masking_epsilon(
    const quorum::QuorumSystem& system, std::uint32_t b, std::uint32_t k,
    std::uint64_t samples, math::Rng& rng,
    Estimator& engine = Estimator::shared());

// Frequency of |Q ∩ B| >= k over single quorum draws, B = {0..b-1} —
// the fabrication-acceptance event of Lemma 5.7: a forged record wins a
// masking read only if at least k colluders land in the read quorum.
// Oracle: core::fabrication_epsilon_exact (hypergeometric upper tail).
// Unlike the Definition 5.1 pair estimators this draws ONE mask per
// trial; mask chunks are judged by the strided batch_popcount_prefix
// kernel, bit-identical at any thread count.
math::Proportion estimate_fabrication_epsilon(
    const quorum::QuorumSystem& system, std::uint32_t b, std::uint32_t k,
    std::uint64_t samples, math::Rng& rng,
    Estimator& engine = Estimator::shared());

// Per-server access-frequency profile over `samples` draws: hits[u]
// estimates l_w(u) * samples, max_load() estimates the induced load L_w,
// and the profile carries the shape measures (mean, imbalance, top-k hot
// servers) the scalar load discards. This is the one load-estimation entry
// point; draws run in sample_masks chunks tallied by the strided
// column-accumulate kernel (simd::Kernels::batch_column_accumulate), with
// hit counts bit-identical to a per-draw set-bit walk at any thread count.
stats::LoadProfile estimate_load_profile(
    const quorum::QuorumSystem& system, std::uint64_t samples, math::Rng& rng,
    Estimator& engine = Estimator::shared());

// Thin wrappers over estimate_load_profile, kept so existing callers (and
// the examples) don't churn: the loads vector is profile.loads(), the
// scalar load is profile.max_load(). Same draws, same results.
std::vector<double> estimate_server_loads(
    const quorum::QuorumSystem& system, std::uint64_t samples, math::Rng& rng,
    Estimator& engine = Estimator::shared());
double estimate_load(const quorum::QuorumSystem& system,
                     std::uint64_t samples, math::Rng& rng,
                     Estimator& engine = Estimator::shared());

// Frequency of "no live quorum" when every server crashes independently
// with probability p. Each trial's alive mask is drawn as batched
// Bernoulli blocks and checked word-parallel by has_live_quorum_mask.
math::Proportion estimate_failure_probability(
    const quorum::QuorumSystem& system, double p, std::uint64_t samples,
    math::Rng& rng, Estimator& engine = Estimator::shared());

// The Section 3.1 remark made measurable: a *non-uniform* strategy over the
// same set system {q-subsets of n} that draws each quorum entirely from one
// of two disjoint halves of the universe (each half with probability 1/2).
// Its nonintersection probability is ~1/2 regardless of q — the advertised
// eps of R(n, q) holds only for the uniform strategy.
math::Proportion estimate_split_strategy_nonintersection(
    std::uint32_t n, std::uint32_t q, std::uint64_t samples, math::Rng& rng,
    Estimator& engine = Estimator::shared());

}  // namespace pqs::core
