// Statistical conformance of the dynamic-membership stack: the stale-read
// rate of a churned InstantCluster must respect the timed-quorum epsilon
// computed in core/timed_epsilon.h — Gramoli-Raynal's lifetime model
// measured on the deployed protocol rather than on the estimator.
//
// The protocol per pair: write (uniform q-subset of the live fleet), k
// in-place replacements of uniformly random slots (fresh empty servers),
// then read (uniform q-subset of the post-churn fleet). A stale read
// requires the read quorum to miss every *surviving* write-quorum member:
// a surviving common server holds the latest record (single writer,
// strictly increasing timestamps) and answers, and select_plain returns
// the highest timestamp. That containment makes the observed stale count
// stochastically dominated by Binomial(N, timed_epsilon_events(n, q, k)),
// and a multiplicative Chernoff margin (math/chernoff.h) turns the run
// into a deterministic-seed assertion with failure probability <= 1e-9
// under the null — for three churn rates, per the conformance contract.
//
// The same schedule is the replay object: shard decompositions of the
// measurement must be bit-identical across {1, 8} worker threads, so the
// statistical result is a pure function of the seeds.
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/epsilon.h"
#include "core/random_subset_system.h"
#include "core/timed_epsilon.h"
#include "math/chernoff.h"
#include "replica/instant_cluster.h"
#include "util/worker_pool.h"

namespace pqs::replica {
namespace {

constexpr std::uint32_t kN = 64;
constexpr std::uint32_t kQ = 16;

struct StalenessRun {
  std::uint64_t pairs = 0;
  std::uint64_t stale = 0;
  std::uint64_t empty = 0;

  bool operator==(const StalenessRun& o) const {
    return pairs == o.pairs && stale == o.stale && empty == o.empty;
  }
};

// One shard of the churned measurement: `pairs` write/churn(k)/read
// triples on a dynamic cluster with every slot live (fixed fleet size, the
// occupancy model's regime). `poisson_lambda` > 0 draws k fresh per pair
// from Poisson(lambda) via exponential inter-arrivals on the churn stream
// instead of using the fixed `events_per_pair`.
StalenessRun run_shard(std::uint32_t events_per_pair, double poisson_lambda,
                       std::uint64_t pairs, std::uint64_t seed) {
  InstantCluster::Config cfg;
  cfg.quorums = std::make_shared<core::RandomSubsetSystem>(kN, kQ);
  cfg.seed = seed;
  cfg.churn_seed = seed ^ 0xc4a84e11ULL;
  cfg.dynamic_membership = true;
  InstantCluster cluster(cfg);
  StalenessRun run;
  run.pairs = pairs;
  WriteResult w;
  ReadResult r;
  std::int64_t value = 0;
  for (std::uint64_t i = 0; i < pairs; ++i) {
    cluster.write_into(w, /*variable=*/1, ++value);
    std::uint32_t k = events_per_pair;
    if (poisson_lambda > 0.0) {
      k = 0;
      double t = cluster.churn_rng().exponential(1.0 / poisson_lambda);
      while (t < 1.0) {
        ++k;
        t += cluster.churn_rng().exponential(1.0 / poisson_lambda);
      }
    }
    cluster.run_churn(k);
    cluster.read_into(r, 1);
    if (!r.selection.has_value) {
      ++run.empty;
      ++run.stale;
    } else if (r.selection.record.value != value) {
      ++run.stale;
    }
  }
  return run;
}

// The sharded measurement: `shards` independent clusters with derived
// seeds, folded. Shard work is self-contained, so the fold is a pure
// function of the seeds at any worker count.
std::vector<StalenessRun> run_shards(std::uint32_t events_per_pair,
                                     double poisson_lambda,
                                     std::uint64_t pairs_per_shard,
                                     std::uint32_t shards, unsigned threads) {
  std::vector<StalenessRun> runs(shards);
  util::WorkerPool pool(threads);
  pool.run(shards, [&](std::uint64_t s) {
    runs[s] = run_shard(events_per_pair, poisson_lambda, pairs_per_shard,
                        /*seed=*/101 + 1000003 * s);
  });
  return runs;
}

StalenessRun fold(const std::vector<StalenessRun>& runs) {
  StalenessRun total;
  for (const auto& r : runs) {
    total.pairs += r.pairs;
    total.stale += r.stale;
    total.empty += r.empty;
  }
  return total;
}

// gamma sized so that P(Binomial(N, eps) > (1+gamma) N eps) <= 1e-9 by the
// multiplicative Chernoff bound; requires gamma <= 2e-1 for the exp form.
double margin_gamma(double mu) {
  const double gamma = std::sqrt(4.0 * std::log(2e9) / mu);
  EXPECT_LE(gamma, 2.0 * std::exp(1.0) - 1.0);
  EXPECT_LE(math::chernoff_upper(mu, gamma), 1e-9);
  return gamma;
}

// --- Estimator analytics -------------------------------------------------

TEST(TimedEpsilon, ZeroChurnReducesToPaperEpsilon) {
  EXPECT_DOUBLE_EQ(core::timed_epsilon_events(kN, kQ, 0),
                   core::nonintersection_exact(kN, kQ));
  EXPECT_DOUBLE_EQ(core::estimate_timed_epsilon(kN, kQ, /*lambda=*/5.0,
                                                /*staleness=*/0.0),
                   core::nonintersection_exact(kN, kQ));
}

TEST(TimedEpsilon, MonotoneInChurnAndSaturates) {
  double prev = 0.0;
  for (const std::int64_t k : {0, 1, 2, 4, 8, 16, 32, 64, 128}) {
    const double eps = core::timed_epsilon_events(kN, kQ, k);
    EXPECT_GE(eps, prev) << "k=" << k;
    EXPECT_LE(eps, 1.0);
    prev = eps;
  }
  // Total turnover drives the miss probability toward 1: once every slot
  // has been replaced, no write survives.
  EXPECT_GT(core::timed_epsilon_events(kN, kQ, 2000), 0.9);
}

TEST(TimedEpsilon, EstimatorMonotoneInRateAndStaleness) {
  const double base = core::estimate_timed_epsilon(kN, kQ, 4.0, 1.0);
  EXPECT_GT(base, core::nonintersection_exact(kN, kQ));
  EXPECT_LT(base, core::estimate_timed_epsilon(kN, kQ, 8.0, 1.0));
  EXPECT_LT(base, core::estimate_timed_epsilon(kN, kQ, 4.0, 2.0));
  // Rate x staleness is what matters: the Poisson mean.
  EXPECT_NEAR(base, core::estimate_timed_epsilon(kN, kQ, 2.0, 2.0), 1e-12);
}

TEST(TimedEpsilon, LifetimeBracketsTheTarget) {
  const double lambda = 4.0;
  const double target = 2.0 * core::nonintersection_exact(kN, kQ);
  const double lifetime =
      core::timed_quorum_lifetime(kN, kQ, lambda, target);
  ASSERT_GT(lifetime, 0.0);
  EXPECT_LE(core::estimate_timed_epsilon(kN, kQ, lambda, lifetime), target);
  EXPECT_GT(core::estimate_timed_epsilon(kN, kQ, lambda, lifetime * 1.01),
            target);
  // An unreachable target (below the churn-free floor) has no lifetime.
  EXPECT_EQ(core::timed_quorum_lifetime(
                kN, kQ, lambda, core::nonintersection_exact(kN, kQ) / 2.0),
            0.0);
}

// --- Deployed-stack conformance ------------------------------------------

// Three churn rates (events per write/read pair), each bounded by its
// timed epsilon + Chernoff margin. Failure probability under the null is
// <= 1e-9 per rate, and the fixed seeds make every run bit-identical.
TEST(TimedEpsilon, ChurnedStackRespectsTimedEpsilonAtThreeRates) {
  constexpr std::uint32_t kShards = 8;
  constexpr std::uint64_t kPairsPerShard = 18750;  // 150k pairs total
  for (const std::uint32_t k : {2u, 8u, 32u}) {
    const double eps = core::timed_epsilon_events(kN, kQ, k);
    ASSERT_GT(eps, core::nonintersection_exact(kN, kQ));
    const double mu =
        static_cast<double>(kShards * kPairsPerShard) * eps;
    const double gamma = margin_gamma(mu);
    const StalenessRun run = fold(run_shards(
        k, /*poisson_lambda=*/0.0, kPairsPerShard, kShards,
        /*threads=*/8));
    EXPECT_LE(static_cast<double>(run.stale), (1.0 + gamma) * mu)
        << "k=" << k << ": observed " << run.stale << " stale reads over "
        << run.pairs << " pairs; eps=" << eps;
    // Churn must actually cost something at these rates, or the harness
    // is not measuring the effect.
    EXPECT_GT(run.stale, 0u) << "k=" << k;
  }
}

// The rate-based estimator against a genuinely Poisson churn schedule:
// k ~ Poisson(lambda) fresh per pair (exponential inter-arrivals on the
// churn stream), bounded by estimate_timed_epsilon(lambda, 1).
TEST(TimedEpsilon, PoissonChurnRespectsRateEstimator) {
  constexpr std::uint32_t kShards = 8;
  constexpr std::uint64_t kPairsPerShard = 12500;  // 100k pairs total
  const double lambda = 6.0;
  const double eps = core::estimate_timed_epsilon(kN, kQ, lambda, 1.0);
  const double mu = static_cast<double>(kShards * kPairsPerShard) * eps;
  const double gamma = margin_gamma(mu);
  const StalenessRun run = fold(run_shards(
      /*events_per_pair=*/0, lambda, kPairsPerShard, kShards,
      /*threads=*/8));
  EXPECT_LE(static_cast<double>(run.stale), (1.0 + gamma) * mu)
      << "observed " << run.stale << " stale reads over " << run.pairs
      << " pairs; eps=" << eps;
  EXPECT_GT(run.stale, 0u);
}

// The measurement is a replay: per-shard results bit-identical across
// {1, 8} worker threads.
TEST(TimedEpsilon, MeasurementReplayBitIdentical) {
  constexpr std::uint32_t kShards = 8;
  constexpr std::uint64_t kPairsPerShard = 2000;
  const auto reference = run_shards(8, 0.0, kPairsPerShard, kShards,
                                    /*threads=*/1);
  for (const unsigned threads : {1u, 8u}) {
    const auto runs = run_shards(8, 0.0, kPairsPerShard, kShards, threads);
    for (std::uint32_t s = 0; s < kShards; ++s) {
      ASSERT_TRUE(runs[s] == reference[s])
          << "threads=" << threads << " shard=" << s;
    }
  }
}

}  // namespace
}  // namespace pqs::replica
