// quorum::Strategy and quorum::optimize_strategy — the workload-aware
// access layer (ROADMAP item 3).
//
// Four layers are pinned down here. (1) The LP engine underneath the
// optimizer: small programs with known optima, an equality pair that
// forces phase 1, infeasible and unbounded verdicts. (2) The strategy's
// draw discipline: alias draws match the declared probabilities, consume
// exactly one rng word each, and are bit-identical across identically
// seeded generators. (3) The exact analytic measures against brute-force
// enumeration on a universe small enough to enumerate. (4) The optimizer
// and serving-tier integration: feasibility of the returned distribution,
// a strict load win over the fixed construction on a skewed-capacity
// workload, and the KvService bit-identity gate extended over the
// strategy draw counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/random_subset_system.h"
#include "math/rng.h"
#include "math/simplex.h"
#include "quorum/strategy.h"
#include "quorum/threshold.h"
#include "replica/instant_cluster.h"
#include "serve/kv_service.h"
#include "workload/open_loop.h"

namespace pqs {
namespace {

using quorum::Quorum;
using quorum::Strategy;
using quorum::WorkloadSpec;

// ---------------------------------------------------------------------
// math::solve_lp
// ---------------------------------------------------------------------

TEST(Simplex, SolvesABoundedMaximization) {
  // max x + y s.t. x <= 2, y <= 3, x + y <= 4  ->  min -(x + y), optimum -4.
  const math::LpResult r = math::solve_lp(
      {-1.0, -1.0}, {{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}}, {2.0, 3.0, 4.0});
  ASSERT_EQ(r.status, math::LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -4.0, 1e-9);
  EXPECT_NEAR(r.x[0] + r.x[1], 4.0, 1e-9);
  EXPECT_LE(r.x[0], 2.0 + 1e-9);
  EXPECT_LE(r.x[1], 3.0 + 1e-9);
}

TEST(Simplex, EqualityPairNeedsPhaseOne) {
  // min 2x + y s.t. x + y = 1 (as <= / >= pair), x, y >= 0: put all mass
  // on y. The >= row arrives with negative rhs, so phase 1 must run.
  const math::LpResult r = math::solve_lp(
      {2.0, 1.0}, {{1.0, 1.0}, {-1.0, -1.0}}, {1.0, -1.0});
  ASSERT_EQ(r.status, math::LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-9);
  EXPECT_NEAR(r.x[0], 0.0, 1e-9);
  EXPECT_NEAR(r.x[1], 1.0, 1e-9);
}

TEST(Simplex, ReportsInfeasible) {
  // x <= -1 with x >= 0 has no solution.
  const math::LpResult r = math::solve_lp({1.0}, {{1.0}}, {-1.0});
  EXPECT_EQ(r.status, math::LpStatus::kInfeasible);
}

TEST(Simplex, ReportsUnbounded) {
  // min -x with only x >= 0: decreases without bound.
  const math::LpResult r = math::solve_lp({-1.0}, {{0.0}}, {1.0});
  EXPECT_EQ(r.status, math::LpStatus::kUnbounded);
}

TEST(Simplex, RedundantEqualityRowsStayFeasible) {
  // The same equality twice: phase 1 leaves one artificial basic at zero
  // in the redundant row, which must not disturb phase 2.
  const math::LpResult r = math::solve_lp(
      {1.0, 3.0},
      {{1.0, 1.0}, {-1.0, -1.0}, {1.0, 1.0}, {-1.0, -1.0}},
      {1.0, -1.0, 1.0, -1.0});
  ASSERT_EQ(r.status, math::LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-9);
  EXPECT_NEAR(r.x[0], 1.0, 1e-9);
}

// ---------------------------------------------------------------------
// Strategy draws
// ---------------------------------------------------------------------

// A small fixed strategy over a 6-universe: three read quorums with
// lopsided probabilities, two write quorums.
std::shared_ptr<const Strategy> tiny_strategy(WorkloadSpec workload = {}) {
  auto base = std::make_shared<quorum::ThresholdSystem>(
      quorum::ThresholdSystem::majority(6 + 1));
  // Base universe is 7; keep every quorum inside it.
  std::vector<Quorum> reads = {{0, 1, 2, 3}, {2, 3, 4, 5}, {0, 2, 4, 6}};
  std::vector<double> read_probs = {0.6, 0.3, 0.1};
  std::vector<Quorum> writes = {{1, 2, 3, 4}, {3, 4, 5, 6}};
  std::vector<double> write_probs = {0.75, 0.25};
  return std::make_shared<Strategy>(std::move(base), std::move(reads),
                                    std::move(read_probs), std::move(writes),
                                    std::move(write_probs),
                                    std::move(workload));
}

TEST(Strategy, AliasDrawsMatchDeclaredProbabilities) {
  const auto strategy = tiny_strategy();
  math::Rng rng(42);
  constexpr std::uint64_t kDraws = 200000;
  std::vector<std::uint64_t> read_hits(3, 0), write_hits(2, 0);
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    ++read_hits[strategy->draw_read_index(rng)];
    ++write_hits[strategy->draw_write_index(rng)];
  }
  const double kSlack = 0.01;  // ~8 sigma at 200k draws
  EXPECT_NEAR(read_hits[0] / double(kDraws), 0.6, kSlack);
  EXPECT_NEAR(read_hits[1] / double(kDraws), 0.3, kSlack);
  EXPECT_NEAR(read_hits[2] / double(kDraws), 0.1, kSlack);
  EXPECT_NEAR(write_hits[0] / double(kDraws), 0.75, kSlack);
  EXPECT_NEAR(write_hits[1] / double(kDraws), 0.25, kSlack);
}

TEST(Strategy, DrawsConsumeExactlyOneWordAndAreDeterministic) {
  const auto strategy = tiny_strategy();
  math::Rng a(7), b(7), skip(7);
  constexpr int kDraws = 1000;
  for (int i = 0; i < kDraws; ++i) {
    EXPECT_EQ(strategy->draw_read_index(a), strategy->draw_read_index(b));
    skip.next();
  }
  // After kDraws one-word draws, the streams sit at the same position as
  // a generator that skipped kDraws raw words.
  const std::uint64_t wa = a.next();
  const std::uint64_t wb = b.next();
  const std::uint64_t ws = skip.next();
  EXPECT_EQ(wa, wb);
  EXPECT_EQ(wa, ws);
}

// ---------------------------------------------------------------------
// Exact measures vs brute force
// ---------------------------------------------------------------------

TEST(Strategy, MeasuresMatchBruteForceEnumeration) {
  WorkloadSpec workload;
  workload.read_fraction = 0.7;
  const auto strategy = tiny_strategy(workload);
  const std::uint32_t n = strategy->universe_size();
  const std::vector<Quorum> reads = {{0, 1, 2, 3}, {2, 3, 4, 5}, {0, 2, 4, 6}};
  const std::vector<double> pr = {0.6, 0.3, 0.1};
  const std::vector<Quorum> writes = {{1, 2, 3, 4}, {3, 4, 5, 6}};
  const std::vector<double> pw = {0.75, 0.25};

  // Per-server access probability and load.
  const auto loads = strategy->load_vector();
  double max_load = 0.0;
  for (std::uint32_t u = 0; u < n; ++u) {
    double expect = 0.0;
    for (std::size_t i = 0; i < reads.size(); ++i) {
      if (std::count(reads[i].begin(), reads[i].end(), u) > 0) {
        expect += 0.7 * pr[i];
      }
    }
    for (std::size_t j = 0; j < writes.size(); ++j) {
      if (std::count(writes[j].begin(), writes[j].end(), u) > 0) {
        expect += 0.3 * pw[j];
      }
    }
    EXPECT_NEAR(strategy->server_access_probability(u), expect, 1e-12);
    EXPECT_NEAR(loads[u], expect, 1e-12);
    max_load = std::max(max_load, expect);
  }
  EXPECT_NEAR(strategy->max_load(), max_load, 1e-12);
  EXPECT_NEAR(strategy->load(), max_load, 1e-12);

  // predicted_epsilon by the double sum.
  for (const double p : {0.0, 0.1, 0.3}) {
    double eps = 0.0;
    for (std::size_t i = 0; i < reads.size(); ++i) {
      for (std::size_t j = 0; j < writes.size(); ++j) {
        std::uint32_t overlap = 0;
        for (const auto u : reads[i]) {
          overlap += std::count(writes[j].begin(), writes[j].end(), u) > 0;
        }
        eps += pr[i] * pw[j] * std::pow(p, overlap);
      }
    }
    EXPECT_NEAR(strategy->predicted_epsilon(p), eps, 1e-12);
  }

  // failure_probability against enumeration of all 2^n crash patterns.
  for (const double p : {0.1, 0.35}) {
    double fail = 0.0;
    for (std::uint32_t crashed = 0; crashed < (1u << n); ++crashed) {
      std::vector<bool> alive(n);
      double weight = 1.0;
      for (std::uint32_t u = 0; u < n; ++u) {
        alive[u] = ((crashed >> u) & 1u) == 0;
        weight *= alive[u] ? (1.0 - p) : p;
      }
      if (!strategy->has_live_quorum(alive)) fail += weight;
    }
    EXPECT_NEAR(strategy->failure_probability(p), fail, 1e-12);
  }

  // fault_tolerance: largest f such that every f-subset leaves a live
  // read and write quorum, by enumeration.
  std::uint32_t brute = 0;
  for (std::uint32_t f = 1; f <= n; ++f) {
    bool all_survive = true;
    for (std::uint32_t crashed = 0; crashed < (1u << n) && all_survive;
         ++crashed) {
      if (static_cast<std::uint32_t>(__builtin_popcount(crashed)) != f) {
        continue;
      }
      std::vector<bool> alive(n);
      for (std::uint32_t u = 0; u < n; ++u) {
        alive[u] = ((crashed >> u) & 1u) == 0;
      }
      if (!strategy->has_live_quorum(alive)) all_survive = false;
    }
    if (!all_survive) break;
    brute = f;
  }
  EXPECT_EQ(strategy->fault_tolerance(), brute);

  EXPECT_EQ(strategy->min_quorum_size(), 4u);
  EXPECT_EQ(strategy->universe_size(), 7u);
}

TEST(Strategy, HasLiveQuorumNeedsBothSides) {
  const auto strategy = tiny_strategy();
  const std::uint32_t n = strategy->universe_size();
  // Only read quorum {0,1,2,3} alive: no write quorum is live.
  std::vector<bool> alive(n, false);
  for (const auto u : {0, 1, 2, 3}) alive[u] = true;
  EXPECT_FALSE(strategy->has_live_quorum(alive));
  // Add 4: write quorum {1,2,3,4} becomes live.
  alive[4] = true;
  EXPECT_TRUE(strategy->has_live_quorum(alive));
  quorum::QuorumBitset mask(n);
  for (std::uint32_t u = 0; u < n; ++u) {
    if (alive[u]) mask.set(u);
  }
  EXPECT_TRUE(strategy->has_live_quorum_mask(mask));
  mask.reset(4);
  EXPECT_FALSE(strategy->has_live_quorum_mask(mask));
}

// ---------------------------------------------------------------------
// optimize_strategy
// ---------------------------------------------------------------------

TEST(Optimizer, ReturnsAFeasibleDistributionPair) {
  auto base = std::make_shared<core::RandomSubsetSystem>(24, 9);
  WorkloadSpec workload;
  workload.read_fraction = 0.8;
  quorum::StrategyOptions options;
  options.read_candidates = 10;
  options.write_candidates = 10;
  const auto strategy = quorum::optimize_strategy(base, workload, options);
  ASSERT_NE(strategy, nullptr);
  double read_sum = 0.0, write_sum = 0.0;
  for (std::uint32_t i = 0; i < strategy->read_support_size(); ++i) {
    EXPECT_GE(strategy->read_prob(i), 0.0);
    read_sum += strategy->read_prob(i);
  }
  for (std::uint32_t j = 0; j < strategy->write_support_size(); ++j) {
    EXPECT_GE(strategy->write_prob(j), 0.0);
    write_sum += strategy->write_prob(j);
  }
  EXPECT_NEAR(read_sum, 1.0, 1e-9);
  EXPECT_NEAR(write_sum, 1.0, 1e-9);
  // The default ceiling is the uniform-distribution epsilon over the same
  // candidates: the optimizer must not be less consistent than undirected
  // sampling of its own support.
  const std::uint32_t mr = strategy->read_support_size();
  // (Support may have been pruned, so recompute the uniform epsilon over
  // what remains is not the ceiling; instead just sanity-bound epsilon by
  // the worst support pair.)
  double worst = 0.0;
  for (std::uint32_t i = 0; i < mr; ++i) {
    for (std::uint32_t j = 0; j < strategy->write_support_size(); ++j) {
      std::uint32_t overlap = 0;
      for (const auto u : strategy->read_quorum(i)) {
        overlap += std::count(strategy->write_quorum(j).begin(),
                              strategy->write_quorum(j).end(), u) > 0;
      }
      worst = std::max(worst, overlap == 0 ? 1.0 : 0.0);
    }
  }
  EXPECT_LE(strategy->predicted_epsilon(0.0), worst + 1e-9);
  // Deterministic: the same options reproduce the same strategy.
  const auto again = quorum::optimize_strategy(base, workload, options);
  ASSERT_EQ(again->read_support_size(), strategy->read_support_size());
  for (std::uint32_t i = 0; i < mr; ++i) {
    EXPECT_EQ(again->read_quorum(i), strategy->read_quorum(i));
    EXPECT_DOUBLE_EQ(again->read_prob(i), strategy->read_prob(i));
  }
}

TEST(Optimizer, BeatsTheFixedConstructionOnSkewedCapacities) {
  // 18 servers, a third of them at half capacity. The fixed R(18, 7)
  // strategy loads every server equally (7/18), so its capacity-weighted
  // max load is (7/18)/0.5; a workload-aware strategy can steer mass
  // toward the full-capacity servers.
  const std::uint32_t n = 18, q = 7;
  auto base = std::make_shared<core::RandomSubsetSystem>(n, q);
  WorkloadSpec workload;
  workload.read_fraction = 0.75;
  workload.capacities.assign(n, 1.0);
  for (std::uint32_t u = 0; u < n / 3; ++u) workload.capacities[u] = 0.5;
  quorum::StrategyOptions options;
  options.read_candidates = 12;
  options.write_candidates = 12;
  const auto strategy = quorum::optimize_strategy(base, workload, options);
  const double fixed_max = (double(q) / n) / 0.5;
  EXPECT_LT(strategy->max_load(), fixed_max);
}

// ---------------------------------------------------------------------
// Serving-tier integration
// ---------------------------------------------------------------------

std::shared_ptr<const Strategy> serving_strategy() {
  auto base = std::make_shared<core::RandomSubsetSystem>(15, 6);
  WorkloadSpec workload;
  workload.read_fraction = 0.9;
  quorum::StrategyOptions options;
  options.read_candidates = 8;
  options.write_candidates = 8;
  return quorum::optimize_strategy(base, workload, options);
}

std::vector<serve::ShardAggregate> run_strategy_service(std::uint32_t workers,
                                                       std::uint64_t ops) {
  serve::KvService::Config cfg;
  cfg.shards = 4;
  cfg.workers = workers;
  cfg.queue_capacity = 256;
  cfg.strategy = serving_strategy();
  cfg.seed = 31;
  serve::KvService service(std::move(cfg));
  workload::OpenLoopSpec spec;
  spec.keys = 64;
  spec.read_fraction = 0.9;
  workload::OpenLoopGenerator gen(spec, 5);
  workload::Operation op;
  serve::Request req;
  service.start();
  for (std::uint64_t i = 0; i < ops; ++i) {
    gen.next(op);
    req.key = op.key;
    req.value = op.value;
    req.scheduled_ns = service.now_ns();
    req.is_read = op.is_read;
    service.submit(req);
  }
  service.stop_and_drain();
  return service.aggregates();
}

TEST(StrategyServe, AggregatesBitIdenticalAcrossWorkers) {
  constexpr std::uint64_t kOps = 3000;
  const auto base = run_strategy_service(1, kOps);
  ASSERT_EQ(base.size(), 4u);
  std::uint64_t total_draws = 0;
  for (const auto& agg : base) {
    total_draws += agg.strategy_draws;
    EXPECT_EQ(agg.strategy_draws, agg.reads + agg.writes);
  }
  EXPECT_EQ(total_draws, kOps);
  const auto other = run_strategy_service(8, kOps);
  ASSERT_EQ(other.size(), base.size());
  for (std::size_t s = 0; s < base.size(); ++s) {
    EXPECT_EQ(base[s], other[s]) << "shard " << s;
  }
  // The checksum is a nontrivial fold, not a constant.
  bool nonzero = false;
  for (const auto& agg : base) nonzero |= agg.strategy_checksum != 0;
  EXPECT_TRUE(nonzero);
}

TEST(StrategyServe, StrategyRejectsDynamicMembership) {
  serve::KvService::Config cfg;
  cfg.strategy = serving_strategy();
  cfg.dynamic_membership = true;
  EXPECT_THROW(serve::KvService service(std::move(cfg)), std::exception);
}

}  // namespace
}  // namespace pqs
