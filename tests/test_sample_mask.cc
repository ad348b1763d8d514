// The word-parallel liveness checks must agree with straight vector<bool>
// loops over each construction's definition on every alive mask —
// including inside the batched-Bernoulli failure-probability estimator,
// bit for bit, at any thread count — and both liveness entry points must
// refuse an alive set that does not span the universe.
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/estimator.h"
#include "core/monte_carlo.h"
#include "core/random_subset_system.h"
#include "math/bernoulli.h"
#include "math/rng.h"
#include "math/stats.h"
#include "quorum/bitset.h"
#include "quorum/grid.h"
#include "quorum/set_system.h"
#include "quorum/singleton.h"
#include "quorum/strategy.h"
#include "quorum/threshold.h"
#include "quorum/wall.h"
#include "quorum/weighted.h"

namespace pqs {
namespace {

using quorum::Quorum;
using quorum::QuorumBitset;
using quorum::QuorumSystem;

// ---------------------------------------------------------------------
// Test-local vector<bool> references: one plain loop per construction,
// written from its definition and sharing no code with the mask
// predicates under test.
// ---------------------------------------------------------------------

std::uint32_t count_alive(const std::vector<bool>& alive) {
  std::uint32_t count = 0;
  for (const bool a : alive) count += a ? 1u : 0u;
  return count;
}

bool every_member_alive(const Quorum& quorum, const std::vector<bool>& alive) {
  for (const quorum::ServerId u : quorum) {
    if (!alive[u]) return false;
  }
  return true;
}

// >= d fully alive rows and >= d fully alive columns.
bool grid_reference(const quorum::GridSystem& g,
                    const std::vector<bool>& alive) {
  std::uint32_t live_rows = 0;
  for (std::uint32_t r = 0; r < g.rows(); ++r) {
    bool ok = true;
    for (std::uint32_t c = 0; c < g.cols(); ++c) {
      ok = ok && alive[r * g.cols() + c];
    }
    live_rows += ok ? 1u : 0u;
  }
  std::uint32_t live_cols = 0;
  for (std::uint32_t c = 0; c < g.cols(); ++c) {
    bool ok = true;
    for (std::uint32_t r = 0; r < g.rows(); ++r) {
      ok = ok && alive[r * g.cols() + c];
    }
    live_cols += ok ? 1u : 0u;
  }
  return live_rows >= g.depth() && live_cols >= g.depth();
}

// Some row fully alive with every row below it holding a survivor.
bool wall_reference(const quorum::WallSystem& wall,
                    const std::vector<bool>& alive) {
  const auto& widths = wall.widths();
  std::vector<std::uint32_t> starts;
  std::uint32_t at = 0;
  for (const std::uint32_t w : widths) {
    starts.push_back(at);
    at += w;
  }
  for (std::size_t i = 0; i < widths.size(); ++i) {
    bool full = true;
    for (std::uint32_t c = 0; c < widths[i]; ++c) {
      full = full && alive[starts[i] + c];
    }
    if (!full) continue;
    bool below = true;
    for (std::size_t j = i + 1; j < widths.size(); ++j) {
      bool any = false;
      for (std::uint32_t c = 0; c < widths[j]; ++c) {
        any = any || alive[starts[j] + c];
      }
      below = below && any;
    }
    if (below) return true;
  }
  return false;
}

bool weighted_reference(const quorum::WeightedVotingSystem& sys,
                        const std::vector<bool>& alive) {
  std::uint32_t gathered = 0;
  for (std::size_t u = 0; u < alive.size(); ++u) {
    if (alive[u]) gathered += sys.votes()[u];
  }
  return gathered >= sys.threshold();
}

bool set_system_reference(const quorum::SetSystem& sys,
                          const std::vector<bool>& alive) {
  for (const Quorum& q : sys.quorums()) {
    if (every_member_alive(q, alive)) return true;
  }
  return false;
}

// A live read quorum and a live write quorum.
bool strategy_reference(const quorum::Strategy& s,
                        const std::vector<bool>& alive) {
  bool read = false;
  for (std::uint32_t i = 0; i < s.read_support_size(); ++i) {
    read = read || every_member_alive(s.read_quorum(i), alive);
  }
  bool write = false;
  for (std::uint32_t i = 0; i < s.write_support_size(); ++i) {
    write = write || every_member_alive(s.write_quorum(i), alive);
  }
  return read && write;
}

struct Case {
  std::shared_ptr<const QuorumSystem> (*make)();
  bool (*reference)(const QuorumSystem&, const std::vector<bool>&);
};

template <typename System>
const System& as(const QuorumSystem& sys) {
  return dynamic_cast<const System&>(sys);
}

const Case kCases[] = {
    {[] {
       return std::shared_ptr<const QuorumSystem>(
           std::make_shared<quorum::ThresholdSystem>(
               quorum::ThresholdSystem::majority(67)));
     },
     [](const QuorumSystem&, const std::vector<bool>& alive) {
       return count_alive(alive) >= 34;
     }},
    // 7x7, d=2: spans word boundaries neither at 64 nor 128.
    {[] {
       return std::shared_ptr<const QuorumSystem>(
           std::make_shared<quorum::GridSystem>(7, 7, 2));
     },
     [](const QuorumSystem& sys, const std::vector<bool>& alive) {
       return grid_reference(as<quorum::GridSystem>(sys), alive);
     }},
    // 12x12 = 144 servers: rows straddle the 64- and 128-bit word seams.
    {[] {
       return std::shared_ptr<const QuorumSystem>(
           std::make_shared<quorum::GridSystem>(12, 12, 1));
     },
     [](const QuorumSystem& sys, const std::vector<bool>& alive) {
       return grid_reference(as<quorum::GridSystem>(sys), alive);
     }},
    // 100 servers, crosses a word.
    {[] {
       return std::shared_ptr<const QuorumSystem>(
           std::make_shared<quorum::WallSystem>(
               std::vector<std::uint32_t>{40, 30, 20, 10}));
     },
     [](const QuorumSystem& sys, const std::vector<bool>& alive) {
       return wall_reference(as<quorum::WallSystem>(sys), alive);
     }},
    {[] {
       std::vector<std::uint32_t> votes(70, 1);
       for (int i = 0; i < 10; ++i) votes[i] = 5;
       return std::shared_ptr<const QuorumSystem>(
           std::make_shared<quorum::WeightedVotingSystem>(votes, 61));
     },
     [](const QuorumSystem& sys, const std::vector<bool>& alive) {
       return weighted_reference(as<quorum::WeightedVotingSystem>(sys),
                                 alive);
     }},
    {[] {
       return std::shared_ptr<const QuorumSystem>(
           std::make_shared<quorum::SingletonSystem>(66, 65));
     },
     [](const QuorumSystem&, const std::vector<bool>& alive) {
       return static_cast<bool>(alive[65]);
     }},
    {[] {
       return std::shared_ptr<const QuorumSystem>(
           std::make_shared<quorum::SetSystem>(
               quorum::SetSystem::all_subsets(7, 4)));
     },
     [](const QuorumSystem& sys, const std::vector<bool>& alive) {
       return set_system_reference(as<quorum::SetSystem>(sys), alive);
     }},
    // Explicit supports over R(15, 6), reads and writes overlapping.
    {[] {
       auto base = std::make_shared<core::RandomSubsetSystem>(15, 6);
       return std::shared_ptr<const QuorumSystem>(
           std::make_shared<quorum::Strategy>(
               std::move(base),
               std::vector<Quorum>{{0, 1, 2, 3, 4, 5}, {3, 4, 5, 6, 7, 8}},
               std::vector<double>{0.7, 0.3},
               std::vector<Quorum>{{0, 2, 4, 6, 8, 10},
                                   {4, 5, 6, 7, 12, 14}},
               std::vector<double>{0.5, 0.5}));
     },
     [](const QuorumSystem& sys, const std::vector<bool>& alive) {
       return strategy_reference(as<quorum::Strategy>(sys), alive);
     }},
    {[] {
       return std::shared_ptr<const QuorumSystem>(
           std::make_shared<core::RandomSubsetSystem>(130, 27));
     },
     [](const QuorumSystem&, const std::vector<bool>& alive) {
       return count_alive(alive) >= 27;
     }},
};

std::vector<bool> to_vector(const QuorumBitset& alive) {
  std::vector<bool> out(alive.universe_size(), false);
  for (std::uint32_t u = 0; u < alive.universe_size(); ++u) {
    out[u] = alive.test(u);
  }
  return out;
}

class Liveness : public ::testing::TestWithParam<Case> {};

TEST_P(Liveness, MaskAndVectorFormsAgreeWithReferenceOnRandomMasks) {
  const Case& c = GetParam();
  const auto sys = c.make();
  const std::uint32_t n = sys->universe_size();
  math::Rng rng(99);
  for (double p : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    const math::BernoulliBlockSampler dead(p);
    for (int trial = 0; trial < 200; ++trial) {
      QuorumBitset alive(n);
      std::uint64_t* words = alive.word_data();
      for (std::size_t i = 0; i < alive.word_count(); ++i) {
        words[i] = ~dead.draw_block(rng);
      }
      alive.mask_padding();
      const std::vector<bool> alive_vec = to_vector(alive);
      const bool want = c.reference(*sys, alive_vec);
      ASSERT_EQ(sys->has_live_quorum_mask(alive), want)
          << sys->name() << " p=" << p << " trial=" << trial;
      ASSERT_EQ(sys->has_live_quorum(alive_vec), want)
          << sys->name() << " p=" << p << " trial=" << trial;
    }
  }
}

// Both entry points check alive against the universe once, in the base
// class: too short, too long, or a mask over another universe throws
// instead of reading past the end or counting servers that do not exist.
TEST_P(Liveness, RejectsAliveSetsOfTheWrongSize) {
  const auto sys = GetParam().make();
  const std::uint32_t n = sys->universe_size();
  EXPECT_THROW(sys->has_live_quorum(std::vector<bool>(n - 1, true)),
               std::invalid_argument)
      << sys->name();
  EXPECT_THROW(sys->has_live_quorum(std::vector<bool>(n + 1, true)),
               std::invalid_argument)
      << sys->name();
  for (const std::uint32_t wrong : {n - 1, n + 1, n + 64}) {
    QuorumBitset alive(wrong);
    alive.set_range(0, wrong);
    EXPECT_THROW(sys->has_live_quorum_mask(alive), std::invalid_argument)
        << sys->name() << " mask universe " << wrong;
  }
  EXPECT_TRUE(sys->has_live_quorum(std::vector<bool>(n, true)))
      << sys->name();
}

INSTANTIATE_TEST_SUITE_P(AllConstructions, Liveness,
                         ::testing::ValuesIn(kCases));

// The cases that used to answer instead of throwing: a 5-server majority
// counted 10 live servers, a mask over 200 servers likewise, and a 3x3
// grid read past the end of a 4-entry vector.
TEST(LivenessSizeContract, OversizedAndShortAliveSetsThrow) {
  const quorum::ThresholdSystem threshold(5, 3);
  EXPECT_THROW(threshold.has_live_quorum(std::vector<bool>(10, true)),
               std::invalid_argument);
  QuorumBitset wide(200);
  wide.set_range(0, 200);
  EXPECT_THROW(threshold.has_live_quorum_mask(wide), std::invalid_argument);
  const quorum::GridSystem grid(3, 3, 1);
  EXPECT_THROW(grid.has_live_quorum(std::vector<bool>(4, true)),
               std::invalid_argument);
}

// The estimator's trial loop with the reference predicate in place of
// has_live_quorum_mask: same substreams, same alive masks, so the two
// Proportions must match bit for bit.
math::Proportion reference_failure_probability(const Case& c,
                                               const QuorumSystem& sys,
                                               double p, std::uint64_t samples,
                                               math::Rng& rng,
                                               core::Estimator& engine) {
  const std::uint32_t n = sys.universe_size();
  const math::BernoulliBlockSampler dead(p);
  return engine.run_trials<math::Proportion>(
      samples, rng,
      [&](std::uint32_t, std::uint64_t shard_samples, math::Rng& shard_rng) {
        QuorumBitset alive(n);
        math::Proportion result;
        for (std::uint64_t s = 0; s < shard_samples; ++s) {
          dead.fill(alive.word_data(), alive.word_count(), shard_rng,
                    /*invert=*/true);
          alive.mask_padding();
          result.add(!c.reference(sys, to_vector(alive)));
        }
        return result;
      },
      [](math::Proportion& acc, const math::Proportion& part) {
        acc.add(part.successes(), part.trials());
      });
}

// The batched-Bernoulli failure-probability estimator must return the
// reference's Proportion bit for bit at every thread count — both see the
// same alive masks, so any disagreement is a bug in a construction's
// mask predicate.
TEST(FailureProbabilityPaths, BatchedMatchesScalarBitForBit) {
  for (const Case& c : kCases) {
    const auto sys = c.make();
    for (double p : {0.25, 0.5, 0.61}) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> results;
      for (unsigned threads : {1u, 2u, 8u}) {
        core::Estimator engine({threads});
        math::Rng rng_fast(4242), rng_ref(4242);
        const auto fast = core::estimate_failure_probability(
            *sys, p, 20000, rng_fast, engine);
        const auto ref =
            reference_failure_probability(c, *sys, p, 20000, rng_ref, engine);
        EXPECT_EQ(fast.successes(), ref.successes())
            << sys->name() << " p=" << p << " threads=" << threads;
        EXPECT_EQ(fast.trials(), ref.trials());
        results.emplace_back(fast.successes(), fast.trials());
      }
      // And thread count changes nothing.
      EXPECT_EQ(results[0], results[1]) << sys->name() << " p=" << p;
      EXPECT_EQ(results[0], results[2]) << sys->name() << " p=" << p;
    }
  }
}

// The block sampler itself: dyadic probabilities resolve in exactly the
// digit count of their binary expansion (p = 1/2 -> one word per 64
// trials), and the marginal success rate is p for dyadic and non-dyadic
// probabilities alike.
TEST(BernoulliBlock, HalfUsesExactlyOneWordPerBlock) {
  const math::BernoulliBlockSampler sampler(0.5);
  math::Rng rng(31), mirror(31);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t block = sampler.draw_block(rng);
    // Digit 1 at the top level: success exactly where the word bit is 0.
    EXPECT_EQ(block, ~mirror.next());
  }
  // Streams in lockstep: exactly one word consumed per block.
  EXPECT_EQ(rng.next(), mirror.next());
}

TEST(BernoulliBlock, MarginalRateMatchesP) {
  math::Rng rng(37);
  for (double p : {0.5, 0.25, 0.3, 0.875, 1e-3, 0.999}) {
    const math::BernoulliBlockSampler sampler(p);
    std::uint64_t successes = 0;
    constexpr int kBlocks = 20000;  // 1.28M trials
    for (int i = 0; i < kBlocks; ++i) {
      successes += quorum::popcount64(sampler.draw_block(rng));
    }
    const double rate = static_cast<double>(successes) / (64.0 * kBlocks);
    // ~4.4 sigma of binomial noise.
    const double sigma = std::sqrt(p * (1 - p) / (64.0 * kBlocks));
    EXPECT_NEAR(rate, p, 4.4 * sigma + 1e-12) << "p=" << p;
  }
}

TEST(BernoulliBlock, ExtremesAreConstant) {
  math::Rng rng(41);
  const math::BernoulliBlockSampler never(0.0);
  const math::BernoulliBlockSampler always(1.0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(never.draw_block(rng), 0u);
    EXPECT_EQ(always.draw_block(rng), ~0ULL);
  }
}

}  // namespace
}  // namespace pqs
