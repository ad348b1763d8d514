#include "core/monte_carlo.h"

#include <algorithm>

#include "math/bernoulli.h"
#include "math/sampling.h"
#include "quorum/bitset.h"
#include "quorum/mask_batch.h"
#include "simd/kernels.h"
#include "util/require.h"

namespace pqs::core {

namespace {

// Folds Bernoulli shard counters; shard order is fixed by the engine, so
// the merged Proportion is bit-identical at any thread count.
void merge_proportion(math::Proportion& acc, const math::Proportion& part) {
  acc.add(part.successes(), part.trials());
}

// Masks per sample_masks() chunk in the pair estimators (8 trials of two
// draws each). Chunking amortizes the virtual draw dispatch; the rng stream
// is untouched — sample_masks consumes exactly what the per-draw calls did,
// so estimates stay bit-identical at any chunk size.
constexpr std::size_t kDrawBatch = 16;
constexpr std::size_t kPairBatch = kDrawBatch / 2;

// Draws quorum pairs through the batched entry point into one flat
// MaskBatch in [a0 b0 a1 b1 ...] order — the exact draw order of the
// former per-trial sample_mask pairs — then hands each filled chunk to
// score(batch, pairs, result), which judges all pairs with strided batch
// kernels over the flat buffer and appends one verdict per pair.
template <typename Score>
math::Proportion pair_trials(const quorum::QuorumSystem& system,
                             std::uint64_t trials, math::Rng& rng,
                             Score&& score) {
  quorum::MaskBatch batch(system.universe_size(), kDrawBatch);
  math::Proportion result;
  std::uint64_t done = 0;
  while (done < trials) {
    const std::size_t pairs = static_cast<std::size_t>(
        std::min<std::uint64_t>(trials - done, kPairBatch));
    system.sample_masks(batch.masks(), pairs * 2, rng);
    score(batch, pairs, result);
    done += pairs;
  }
  return result;
}

}  // namespace

math::Proportion estimate_nonintersection(const quorum::QuorumSystem& system,
                                          std::uint64_t samples,
                                          math::Rng& rng, Estimator& engine) {
  return engine.run_trials<math::Proportion>(
      samples, rng,
      [&](std::uint32_t, std::uint64_t shard_samples, math::Rng& shard_rng) {
        return pair_trials(
            system, shard_samples, shard_rng,
            [](quorum::MaskBatch& batch, std::size_t pairs,
               math::Proportion& result) {
              const std::size_t w = batch.words_per_mask();
              std::uint32_t overlap[kPairBatch];
              simd::active().batch_and_popcount_from(
                  batch.words(), batch.words() + w, 2 * w, pairs, w, 0,
                  overlap);
              for (std::size_t i = 0; i < pairs; ++i) {
                result.add(overlap[i] == 0);
              }
            });
      },
      merge_proportion);
}

math::Proportion estimate_dissemination_epsilon(
    const quorum::QuorumSystem& system, std::uint32_t b, std::uint64_t samples,
    math::Rng& rng, Estimator& engine) {
  PQS_REQUIRE(b <= system.universe_size(), "byzantine count");
  return engine.run_trials<math::Proportion>(
      samples, rng,
      [&](std::uint32_t, std::uint64_t shard_samples, math::Rng& shard_rng) {
        return pair_trials(
            system, shard_samples, shard_rng,
            [b](quorum::MaskBatch& batch, std::size_t pairs,
                math::Proportion& result) {
              // Failure event: every common server is Byzantine
              // (Q ∩ Q' ⊆ B), i.e. no overlap outside the prefix {0..b-1}.
              const std::size_t w = batch.words_per_mask();
              std::uint32_t correct_overlap[kPairBatch];
              simd::active().batch_and_popcount_from(
                  batch.words(), batch.words() + w, 2 * w, pairs, w, b,
                  correct_overlap);
              for (std::size_t i = 0; i < pairs; ++i) {
                result.add(correct_overlap[i] == 0);
              }
            });
      },
      merge_proportion);
}

math::Proportion estimate_masking_epsilon(const quorum::QuorumSystem& system,
                                          std::uint32_t b, std::uint32_t k,
                                          std::uint64_t samples,
                                          math::Rng& rng, Estimator& engine) {
  PQS_REQUIRE(b <= system.universe_size(), "byzantine count");
  return engine.run_trials<math::Proportion>(
      samples, rng,
      [&](std::uint32_t, std::uint64_t shard_samples, math::Rng& shard_rng) {
        return pair_trials(
            system, shard_samples, shard_rng,
            [b, k](quorum::MaskBatch& batch, std::size_t pairs,
                   math::Proportion& result) {
              // Pair layout: even masks are the read quorums, odd the
              // write quorums. One strided sweep per question.
              const std::size_t w = batch.words_per_mask();
              std::uint32_t faulty_in_read[kPairBatch];
              std::uint32_t fresh_correct[kPairBatch];
              const auto& kern = simd::active();
              kern.batch_popcount_prefix(batch.words(), 2 * w, pairs, b,
                                         faulty_in_read);
              kern.batch_and_popcount_from(batch.words(), batch.words() + w,
                                           2 * w, pairs, w, b, fresh_correct);
              for (std::size_t i = 0; i < pairs; ++i) {
                result.add(faulty_in_read[i] >= k || fresh_correct[i] < k);
              }
            });
      },
      merge_proportion);
}

math::Proportion estimate_fabrication_epsilon(
    const quorum::QuorumSystem& system, std::uint32_t b, std::uint32_t k,
    std::uint64_t samples, math::Rng& rng, Estimator& engine) {
  PQS_REQUIRE(b <= system.universe_size(), "byzantine count");
  return engine.run_trials<math::Proportion>(
      samples, rng,
      [&](std::uint32_t, std::uint64_t shard_samples, math::Rng& shard_rng) {
        // Single-draw trials: one quorum mask per trial, judged in
        // kDrawBatch chunks by one strided prefix-popcount sweep.
        quorum::MaskBatch batch(system.universe_size(), kDrawBatch);
        const std::size_t w = batch.words_per_mask();
        math::Proportion result;
        std::uint64_t done = 0;
        while (done < shard_samples) {
          const std::size_t draws = static_cast<std::size_t>(
              std::min<std::uint64_t>(shard_samples - done, kDrawBatch));
          system.sample_masks(batch.masks(), draws, shard_rng);
          std::uint32_t faulty_in_quorum[kDrawBatch];
          simd::active().batch_popcount_prefix(batch.words(), w, draws, b,
                                               faulty_in_quorum);
          for (std::size_t i = 0; i < draws; ++i) {
            result.add(faulty_in_quorum[i] >= k);
          }
          done += draws;
        }
        return result;
      },
      merge_proportion);
}

stats::LoadProfile estimate_load_profile(const quorum::QuorumSystem& system,
                                         std::uint64_t samples,
                                         math::Rng& rng, Estimator& engine) {
  PQS_REQUIRE(samples > 0, "samples");
  const std::uint32_t n = system.universe_size();
  auto hits = engine.run_trials<std::vector<std::uint64_t>>(
      samples, rng,
      [&](std::uint32_t, std::uint64_t shard_samples, math::Rng& shard_rng) {
        // The histogram is word-major (64 slots per mask word, so slots
        // >= n mirror the always-zero padding bits); each filled chunk is
        // tallied by one strided column-accumulate sweep instead of a
        // per-draw set-bit walk. Exact integer sums — bit-identical to
        // the walk on every ISA.
        quorum::MaskBatch batch(n, kDrawBatch);
        const std::size_t w = batch.words_per_mask();
        std::vector<std::uint64_t> hist(64 * w, 0);
        std::uint64_t done = 0;
        while (done < shard_samples) {
          const std::size_t draws = static_cast<std::size_t>(
              std::min<std::uint64_t>(shard_samples - done, kDrawBatch));
          system.sample_masks(batch.masks(), draws, shard_rng);
          simd::active().batch_column_accumulate(batch.words(), w, draws, w,
                                                 hist.data());
          done += draws;
        }
        hist.resize(n);  // drop the padding slots, all zero by invariant
        return hist;
      },
      [n](std::vector<std::uint64_t>& acc,
          const std::vector<std::uint64_t>& part) {
        acc.resize(n, 0);
        for (std::uint32_t u = 0; u < n; ++u) acc[u] += part[u];
      });
  return stats::LoadProfile(std::move(hits), samples);
}

std::vector<double> estimate_server_loads(const quorum::QuorumSystem& system,
                                          std::uint64_t samples,
                                          math::Rng& rng, Estimator& engine) {
  return estimate_load_profile(system, samples, rng, engine).loads();
}

double estimate_load(const quorum::QuorumSystem& system, std::uint64_t samples,
                     math::Rng& rng, Estimator& engine) {
  return estimate_load_profile(system, samples, rng, engine).max_load();
}

math::Proportion estimate_failure_probability(
    const quorum::QuorumSystem& system, double p, std::uint64_t samples,
    math::Rng& rng, Estimator& engine) {
  const std::uint32_t n = system.universe_size();
  const math::BernoulliBlockSampler dead(p);
  return engine.run_trials<math::Proportion>(
      samples, rng,
      [&](std::uint32_t, std::uint64_t shard_samples, math::Rng& shard_rng) {
        quorum::QuorumBitset alive(n);
        math::Proportion result;
        for (std::uint64_t s = 0; s < shard_samples; ++s) {
          // One trial's alive mask: every server dead independently with
          // probability p, drawn as inverted Bernoulli blocks through the
          // dispatched kernel.
          dead.fill(alive.word_data(), alive.word_count(), shard_rng,
                    /*invert=*/true);
          alive.mask_padding();
          result.add(!system.has_live_quorum_mask(alive));
        }
        return result;
      },
      merge_proportion);
}

math::Proportion estimate_split_strategy_nonintersection(std::uint32_t n,
                                                         std::uint32_t q,
                                                         std::uint64_t samples,
                                                         math::Rng& rng,
                                                         Estimator& engine) {
  PQS_REQUIRE(q <= n / 2, "split strategy needs q <= n/2");
  const std::uint32_t half = n / 2;
  return engine.run_trials<math::Proportion>(
      samples, rng,
      [&](std::uint32_t, std::uint64_t shard_samples, math::Rng& shard_rng) {
        // Mask draws over a *translated* sub-universe: Floyd's draw fills
        // a half-width word scratch directly (no member list, no sort),
        // and or_shifted translates it onto the full mask at offset 0 or
        // n/2 depending on the half coin. Same rng consumption as the
        // old sorted-vector flow (sample_without_replacement_bits draws
        // exactly like the vector overload, then the coin), so results
        // stay bit-identical to the scalar reference in
        // tests/test_split_strategy.cc.
        quorum::QuorumBitset mask_a(n), mask_b(n);
        const std::size_t half_words = (half + 63) / 64;
        std::vector<std::uint64_t> draw_words(half_words);
        auto draw = [&](quorum::QuorumBitset& out) {
          std::fill(draw_words.begin(), draw_words.end(), 0);
          math::sample_without_replacement_bits(half, q, shard_rng,
                                                draw_words.data());
          const std::uint32_t offset = shard_rng.chance(0.5) ? half : 0;
          out.clear();
          out.or_shifted(draw_words.data(), half_words, offset);
        };
        math::Proportion result;
        for (std::uint64_t s = 0; s < shard_samples; ++s) {
          draw(mask_a);
          draw(mask_b);
          result.add(!mask_a.intersects(mask_b));
        }
        return result;
      },
      merge_proportion);
}

}  // namespace pqs::core
