// Microbenchmarks (google-benchmark): the operational costs of the library —
// SIMD kernel tables side by side (every table the CPU supports, so one run
// contains the scalar-vs-AVX2/AVX-512 comparison), quorum sampling, exact
// epsilon evaluation, solver runs, Monte-Carlo estimation (seed-style
// allocating loop vs the sharded engine at 1..8 threads), protocol
// operations on both cluster harnesses, gossip rounds, and the MAC.
//
// Flags beyond google-benchmark's own: --json <path> writes the standard
// benchmark JSON to <path> (shorthand for --benchmark_out=<path>
// --benchmark_out_format=json); the report context carries the dispatched
// kernel name under "simd_kernel". A global operator-new counter feeds the
// allocs_per_op counter on the estimator/protocol rows.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "core/epsilon.h"
#include "core/estimator.h"
#include "core/monte_carlo.h"
#include "core/random_subset_system.h"
#include "crypto/mac.h"
#include "diffusion/gossip.h"
#include "math/bernoulli.h"
#include "math/rng.h"
#include "math/sampling.h"
#include "quorum/bitset.h"
#include "quorum/grid.h"
#include "quorum/mask_batch.h"
#include "quorum/threshold.h"
#include "quorum/wall.h"
#include "quorum/weighted.h"
#include "replica/instant_cluster.h"
#include "replica/sim_cluster.h"
#include "simd/kernels.h"

namespace {

using namespace pqs;

// Tracks heap allocations across the timed loop and reports them per
// benchmark iteration (scaled by `ops_per_iter` when one iteration performs
// several logical operations).
class AllocCounter {
 public:
  explicit AllocCounter(benchmark::State& state, double ops_per_iter = 1.0)
      : state_(state),
        ops_per_iter_(ops_per_iter),
        start_(bench::allocations()) {}
  void report() {
    const std::uint64_t end = bench::allocations();
    const double iters =
        static_cast<double>(state_.iterations()) * ops_per_iter_;
    state_.counters["allocs_per_op"] =
        iters > 0 ? static_cast<double>(end - start_) / iters : 0.0;
  }

 private:
  benchmark::State& state_;
  double ops_per_iter_;
  std::uint64_t start_;
};

std::uint32_t bench_quorum_size(std::uint32_t n) {
  return static_cast<std::uint32_t>(2.5 * std::sqrt(double(n))) + 1;
}

// ---- SIMD kernel table benches --------------------------------------------
//
// Registered once per table in simd::available(), so a single run reports
// BM_Kernel_*/scalar next to BM_Kernel_*/avx2 (and /avx512 where present).
// bench/check_simd_speedup.py compares these rows; CI runs it as a
// no-lose floor (SIMD must stay within noise of scalar or better — real
// margins here are 2-40x), while the >= 1.5x acceptance numbers are read
// off these same rows on quiet hardware. Arg(0) is the buffer size in
// 64-bit words (157 words = a 10k-server universe; 15 words = the
// table-sized 900).

std::vector<std::uint64_t> bench_words(std::size_t n, std::uint64_t seed) {
  math::Rng rng(seed);
  std::vector<std::uint64_t> words(n);
  for (auto& w : words) w = rng.next();
  return words;
}

void KernelPopcount(benchmark::State& state, const simd::Kernels* k) {
  const std::size_t words = static_cast<std::size_t>(state.range(0));
  const auto a = bench_words(words, 21);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sink += k->popcount(a.data(), words);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(words));
}

void KernelAndPopcount(benchmark::State& state, const simd::Kernels* k) {
  const std::size_t words = static_cast<std::size_t>(state.range(0));
  const auto a = bench_words(words, 22);
  const auto b = bench_words(words, 23);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sink += k->and_popcount(a.data(), b.data(), words);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(words));
}

// The pair-estimator shape: one strided call judging 8 quorum pairs laid
// out flat ([a0 b0 a1 b1 ...]), overlap outside a Byzantine prefix.
void KernelBatchAndPopcountFrom(benchmark::State& state,
                                const simd::Kernels* k) {
  const std::size_t words = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kPairs = 8;
  const auto flat = bench_words(words * 2 * kPairs, 24);
  const std::uint32_t lo = static_cast<std::uint32_t>(words * 64 / 10);
  std::uint32_t out[kPairs];
  std::uint64_t sink = 0;
  for (auto _ : state) {
    k->batch_and_popcount_from(flat.data(), flat.data() + words, 2 * words,
                               kPairs, words, lo, out);
    sink += out[0] + out[kPairs - 1];
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPairs));
}

// The load-estimator shape: one strided column-accumulate sweep tallying a
// 16-mask sample_masks chunk into the per-server histogram. The scalar row
// is the per-bit ctz walk estimate_server_loads ran before the kernel
// existed, so the scalar-vs-SIMD ratio here *is* the kernelized-estimator
// vs per-bit-walk comparison check_simd_speedup.py gates.
void KernelColumnAccumulate(benchmark::State& state, const simd::Kernels* k) {
  const std::size_t words = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kMasks = 16;  // core::monte_carlo's kDrawBatch
  const auto flat = bench_words(words * kMasks, 26);
  std::vector<std::uint64_t> counts(64 * words, 0);
  for (auto _ : state) {
    k->batch_column_accumulate(flat.data(), words, kMasks, words,
                               counts.data());
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kMasks));
}

// Alive-mask generation through each table's Bernoulli fill (dead
// probability 0.3, inverted — exactly what estimate_failure_probability
// asks per trial).
void KernelAliveMaskFill(benchmark::State& state, const simd::Kernels* k) {
  const std::size_t words = static_cast<std::size_t>(state.range(0));
  const math::BernoulliBlockSampler dead(0.3);
  const simd::BernoulliSpec spec = dead.spec(/*invert=*/true);
  std::vector<std::uint64_t> buf(words);
  math::Rng rng(25);
  for (auto _ : state) {
    k->bernoulli_fill(buf.data(), words, spec, rng.next());
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(words) * 64);
}

void register_kernel_benches() {
  for (const simd::Kernels* k : simd::available()) {
    const std::string suffix = "/" + std::string(k->name);
    benchmark::RegisterBenchmark(
        ("BM_Kernel_Popcount" + suffix).c_str(),
        [k](benchmark::State& s) { KernelPopcount(s, k); })
        ->Arg(15)
        ->Arg(157);
    benchmark::RegisterBenchmark(
        ("BM_Kernel_AndPopcount" + suffix).c_str(),
        [k](benchmark::State& s) { KernelAndPopcount(s, k); })
        ->Arg(15)
        ->Arg(157);
    benchmark::RegisterBenchmark(
        ("BM_Kernel_BatchAndPopcountFrom" + suffix).c_str(),
        [k](benchmark::State& s) { KernelBatchAndPopcountFrom(s, k); })
        ->Arg(15)
        ->Arg(157);
    benchmark::RegisterBenchmark(
        ("BM_Kernel_ColumnAccumulate" + suffix).c_str(),
        [k](benchmark::State& s) { KernelColumnAccumulate(s, k); })
        ->Arg(15)
        ->Arg(157);
    benchmark::RegisterBenchmark(
        ("BM_Kernel_AliveMaskFill" + suffix).c_str(),
        [k](benchmark::State& s) { KernelAliveMaskFill(s, k); })
        ->Arg(15)
        ->Arg(157);
  }
}

void BM_SampleMask_Wall(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto side = static_cast<std::uint32_t>(std::sqrt(double(n)));
  const auto sys = quorum::WallSystem::uniform(side, side);
  math::Rng rng(3);
  quorum::QuorumBitset mask(sys.universe_size());
  for (auto _ : state) {
    sys.sample_mask(mask, rng);
    benchmark::DoNotOptimize(mask.words());
  }
}

void BM_SampleMask_Weighted(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::vector<std::uint32_t> votes(n, 1);
  for (std::uint32_t i = 0; i < n / 10; ++i) votes[i] = 4;
  const std::uint32_t total = n + (n / 10) * 3;
  const quorum::WeightedVotingSystem sys(votes, total / 2 + 1);
  math::Rng rng(4);
  quorum::QuorumBitset mask(n);
  for (auto _ : state) {
    sys.sample_mask(mask, rng);
    benchmark::DoNotOptimize(mask.words());
  }
}

// The one draw every construction implements: a quorum straight into a
// reused bitset.
void BM_SampleMask_RandomSubset(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const core::RandomSubsetSystem sys(n, bench_quorum_size(n));
  math::Rng rng(1);
  quorum::QuorumBitset mask(n);
  for (auto _ : state) {
    sys.sample_mask(mask, rng);
    benchmark::DoNotOptimize(mask.words());
  }
}

void BM_SampleMask_Threshold(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const quorum::ThresholdSystem sys(n, n / 2 + 1);
  math::Rng rng(5);
  quorum::QuorumBitset mask(n);
  for (auto _ : state) {
    sys.sample_mask(mask, rng);
    benchmark::DoNotOptimize(mask.words());
  }
}

void BM_SampleMask_Grid(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto sys = quorum::GridSystem::square(n);
  math::Rng rng(6);
  quorum::QuorumBitset mask(n);
  for (auto _ : state) {
    sys.sample_mask(mask, rng);
    benchmark::DoNotOptimize(mask.words());
  }
}

// Alive-mask generation: one Bernoulli(p) per server, scalar chance() loop
// vs the batched 64-lane digit-compare sampler.
void BM_AliveMask_Scalar(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const double p = 0.3;
  math::Rng rng(8);
  std::vector<bool> alive(n);
  for (auto _ : state) {
    for (std::uint32_t u = 0; u < n; ++u) alive[u] = !rng.chance(p);
    benchmark::DoNotOptimize(&alive);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}

void BM_AliveMask_Batched(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const math::BernoulliBlockSampler dead(0.3);
  math::Rng rng(8);
  quorum::QuorumBitset alive(n);
  for (auto _ : state) {
    std::uint64_t* words = alive.word_data();
    for (std::size_t i = 0; i < alive.word_count(); ++i) {
      words[i] = ~dead.draw_block(rng);
    }
    alive.mask_padding();
    benchmark::DoNotOptimize(alive.words());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}

// The pre-engine estimator: one thread, a fresh quorum vector per draw, and
// a sorted-merge intersection test. Kept as the baseline the engine's
// speedup is measured against.
math::Proportion seed_estimate_nonintersection(
    const quorum::QuorumSystem& system, std::uint64_t samples,
    math::Rng& rng) {
  math::Proportion result;
  for (std::uint64_t s = 0; s < samples; ++s) {
    const auto a = system.sample(rng);
    const auto b = system.sample(rng);
    result.add(!math::sorted_intersects(a, b));
  }
  return result;
}

constexpr std::uint64_t kEstimateSamples = 100000;

void BM_EstimateNonintersection_SeedPath(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const core::RandomSubsetSystem sys(n, bench_quorum_size(n));
  math::Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        seed_estimate_nonintersection(sys, kEstimateSamples, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kEstimateSamples));
}

// Engine path; range(1) is the thread count — compare items_per_second
// against the seed path above (acceptance: >= 4x at 8 threads).
void BM_EstimateNonintersection_Engine(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const core::RandomSubsetSystem sys(n, bench_quorum_size(n));
  core::Estimator engine({static_cast<unsigned>(state.range(1))});
  math::Rng rng(11);
  AllocCounter allocs(state, static_cast<double>(kEstimateSamples));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::estimate_nonintersection(sys, kEstimateSamples, rng, engine));
  }
  allocs.report();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kEstimateSamples));
}

// The load estimator end to end (draws + column-accumulate tallies);
// range(1) is the thread count.
void BM_EstimateLoadProfile_Engine(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const core::RandomSubsetSystem sys(n, bench_quorum_size(n));
  core::Estimator engine({static_cast<unsigned>(state.range(1))});
  math::Rng rng(12);
  AllocCounter allocs(state, static_cast<double>(kEstimateSamples));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::estimate_load_profile(sys, kEstimateSamples, rng, engine));
  }
  allocs.report();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kEstimateSamples));
}

void BM_EstimateFailureProbability_Engine(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const core::RandomSubsetSystem sys(n, bench_quorum_size(n));
  core::Estimator engine({static_cast<unsigned>(state.range(1))});
  math::Rng rng(13);
  AllocCounter allocs(state, static_cast<double>(kEstimateSamples / 4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::estimate_failure_probability(
        sys, 0.5, kEstimateSamples / 4, rng, engine));
  }
  allocs.report();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kEstimateSamples / 4));
}

void BM_EpsilonExact_Intersecting(benchmark::State& state) {
  const auto n = state.range(0);
  const auto q = bench_quorum_size(static_cast<std::uint32_t>(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::nonintersection_exact(n, q));
  }
}

void BM_EpsilonExact_Dissemination(benchmark::State& state) {
  const auto n = state.range(0);
  const auto q = bench_quorum_size(static_cast<std::uint32_t>(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::dissemination_epsilon_exact(n, q, n / 3));
  }
}

void BM_EpsilonExact_Masking(benchmark::State& state) {
  const auto n = state.range(0);
  const auto q = 5 * static_cast<std::int64_t>(std::sqrt(double(n)));
  const auto b = static_cast<std::int64_t>(std::sqrt(double(n)));
  const auto k = core::masking_threshold(n, q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::masking_epsilon_exact(n, q, b, k));
  }
}

void BM_Solver_Intersecting(benchmark::State& state) {
  const auto n = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::min_q_intersecting(n, 1e-3));
  }
}

void BM_InstantCluster_WriteRead(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  replica::InstantCluster::Config cfg;
  cfg.quorums =
      std::make_shared<core::RandomSubsetSystem>(n, bench_quorum_size(n));
  replica::InstantCluster cluster(cfg);
  std::int64_t value = 0;
  AllocCounter allocs(state, 2.0);  // one write + one read per iteration
  for (auto _ : state) {
    cluster.write(1, ++value);
    benchmark::DoNotOptimize(cluster.read(1));
  }
  allocs.report();
}

void BM_SimCluster_WriteRead(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  replica::SimCluster::Config cfg;
  cfg.quorums =
      std::make_shared<core::RandomSubsetSystem>(n, bench_quorum_size(n));
  cfg.latency = {.base = 100, .jitter_mean = 50, .drop_probability = 0.0};
  replica::SimCluster cluster(cfg);
  std::int64_t value = 0;
  for (auto _ : state) {
    cluster.write_sync(1, ++value);
    benchmark::DoNotOptimize(cluster.read_sync(1));
  }
}

void BM_GossipRound(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  replica::InstantCluster::Config cfg;
  cfg.quorums =
      std::make_shared<core::RandomSubsetSystem>(n, bench_quorum_size(n));
  replica::InstantCluster cluster(cfg);
  for (std::uint64_t v = 1; v <= 8; ++v) cluster.write(v, 1);
  diffusion::GossipEngine engine({.fanout = 2, .verify = false});
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_round(cluster.servers(), cluster.rng()));
  }
}

void BM_MacSignVerify(benchmark::State& state) {
  const auto signer = crypto::Signer::from_seed(7);
  const crypto::Verifier verifier(signer.key());
  std::uint64_t ts = 0;
  for (auto _ : state) {
    const auto rec = signer.sign(1, 42, ++ts, 1);
    benchmark::DoNotOptimize(verifier.verify(rec));
  }
}

}  // namespace

BENCHMARK(BM_SampleMask_RandomSubset)->Arg(100)->Arg(900)->Arg(10000);
BENCHMARK(BM_SampleMask_Threshold)->Arg(100)->Arg(900)->Arg(10000);
BENCHMARK(BM_SampleMask_Grid)->Arg(100)->Arg(900)->Arg(10000);
BENCHMARK(BM_AliveMask_Scalar)->Arg(900)->Arg(10000);
BENCHMARK(BM_AliveMask_Batched)->Arg(900)->Arg(10000);
BENCHMARK(BM_EstimateNonintersection_SeedPath)->Arg(900)->UseRealTime();
BENCHMARK(BM_EstimateNonintersection_Engine)
    ->Args({900, 1})
    ->Args({900, 2})
    ->Args({900, 4})
    ->Args({900, 8})
    ->UseRealTime();
BENCHMARK(BM_EstimateLoadProfile_Engine)
    ->Args({900, 1})
    ->Args({900, 8})
    ->UseRealTime();
BENCHMARK(BM_EstimateFailureProbability_Engine)
    ->Args({900, 1})
    ->Args({900, 8})
    ->UseRealTime();
BENCHMARK(BM_SampleMask_Wall)->Arg(100)->Arg(900);
BENCHMARK(BM_SampleMask_Weighted)->Arg(100)->Arg(900);
BENCHMARK(BM_EpsilonExact_Intersecting)->Arg(100)->Arg(900)->Arg(10000);
BENCHMARK(BM_EpsilonExact_Dissemination)->Arg(100)->Arg(900);
BENCHMARK(BM_EpsilonExact_Masking)->Arg(100)->Arg(900)->Arg(10000);
BENCHMARK(BM_Solver_Intersecting)->Arg(100)->Arg(900);
BENCHMARK(BM_InstantCluster_WriteRead)->Arg(100)->Arg(900);
BENCHMARK(BM_SimCluster_WriteRead)->Arg(25)->Arg(100);
BENCHMARK(BM_GossipRound)->Arg(100)->Arg(900);
BENCHMARK(BM_MacSignVerify);

// Custom main: registers the per-table kernel benches, translates
// --json <path> into google-benchmark's out flags, and stamps the report
// context with the dispatched kernel so BENCH_micro.json is self-describing.
int main(int argc, char** argv) {
  std::string json_path;
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc) + 2);
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      args.emplace_back(argv[i]);
    }
  }
  if (!json_path.empty()) {
    args.push_back("--benchmark_out=" + json_path);
    args.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> bench_argv;
  bench_argv.reserve(args.size());
  for (auto& a : args) bench_argv.push_back(a.data());
  int bench_argc = static_cast<int>(bench_argv.size());

  benchmark::AddCustomContext("simd_kernel", pqs::simd::active().name);
  register_kernel_benches();
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
