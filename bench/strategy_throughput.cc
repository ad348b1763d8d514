// Workload-aware strategies: optimizer quality, serving-tier throughput,
// and measured-vs-predicted epsilon (ROADMAP item 3 end to end).
//
// Three experiments share the binary:
//
//   * an optimizer-quality sweep over workload mixes — for each mix (read
//     fraction, per-server capacity profile) quorum::optimize_strategy
//     reweights candidate quorums of R(36, 12) and its closed-form max
//     capacity-weighted load is compared against the best symmetric fixed
//     construction (which loads every server q/n, so its weighted max is
//     (q/n) / min capacity). The skewed mixes are a hard gate: the bench
//     exits nonzero unless the optimized strategy is *strictly* below the
//     fixed construction on every skewed mix.
//
//   * a serving-tier throughput comparison over serve::KvService — the
//     fixed construction vs the optimized strategy on the same open-loop
//     stream, reporting ops/sec and p50/p99 latency. Every section is
//     also a functional gate: per-shard aggregates (strategy draw counts
//     and checksums included) re-run with {1, 8} workers and must agree
//     shard by shard.
//
//   * a measured-vs-predicted epsilon check over replica::InstantCluster —
//     sharded write/read pairs through the optimized strategy measure the
//     deployed stale-read rate, gated by the strategy's predicted epsilon
//     plus a multiplicative Chernoff margin sized for failure probability
//     <= 1e-9 under the null (the conformance test's bound at bench
//     scale). A fixed-schedule replay across {1, 8} threads and both draw
//     paths gates bit-identity of the measurement itself.
//
// Flags: --threads=N (shard-serving workers, 0 = hardware), --samples=N
// (requests per section and pairs per epsilon shard; default 30000),
// --json=PATH (machine-readable report — CI archives it as
// BENCH_strategy.json and gates it with bench/check_strategy_regression.py).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/epsilon.h"
#include "core/random_subset_system.h"
#include "math/chernoff.h"
#include "quorum/strategy.h"
#include "replica/instant_cluster.h"
#include "serve/kv_service.h"
#include "simd/kernels.h"
#include "stats/latency_histogram.h"
#include "util/worker_pool.h"
#include "workload/open_loop.h"

namespace pqs {
namespace {


constexpr std::uint32_t kUniverse = 36;  // R(36, 12)
constexpr std::uint32_t kQuorum = 12;
constexpr std::uint64_t kKeys = 4096;
constexpr std::uint32_t kShards = 4;

// ---- optimizer-quality sweep ----------------------------------------------

struct MixSpec {
  std::string name;
  double read_fraction = 0.5;
  // (count, capacity) prefix overrides; remaining servers stay at 1.0.
  std::uint32_t slow_servers = 0;
  double slow_capacity = 1.0;
  bool gate_strict_win = false;  // skewed mixes must beat the fixed max
};

std::vector<MixSpec> make_mixes() {
  return {
      {"uniform", 0.5, 0, 1.0, false},
      {"skew_third_half", 0.75, kUniverse / 3, 0.5, true},
      {"skew_heavy_reads", 0.9, kUniverse / 6, 0.4, true},
  };
}

struct MixOutcome {
  MixSpec mix;
  double fixed_max_load = 0.0;
  double optimized_max_load = 0.0;
  double predicted_epsilon = 0.0;
  double epsilon_ceiling = 0.0;
  std::shared_ptr<const quorum::Strategy> strategy;
};

MixOutcome optimize_mix(const std::shared_ptr<const quorum::QuorumSystem>& sys,
                        const MixSpec& mix) {
  MixOutcome out;
  out.mix = mix;
  quorum::WorkloadSpec workload;
  workload.read_fraction = mix.read_fraction;
  workload.capacities.assign(kUniverse, 1.0);
  for (std::uint32_t u = 0; u < mix.slow_servers; ++u) {
    workload.capacities[u] = mix.slow_capacity;
  }
  quorum::StrategyOptions options;
  // Epsilon ceiling from the existing exact closed form: the optimized
  // strategy may not be less consistent than the fixed construction's
  // pairwise nonintersection probability.
  out.epsilon_ceiling = core::nonintersection_exact(kUniverse, kQuorum);
  options.epsilon_ceiling = out.epsilon_ceiling;
  out.strategy = quorum::optimize_strategy(sys, workload, options);
  out.optimized_max_load = out.strategy->max_load();
  out.predicted_epsilon = out.strategy->predicted_epsilon(0.0);
  // Any symmetric fixed construction of quorum size q loads every server
  // q/n, so its capacity-weighted max load is (q/n) / min capacity.
  const double min_cap = mix.slow_servers > 0 ? mix.slow_capacity : 1.0;
  out.fixed_max_load =
      (static_cast<double>(kQuorum) / kUniverse) / min_cap;
  return out;
}

// ---- serving-tier throughput ----------------------------------------------

struct RunOutcome {
  std::vector<serve::ShardAggregate> aggregates;  // the bit-identity payload
  serve::ShardAggregate fold;
  stats::LatencyHistogram histogram;
  double seconds = 0.0;
  bool drained_all = false;
};

// One complete run: `ops` open-loop requests from a single producer (the
// determinism precondition) against either the fixed construction
// (strategy == nullptr) or the optimized strategy.
RunOutcome drive(const std::shared_ptr<const quorum::QuorumSystem>& sys,
                 const std::shared_ptr<const quorum::Strategy>& strategy,
                 std::uint32_t workers, std::uint64_t ops,
                 std::uint64_t seed) {
  serve::KvService::Config cfg;
  cfg.shards = kShards;
  cfg.workers = workers;
  if (strategy != nullptr) {
    cfg.strategy = strategy;
  } else {
    cfg.quorums = sys;
  }
  cfg.seed = seed;
  serve::KvService service(cfg);

  workload::OpenLoopSpec spec;
  spec.keys = kKeys;
  spec.zipf_exponent = 0.99;
  spec.read_fraction = 0.75;
  workload::OpenLoopGenerator gen(spec, seed ^ 0xa02bdbf7bb3c0a7ULL);

  workload::Operation op;
  serve::Request req;
  const auto t0 = std::chrono::steady_clock::now();
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
  const auto t1 = std::chrono::steady_clock::now();

  RunOutcome out;
  out.aggregates = service.aggregates();
  out.fold = service.fold_aggregates();
  out.histogram = service.merged_histogram();
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  const std::uint64_t expected_draws = strategy != nullptr ? ops : 0;
  out.drained_all = out.histogram.count() == ops &&
                    out.fold.reads + out.fold.writes == ops &&
                    out.fold.strategy_draws == expected_draws;
  return out;
}

// ---- measured-vs-predicted epsilon ----------------------------------------

struct StalenessRun {
  std::uint64_t pairs = 0;
  std::uint64_t stale = 0;
  std::uint64_t draw_checksum = 0;

  bool operator==(const StalenessRun& o) const {
    return pairs == o.pairs && stale == o.stale &&
           draw_checksum == o.draw_checksum;
  }
};

StalenessRun epsilon_shard(const std::shared_ptr<const quorum::Strategy>& s,
                           std::uint64_t pairs, std::uint64_t seed) {
  replica::InstantCluster::Config cfg;
  cfg.strategy = s;
  cfg.seed = seed;
  replica::InstantCluster cluster(cfg);
  StalenessRun run;
  run.pairs = pairs;
  replica::WriteResult w;
  replica::ReadResult r;
  std::int64_t value = 0;
  for (std::uint64_t i = 0; i < pairs; ++i) {
    cluster.write_into(w, /*variable=*/1, ++value);
    cluster.read_into(r, 1);
    if (!r.selection.has_value || r.selection.record.value != value) {
      ++run.stale;
    }
  }
  run.draw_checksum = cluster.strategy_draw_stats().checksum;
  return run;
}

std::vector<StalenessRun> epsilon_shards(
    const std::shared_ptr<const quorum::Strategy>& s,
    std::uint64_t pairs_per_shard, std::uint32_t shards, unsigned threads) {
  std::vector<StalenessRun> runs(shards);
  util::WorkerPool pool(threads);
  pool.run(shards, [&](std::uint64_t shard) {
    runs[shard] = epsilon_shard(s, pairs_per_shard,
                                /*seed=*/211 + 1000003 * shard);
  });
  return runs;
}

struct EpsilonPoint {
  std::uint64_t pairs = 0;
  std::uint64_t stale = 0;
  double measured = 0.0;
  double predicted = 0.0;  // the strategy's predicted_epsilon(0)
  double bound = 0.0;      // (1 + gamma) * dominating rate, Chernoff margin
};

// gamma sized so that P(Binomial(N, eps) > (1+gamma) N eps) <= 1e-9 by
// the multiplicative Chernoff bound (math/chernoff.h).
double margin_gamma(double mu) {
  return std::sqrt(4.0 * std::log(2e9) / mu);
}

EpsilonPoint epsilon_check(const std::shared_ptr<const quorum::Strategy>& s,
                           std::uint64_t pairs_per_shard, unsigned threads,
                           bool& ok) {
  constexpr std::uint32_t kEpsShards = 8;
  EpsilonPoint p;
  p.predicted = s->predicted_epsilon(0.0);
  StalenessRun total;
  for (const StalenessRun& r :
       epsilon_shards(s, pairs_per_shard, kEpsShards, threads)) {
    total.pairs += r.pairs;
    total.stale += r.stale;
  }
  p.pairs = total.pairs;
  p.stale = total.stale;
  p.measured =
      static_cast<double>(total.stale) / static_cast<double>(total.pairs);
  // Stale reads are dominated by Binomial(N, predicted); when the
  // optimizer lands on an (almost) always-intersecting support the floor
  // keeps the margin meaningful — still a valid dominating rate.
  const double rate = std::max(
      p.predicted, 64.0 / static_cast<double>(total.pairs));
  const double mu = static_cast<double>(total.pairs) * rate;
  const double gamma = margin_gamma(mu);
  p.bound = (1.0 + gamma) * rate;
  if (math::chernoff_upper(mu, gamma) > 1e-9 || p.measured > p.bound) {
    std::printf("MISMATCH: measured stale rate %.6g exceeds the "
                "predicted-epsilon bound %.6g (predicted %.6g)\n",
                p.measured, p.bound, p.predicted);
    ok = false;
  }

  // The measurement is a replay: per-shard results (stale counts and the
  // strategy draw checksum) bit-identical across {1, 8} threads.
  const std::uint64_t replay_pairs =
      std::min<std::uint64_t>(pairs_per_shard, 2000);
  const auto reference = epsilon_shards(s, replay_pairs, kEpsShards, 1);
  for (const unsigned threads_check : {1u, 8u}) {
    const auto runs =
        epsilon_shards(s, replay_pairs, kEpsShards, threads_check);
    for (std::uint32_t shard = 0; shard < kEpsShards; ++shard) {
      if (!(runs[shard] == reference[shard])) {
        std::printf("MISMATCH: epsilon measurement diverged at threads=%u "
                    "shard=%u\n",
                    threads_check, shard);
        ok = false;
      }
    }
  }
  return p;
}

// ---- reporting ------------------------------------------------------------

struct SectionReport {
  std::string name;
  std::uint32_t workers = 0;
  RunOutcome outcome;
};

void write_json(const char* path, const std::vector<MixOutcome>& mixes,
                const std::vector<SectionReport>& sections,
                const EpsilonPoint& eps, std::uint64_t ops, bool ok) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write JSON report to %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"strategy_throughput\",\n"
               "  \"simd_kernel\": \"%s\",\n  \"universe\": %u,\n"
               "  \"quorum\": %u,\n"
               "  \"ops_per_section\": %" PRIu64 ",\n  \"ok\": %s,\n"
               "  \"mixes\": [\n",
               simd::active().name, kUniverse, kQuorum, ops,
               ok ? "true" : "false");
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    const MixOutcome& m = mixes[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"read_fraction\": %.6g, "
        "\"gated\": %s,\n"
        "     \"fixed_max_load\": %.6g, \"optimized_max_load\": %.6g,\n"
        "     \"predicted_epsilon\": %.6g, \"epsilon_ceiling\": %.6g}%s\n",
        m.mix.name.c_str(), m.mix.read_fraction,
        m.mix.gate_strict_win ? "true" : "false", m.fixed_max_load,
        m.optimized_max_load, m.predicted_epsilon, m.epsilon_ceiling,
        i + 1 < mixes.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"sections\": [\n");
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const SectionReport& s = sections[i];
    const RunOutcome& r = s.outcome;
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"shards\": %u, \"workers\": %u,\n"
        "     \"ops_per_sec\": %.6g,\n"
        "     \"p50_ns\": %" PRIu64 ", \"p99_ns\": %" PRIu64
        ", \"p999_ns\": %" PRIu64 ", \"max_ns\": %" PRIu64 ",\n"
        "     \"reads\": %" PRIu64 ", \"writes\": %" PRIu64
        ", \"stale_reads\": %" PRIu64 ", \"strategy_draws\": %" PRIu64
        "}%s\n",
        s.name.c_str(), kShards, s.workers,
        static_cast<double>(ops) / r.seconds, r.histogram.p50(),
        r.histogram.p99(), r.histogram.p999(), r.histogram.max(),
        r.fold.reads, r.fold.writes, r.fold.stale_reads,
        r.fold.strategy_draws, i + 1 < sections.size() ? "," : "");
  }
  std::fprintf(
      f,
      "  ],\n  \"epsilon\": {\"pairs\": %" PRIu64 ", \"stale\": %" PRIu64
      ",\n"
      "    \"measured_stale_rate\": %.6g, \"predicted_epsilon\": %.6g, "
      "\"chernoff_bound\": %.6g}\n}\n",
      eps.pairs, eps.stale, eps.measured, eps.predicted, eps.bound);
  std::fclose(f);
}

int main_impl(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv);
  const std::uint64_t ops = opts.samples_or(30000);
  unsigned workers = opts.threads;
  if (workers == 0) workers = std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;

  const auto sys =
      std::make_shared<core::RandomSubsetSystem>(kUniverse, kQuorum);

  std::printf(
      "strategy_throughput: %" PRIu64 " ops/section over %" PRIu64
      " keys, R(%u, %u) quorums, %u shards, workers=%u, simd=%s\n",
      ops, kKeys, kUniverse, kQuorum, kShards, workers, simd::active().name);

  bool ok = true;

  // Experiment 1: the optimizer against the fixed construction.
  std::vector<MixOutcome> mixes;
  for (const MixSpec& mix : make_mixes()) {
    MixOutcome out = optimize_mix(sys, mix);
    if (mix.gate_strict_win &&
        !(out.optimized_max_load < out.fixed_max_load)) {
      std::printf("MISMATCH: mix %s optimized max load %.6g is not below "
                  "the fixed construction's %.6g\n",
                  mix.name.c_str(), out.optimized_max_load,
                  out.fixed_max_load);
      ok = false;
    }
    if (out.predicted_epsilon > out.epsilon_ceiling + 1e-9) {
      std::printf("MISMATCH: mix %s predicted epsilon %.6g exceeds the "
                  "ceiling %.6g\n",
                  mix.name.c_str(), out.predicted_epsilon,
                  out.epsilon_ceiling);
      ok = false;
    }
    std::printf(
        "[mix] name=%-16s fr=%.2f fixed_max=%.4f optimized_max=%.4f "
        "eps=%.3e ceiling=%.3e\n",
        mix.name.c_str(), mix.read_fraction, out.fixed_max_load,
        out.optimized_max_load, out.predicted_epsilon, out.epsilon_ceiling);
    mixes.push_back(std::move(out));
  }
  // The serving and epsilon experiments deploy the first gated mix.
  std::shared_ptr<const quorum::Strategy> deployed;
  for (const MixOutcome& m : mixes) {
    if (m.mix.gate_strict_win) {
      deployed = m.strategy;
      break;
    }
  }

  // Experiment 2: serving-tier throughput, fixed vs optimized, with the
  // four-run bit-identity gate per section.
  std::vector<SectionReport> sections;
  const std::vector<std::pair<std::string,
                              std::shared_ptr<const quorum::Strategy>>>
      section_specs = {{"fixed", nullptr}, {"optimized", deployed}};
  for (std::size_t i = 0; i < section_specs.size(); ++i) {
    const auto& [name, strategy] = section_specs[i];
    const std::uint64_t seed = 0x57aULL + 131 * i;
    const RunOutcome timed = drive(sys, strategy, workers, ops, seed);
    const RunOutcome w1 = drive(sys, strategy, 1, ops, seed);
    const RunOutcome w8 = drive(sys, strategy, 8, ops, seed);
    if (!(timed.aggregates == w1.aggregates) ||
        !(timed.aggregates == w8.aggregates)) {
      std::printf("MISMATCH: %s shard aggregates differ across worker "
                  "counts\n",
                  name.c_str());
      ok = false;
    }
    if (!timed.drained_all || !w1.drained_all || !w8.drained_all) {
      std::printf("MISMATCH: %s lost requests or strategy draws in the "
                  "drain\n",
                  name.c_str());
      ok = false;
    }
    std::printf(
        "[serve] section=%-10s workers=%u ops/sec=%.3g p50=%.1fus "
        "p99=%.1fus draws=%" PRIu64 " stale=%" PRIu64 "\n",
        name.c_str(), workers, static_cast<double>(ops) / timed.seconds,
        static_cast<double>(timed.histogram.p50()) / 1000.0,
        static_cast<double>(timed.histogram.p99()) / 1000.0,
        timed.fold.strategy_draws, timed.fold.stale_reads);
    sections.push_back({name, workers, timed});
  }

  // Experiment 3: measured vs predicted epsilon for the deployed strategy.
  const EpsilonPoint eps = epsilon_check(deployed, ops, workers, ok);
  std::printf(
      "[epsilon] pairs=%" PRIu64 " measured=%.6f predicted=%.6f bound=%.6f\n",
      eps.pairs, eps.measured, eps.predicted, eps.bound);

  if (!opts.json.empty()) {
    write_json(opts.json.c_str(), mixes, sections, eps, ops, ok);
  }

  std::printf(ok ? "OK: optimized strategy beats the fixed construction on "
                   "every skewed mix; aggregates bit-identical; stale rate "
                   "within the predicted-epsilon bound\n"
                 : "FAILED: see mismatches above\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace pqs

int main(int argc, char** argv) { return pqs::main_impl(argc, argv); }
