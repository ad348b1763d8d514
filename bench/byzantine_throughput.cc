// Serving-tier throughput under Byzantine read rules and injected server
// faults, and the masking-quorum fabrication epsilon measured against its
// closed form (Lemma 5.7).
//
// Three experiments share the binary:
//
//   * an honest-path overhead sweep over serve::KvService — 4 static
//     shards of R(64, 16) quorums serve the same zipf request stream
//     under plain, dissemination (MAC-verified), and masking
//     (k = ceil(q^2 / 2n) voucher) read rules with zero faulty servers —
//     reporting ops/sec and tail latency per rule plus the overhead
//     ratio vs plain, so CI can see what Byzantine tolerance costs an
//     honest deployment. Every section is also a functional gate: the
//     per-shard aggregates re-run with {1, 8} workers and must agree bit
//     for bit, and the Byzantine counters (rejected_forgeries,
//     masked_reads) must be exactly zero under plain and dissemination
//     (masking rejects sub-k groups of honest stale replies too — by
//     design — so its counters are reported, not zero-gated).
//
//   * a live fault-injection run — the masking section re-runs with b =
//     4 servers flipped to kCollude through KvService::submit_fault
//     mid-stream (and healed with kCorrect later), so the fault flips
//     ride the shard rings at definite FIFO positions exactly like churn
//     events. The run must stay bit-identical across worker counts, apply
//     every flip, and show the masking rule working:
//     rejected_forgeries > 0 while the colluders are live.
//
//   * a fabrication-epsilon sweep over replica::InstantCluster — for
//     each b in {0, 1, b_max/2, b_max}, shards of write/read pairs
//     against a cluster whose first b servers collude on an
//     astronomically fresh forged record measure (a) the fabricated-
//     acceptance rate, gated by core::fabrication_epsilon_exact — the
//     hypergeometric tail P(|Q cap B| >= k) of Lemma 5.7 — plus a
//     multiplicative Chernoff margin sized for failure probability <=
//     1e-9, and (b) the total failed-read rate, gated the same way by
//     core::masking_epsilon_exact (Definition 5.1). Acceptance of the
//     forgery requires >= k colluders in the read quorum (every honest
//     group with >= k vouchers has a lower timestamp only when the fresh
//     write group falls under k), so both measured rates are contained
//     in their predicted events — the gates re-check the paper's bound
//     on the deployed stack at bench scale. b = 1 < k is a structural
//     zero: the bench asserts zero fabrications outright. The batched
//     Monte Carlo estimator (core::estimate_fabrication_epsilon) runs
//     alongside and must bracket the closed form in its Wilson interval.
//     A fixed-schedule replay across {1, 8} threads gates bit-identity of
//     the measurement itself.
//
// Flags: --threads=N (shard-serving workers for the timed runs, 0 =
// hardware), --samples=N (requests per section and pairs per epsilon
// shard; default 30000), --json=PATH (machine-readable report — CI
// archives it as BENCH_byzantine.json and gates it with
// bench/check_byzantine_regression.py).
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
#include "core/monte_carlo.h"
#include "core/random_subset_system.h"
#include "math/chernoff.h"
#include "math/rng.h"
#include "replica/fault.h"
#include "replica/instant_cluster.h"
#include "serve/kv_service.h"
#include "simd/kernels.h"
#include "stats/latency_histogram.h"
#include "util/worker_pool.h"
#include "workload/open_loop.h"

namespace pqs {
namespace {

using replica::ReadMode;

constexpr std::uint32_t kUniverse = 64;  // R(64, 16) per shard
constexpr std::uint32_t kQuorum = 16;
constexpr std::uint64_t kKeys = 4096;
constexpr std::uint32_t kShards = 4;
constexpr std::uint32_t kColluders = 4;  // b_max for the live section

// The masking voucher threshold k = ceil(q^2 / 2n) (Section 5): the
// smallest k with 2 q - n - b >= k still feasible at these parameters.
std::uint32_t masking_k() {
  return static_cast<std::uint32_t>(core::masking_threshold(kUniverse,
                                                            kQuorum));
}

// ---- read-rule throughput + live fault injection ---------------------------

// When inject_at > 0, servers {0..colluders-1} on every shard flip to
// kCollude after request inject_at and heal (kCorrect) after heal_at.
struct FaultScript {
  std::uint32_t colluders = 0;
  std::uint64_t inject_at = 0;
  std::uint64_t heal_at = 0;

  std::uint64_t expected_events() const {
    return inject_at == 0 ? 0
                          : static_cast<std::uint64_t>(kShards) * colluders *
                                (heal_at > 0 ? 2 : 1);
  }
};

struct SectionSpec {
  std::string name;
  ReadMode mode = ReadMode::kPlain;
  FaultScript faults;
};

std::vector<SectionSpec> make_sections(std::uint64_t ops) {
  std::vector<SectionSpec> sections = {
      {"plain", ReadMode::kPlain, {}},
      {"dissemination", ReadMode::kDissemination, {}},
      {"masking", ReadMode::kMasking, {}},
  };
  // The adversarial run: colluders live for the middle half of the
  // stream, so the aggregates cover honest, adversarial, and healed
  // regimes in one deterministic subsequence.
  sections.push_back({"masking_live_b4",
                      ReadMode::kMasking,
                      {kColluders, ops / 4, (3 * ops) / 4}});
  return sections;
}

struct RunOutcome {
  std::vector<serve::ShardAggregate> aggregates;  // the bit-identity payload
  serve::ShardAggregate fold;
  stats::LatencyHistogram histogram;
  double seconds = 0.0;
  bool drained_all = false;
};

// One complete run: a single producer drives the service with the same
// generated stream every time; fault flips are interleaved at fixed
// request indices, so each shard's subsequence of requests and flips is
// a pure function of (ops, seed, script) — the determinism precondition.
RunOutcome drive(const std::shared_ptr<const quorum::QuorumSystem>& sys,
                 const SectionSpec& section, std::uint32_t workers,
                 std::uint64_t ops, std::uint64_t seed) {
  serve::KvService::Config cfg;
  cfg.shards = kShards;
  cfg.workers = workers;
  cfg.quorums = sys;
  cfg.seed = seed;
  cfg.read_mode = section.mode;
  cfg.read_threshold = section.mode == ReadMode::kMasking ? masking_k() : 1;
  serve::KvService service(cfg);

  workload::OpenLoopSpec spec;
  spec.keys = kKeys;
  spec.zipf_exponent = 0.99;
  spec.read_fraction = 0.5;
  workload::OpenLoopGenerator gen(spec, seed ^ 0xa02bdbf7bb3c0a7ULL);

  const FaultScript& script = section.faults;
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
    if (script.inject_at != 0 && i + 1 == script.inject_at) {
      for (std::uint32_t s = 0; s < kShards; ++s) {
        for (std::uint32_t slot = 0; slot < script.colluders; ++slot) {
          service.submit_fault(s, serve::FaultKind::kCollude, slot);
        }
      }
    }
    if (script.heal_at != 0 && i + 1 == script.heal_at) {
      for (std::uint32_t s = 0; s < kShards; ++s) {
        for (std::uint32_t slot = 0; slot < script.colluders; ++slot) {
          service.submit_fault(s, serve::FaultKind::kCorrect, slot);
        }
      }
    }
  }
  service.stop_and_drain();
  const auto t1 = std::chrono::steady_clock::now();

  RunOutcome out;
  out.aggregates = service.aggregates();
  out.fold = service.fold_aggregates();
  out.histogram = service.merged_histogram();
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.drained_all = out.histogram.count() == ops &&
                    out.fold.reads + out.fold.writes == ops &&
                    out.fold.fault_events == script.expected_events();
  return out;
}

// ---- fabrication-epsilon sweep --------------------------------------------

struct ByzantineRun {
  std::uint64_t pairs = 0;
  std::uint64_t fabricated = 0;  // read returned the colluders' forgery
  std::uint64_t failures = 0;    // read != the value just written (or bot)

  bool operator==(const ByzantineRun& o) const {
    return pairs == o.pairs && fabricated == o.fabricated &&
           failures == o.failures;
  }
};

// One shard of the epsilon measurement: write/read pairs under masking
// against a cluster whose first b servers collude on the shared forged
// record. Fabricated iff the selection is the forged value; failed iff
// the selection is anything but the value just written.
ByzantineRun byzantine_shard(std::uint32_t b, std::uint64_t pairs,
                             std::uint64_t seed) {
  replica::InstantCluster::Config cfg;
  cfg.quorums = std::make_shared<core::RandomSubsetSystem>(kUniverse, kQuorum);
  cfg.mode = ReadMode::kMasking;
  cfg.read_threshold = masking_k();
  cfg.seed = seed;
  replica::InstantCluster cluster(
      cfg, replica::FaultPlan::prefix(kUniverse, b, replica::FaultMode::kCollude));
  const std::int64_t forged_value = replica::ColludePlan{}.value;
  ByzantineRun run;
  run.pairs = pairs;
  replica::WriteResult w;
  replica::ReadResult r;
  std::int64_t value = 0;
  for (std::uint64_t i = 0; i < pairs; ++i) {
    cluster.write_into(w, /*variable=*/1, ++value);
    cluster.read_into(r, 1);
    const bool got_value = r.selection.has_value;
    if (got_value && r.selection.record.value == forged_value) {
      ++run.fabricated;
    }
    if (!got_value || r.selection.record.value != value) {
      ++run.failures;
    }
  }
  return run;
}

std::vector<ByzantineRun> byzantine_shards(std::uint32_t b,
                                           std::uint64_t pairs_per_shard,
                                           std::uint32_t shards,
                                           unsigned threads) {
  std::vector<ByzantineRun> runs(shards);
  util::WorkerPool pool(threads);
  pool.run(shards, [&](std::uint64_t s) {
    runs[s] = byzantine_shard(b, pairs_per_shard,
                              /*seed=*/211 + 1000003 * s);
  });
  return runs;
}

struct SweepPoint {
  std::uint32_t b = 0;
  std::uint64_t pairs = 0;
  std::uint64_t fabricated = 0;
  std::uint64_t failures = 0;
  double fab_measured = 0.0;
  double fab_exact = 0.0;      // fabrication_epsilon_exact (Lemma 5.7)
  double fab_estimated = 0.0;  // estimate_fabrication_epsilon (Monte Carlo)
  double fab_bound = 0.0;      // (1 + gamma) * fab_exact, 0 when exact = 0
  double fail_measured = 0.0;
  double fail_exact = 0.0;  // masking_epsilon_exact (Definition 5.1)
  double fail_bound = 0.0;  // (1 + gamma) * fail_exact
};

// gamma sized so that P(Binomial(N, eps) > (1+gamma) N eps) <= 1e-9 by
// the multiplicative Chernoff bound (math/chernoff.h) — the conformance
// test's margin, recomputed at this run's sample size.
double margin_gamma(double mu) {
  return std::sqrt(4.0 * std::log(2e9) / mu);
}

// Gates `count` successes over `pairs` trials against predicted rate
// `exact` plus the Chernoff margin; a structurally impossible event
// (exact = 0) must not occur at all. Returns the bound used.
double gate_rate(const char* what, std::uint32_t b, std::uint64_t count,
                 std::uint64_t pairs, double exact, bool& ok) {
  if (exact == 0.0) {
    if (count != 0) {
      std::printf("MISMATCH: b=%u saw %" PRIu64
                  " %s reads where the closed form says zero\n",
                  b, count, what);
      ok = false;
    }
    return 0.0;
  }
  const double mu = static_cast<double>(pairs) * exact;
  const double gamma = margin_gamma(mu);
  const double bound = (1.0 + gamma) * exact;
  const double measured = static_cast<double>(count) /
                          static_cast<double>(pairs);
  if (math::chernoff_upper(mu, gamma) > 1e-9 || measured > bound) {
    std::printf("MISMATCH: b=%u measured %s rate %.6g exceeds bound %.6g "
                "(predicted %.6g)\n",
                b, what, measured, bound, exact);
    ok = false;
  }
  return bound;
}

std::vector<SweepPoint> byzantine_sweep(std::uint64_t pairs_per_shard,
                                        unsigned threads, bool& ok) {
  constexpr std::uint32_t kEpsShards = 8;
  const std::uint32_t k = masking_k();
  const auto sys =
      std::make_shared<core::RandomSubsetSystem>(kUniverse, kQuorum);
  std::vector<SweepPoint> points;
  for (const std::uint32_t b : {0u, 1u, kColluders / 2, kColluders}) {
    SweepPoint p;
    p.b = b;
    p.fab_exact = core::fabrication_epsilon_exact(kUniverse, kQuorum, b, k);
    p.fail_exact = core::masking_epsilon_exact(kUniverse, kQuorum, b, k);

    // Monte Carlo cross-check of the closed form on single quorum draws:
    // the Wilson interval at z = 6 must bracket the hypergeometric tail.
    math::Rng est_rng(0xfab0 + b);
    const math::Proportion est = core::estimate_fabrication_epsilon(
        *sys, b, k, /*samples=*/200000, est_rng);
    p.fab_estimated = est.estimate();
    if (!est.wilson(6.0).contains(p.fab_exact)) {
      std::printf("MISMATCH: b=%u Monte Carlo fabrication epsilon %.6g "
                  "outside the Wilson interval around the closed form "
                  "%.6g\n",
                  b, p.fab_estimated, p.fab_exact);
      ok = false;
    }

    ByzantineRun total;
    for (const ByzantineRun& r :
         byzantine_shards(b, pairs_per_shard, kEpsShards, threads)) {
      total.pairs += r.pairs;
      total.fabricated += r.fabricated;
      total.failures += r.failures;
    }
    p.pairs = total.pairs;
    p.fabricated = total.fabricated;
    p.failures = total.failures;
    p.fab_measured = static_cast<double>(total.fabricated) /
                     static_cast<double>(total.pairs);
    p.fail_measured = static_cast<double>(total.failures) /
                      static_cast<double>(total.pairs);
    p.fab_bound =
        gate_rate("fabricated", b, total.fabricated, total.pairs,
                  p.fab_exact, ok);
    p.fail_bound =
        gate_rate("failed", b, total.failures, total.pairs, p.fail_exact,
                  ok);
    points.push_back(p);
  }

  // The measurement is a replay: per-shard results bit-identical across
  // {1, 8} threads at the most adversarial point.
  const std::uint64_t replay_pairs =
      std::min<std::uint64_t>(pairs_per_shard, 2000);
  const auto reference =
      byzantine_shards(kColluders, replay_pairs, kEpsShards, 1);
  for (const unsigned threads_check : {1u, 8u}) {
    const auto runs =
        byzantine_shards(kColluders, replay_pairs, kEpsShards, threads_check);
    for (std::uint32_t s = 0; s < kEpsShards; ++s) {
      if (!(runs[s] == reference[s])) {
        std::printf("MISMATCH: byzantine measurement diverged at "
                    "threads=%u shard=%u\n",
                    threads_check, s);
        ok = false;
      }
    }
  }
  return points;
}

// ---- reporting ------------------------------------------------------------

struct SectionReport {
  SectionSpec section;
  std::uint32_t workers = 0;
  RunOutcome timed;
};

void write_json(const char* path, const std::vector<SectionReport>& sections,
                const std::vector<SweepPoint>& sweep, std::uint64_t ops,
                bool ok) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write JSON report to %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"byzantine_throughput\",\n"
               "  \"simd_kernel\": \"%s\",\n  \"universe\": %u,\n"
               "  \"quorum\": %u,\n  \"masking_k\": %u,\n"
               "  \"ops_per_section\": %" PRIu64 ",\n  \"ok\": %s,\n"
               "  \"sections\": [\n",
               simd::active().name, kUniverse, kQuorum, masking_k(), ops,
               ok ? "true" : "false");
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const SectionReport& s = sections[i];
    const RunOutcome& r = s.timed;
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"shards\": %u, \"workers\": %u,\n"
        "     \"ops_per_sec\": %.6g,\n"
        "     \"p50_ns\": %" PRIu64 ", \"p99_ns\": %" PRIu64
        ", \"p999_ns\": %" PRIu64 ", \"max_ns\": %" PRIu64 ",\n"
        "     \"reads\": %" PRIu64 ", \"writes\": %" PRIu64
        ", \"stale_reads\": %" PRIu64 ", \"rejected_forgeries\": %" PRIu64
        ",\n     \"masked_reads\": %" PRIu64 ", \"bot_reads\": %" PRIu64
        ", \"fault_events\": %" PRIu64 "}%s\n",
        s.section.name.c_str(), kShards, s.workers,
        static_cast<double>(ops) / r.seconds, r.histogram.p50(),
        r.histogram.p99(), r.histogram.p999(), r.histogram.max(),
        r.fold.reads, r.fold.writes, r.fold.stale_reads,
        r.fold.rejected_forgeries, r.fold.masked_reads, r.fold.bot_reads,
        r.fold.fault_events, i + 1 < sections.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"byzantine_sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    std::fprintf(
        f,
        "    {\"b\": %u, \"pairs\": %" PRIu64 ", \"fabricated\": %" PRIu64
        ", \"failures\": %" PRIu64 ",\n"
        "     \"fabricated_rate\": %.6g, \"fabrication_epsilon\": %.6g, "
        "\"fabrication_estimate\": %.6g, \"fabrication_bound\": %.6g,\n"
        "     \"failure_rate\": %.6g, \"masking_epsilon\": %.6g, "
        "\"failure_bound\": %.6g}%s\n",
        p.b, p.pairs, p.fabricated, p.failures, p.fab_measured, p.fab_exact,
        p.fab_estimated, p.fab_bound, p.fail_measured, p.fail_exact,
        p.fail_bound, i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
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
      "byzantine_throughput: %" PRIu64 " ops/section over %" PRIu64
      " keys, R(%u, %u) quorums, masking k=%u, %u shards, workers=%u, "
      "simd=%s\n",
      ops, kKeys, kUniverse, kQuorum, masking_k(), kShards, workers,
      simd::active().name);

  bool ok = true;
  std::vector<SectionReport> reports;
  double plain_ops_per_sec = 0.0;
  for (const SectionSpec& section : make_sections(ops)) {
    const std::uint64_t seed =
        0xb52u + 131 * static_cast<std::uint64_t>(reports.size());
    const RunOutcome timed = drive(sys, section, workers, ops, seed);
    const RunOutcome w1 = drive(sys, section, 1, ops, seed);
    const RunOutcome w8 = drive(sys, section, 8, ops, seed);
    if (!(timed.aggregates == w1.aggregates) ||
        !(timed.aggregates == w8.aggregates)) {
      std::printf("MISMATCH: %s shard aggregates differ across worker "
                  "counts\n",
                  section.name.c_str());
      ok = false;
    }
    if (!timed.drained_all || !w1.drained_all || !w8.drained_all) {
      std::printf("MISMATCH: %s lost requests or fault events in the "
                  "drain\n",
                  section.name.c_str());
      ok = false;
    }
    const bool adversarial = section.faults.inject_at != 0;
    // Plain and dissemination reject nothing on an honest fleet (every
    // MAC verifies). Masking legitimately rejects even honest replies:
    // servers outside recent write quorums hold older timestamps, and a
    // sub-k group of them is indistinguishable from a forgery — that
    // conservatism is the rule, so it is reported, not gated.
    if (!adversarial && section.mode != ReadMode::kMasking &&
        (timed.fold.rejected_forgeries != 0 ||
         timed.fold.masked_reads != 0)) {
      std::printf("MISMATCH: %s counted rejections on an honest fleet\n",
                  section.name.c_str());
      ok = false;
    }
    if (adversarial && timed.fold.rejected_forgeries == 0) {
      std::printf("MISMATCH: %s flipped %u colluders but the masking rule "
                  "rejected nothing\n",
                  section.name.c_str(), section.faults.colluders);
      ok = false;
    }
    const double ops_per_sec = static_cast<double>(ops) / timed.seconds;
    if (section.mode == ReadMode::kPlain) plain_ops_per_sec = ops_per_sec;
    std::printf(
        "[serve] section=%-16s workers=%u ops/sec=%.3g p50=%.1fus "
        "p99=%.1fus vs_plain=%.2fx rejected=%" PRIu64 " masked=%" PRIu64
        " bot=%" PRIu64 " faults=%" PRIu64 "\n",
        section.name.c_str(), workers, ops_per_sec,
        static_cast<double>(timed.histogram.p50()) / 1000.0,
        static_cast<double>(timed.histogram.p99()) / 1000.0,
        plain_ops_per_sec > 0.0 ? ops_per_sec / plain_ops_per_sec : 1.0,
        timed.fold.rejected_forgeries, timed.fold.masked_reads,
        timed.fold.bot_reads, timed.fold.fault_events);
    reports.push_back({section, workers, timed});
  }

  const std::vector<SweepPoint> sweep = byzantine_sweep(ops, workers, ok);
  for (const SweepPoint& p : sweep) {
    std::printf(
        "[epsilon] b=%u pairs=%" PRIu64
        " fabricated=%.6f (exact %.6f, mc %.6f, bound %.6f) "
        "failed=%.6f (exact %.6f, bound %.6f)\n",
        p.b, p.pairs, p.fab_measured, p.fab_exact, p.fab_estimated,
        p.fab_bound, p.fail_measured, p.fail_exact, p.fail_bound);
  }

  if (!opts.json.empty()) {
    write_json(opts.json.c_str(), reports, sweep, ops, ok);
  }

  std::printf(ok ? "OK: aggregates bit-identical across worker counts; "
                   "fabrication and failure rates within their "
                   "masking-epsilon bounds\n"
                 : "FAILED: see mismatches above\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace pqs

int main(int argc, char** argv) { return pqs::main_impl(argc, argv); }
