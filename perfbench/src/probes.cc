#include "probes.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "core/estimator.h"
#include "core/monte_carlo.h"
#include "crypto/mac.h"
#include "math/bernoulli.h"
#include "math/rng.h"
#include "math/sampling.h"
#include "net/client.h"
#include "net/kv_server.h"
#include "quorum/bitset.h"
#include "quorum/mask_batch.h"
#include "replica/instant_cluster.h"
#include "serve/kv_service.h"
#include "simd/kernels.h"
#include "stats/latency_histogram.h"
#include "trace.h"
#include "util/worker_pool.h"
#include "workload/open_loop.h"

namespace pqsbench {

namespace {

// Keeps a computed value alive so the timed loop is not optimized away.
volatile std::uint64_t g_sink = 0;

// Times `calls` invocations of fn(i) as one span; returns ns per call.
template <typename Fn>
double per_call_ns(const char* span_name, std::uint64_t calls, Fn&& fn) {
  Tracer::Scope span(span_name);
  const std::uint64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < calls; ++i) fn(i);
  return static_cast<double>(now_ns() - t0) / static_cast<double>(calls);
}

// replica: a single-threaded replay of the workload's inputs on one
// InstantCluster, timing and counting each write_into/read_into call.
// Runs first so that its resident-memory growth is not hidden by memory
// freed earlier in the process.
void probe_replica(const KvSpec& spec, std::uint64_t seed,
                   RunResult& result) {
  Tracer::Scope span("probe.replica");
  const auto ops =
      generate(spec, seed, std::min<std::uint64_t>(spec.throughput_ops, 40000))
          .ops;
  pqs::replica::InstantCluster::Config cfg;
  cfg.quorums = spec.quorums;
  cfg.mode = spec.read_mode;
  cfg.read_threshold = static_cast<std::uint32_t>(spec.k);
  cfg.seed = seed;
  const auto faults = spec.faults();
  auto cluster =
      faults ? std::make_unique<pqs::replica::InstantCluster>(cfg, *faults)
             : std::make_unique<pqs::replica::InstantCluster>(cfg);
  pqs::replica::WriteResult w;
  pqs::replica::ReadResult r;
  std::uint64_t write_ns = 0, read_ns = 0, writes = 0, reads = 0;
  std::uint64_t write_allocs = 0, read_allocs = 0, rejected = 0, records = 0;
  const std::uint64_t rss_before = peak_rss_bytes();
  for (const auto& op : ops) {
    const std::uint64_t allocs_before =
        AllocCounter::count.load(std::memory_order_relaxed);
    AllocCounter::enabled.store(true, std::memory_order_relaxed);
    const std::uint64_t t0 = now_ns();
    if (op.is_read) {
      cluster->read_into(r, op.key);
    } else {
      cluster->write_into(w, op.key, op.value);
    }
    const std::uint64_t t1 = now_ns();
    AllocCounter::enabled.store(false, std::memory_order_relaxed);
    const std::uint64_t allocs =
        AllocCounter::count.load(std::memory_order_relaxed) - allocs_before;
    if (op.is_read) {
      read_ns += t1 - t0;
      read_allocs += allocs;
      rejected += r.selection.rejected;
      ++reads;
    } else {
      write_ns += t1 - t0;
      write_allocs += allocs;
      records += w.quorum.size();
      ++writes;
    }
  }
  const std::uint64_t rss_after = peak_rss_bytes();
  const auto per = [](std::uint64_t total, std::uint64_t n) {
    return n == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(n);
  };
  result.add("replica.write_ns", per(write_ns, writes), "ns");
  result.add("replica.read_ns", per(read_ns, reads), "ns");
  result.add("replica.allocs_per_write", per(write_allocs, writes), "count");
  result.add("replica.allocs_per_read", per(read_allocs, reads), "count");
  result.add("replica.rss_bytes_per_record",
             per(rss_after - rss_before, records), "bytes");
  result.add("replica.rejected_per_read", per(rejected, reads), "count");
}

void probe_primitives(const KvSpec& spec, std::uint64_t seed,
                      RunResult& result) {
  const auto n = static_cast<std::uint32_t>(spec.n);
  const auto q = static_cast<std::uint32_t>(spec.q);
  pqs::math::Rng rng(seed);
  {
    pqs::workload::OpenLoopGenerator gen(spec.mix, seed);
    pqs::workload::Operation op;
    result.add("workload.generate_ns",
               per_call_ns("probe.workload.generate", 200000,
                           [&](std::uint64_t) {
                             gen.next(op);
                             g_sink = g_sink + op.key;
                           }),
               "ns");
  }
  {
    pqs::stats::LatencyHistogram h;
    std::uint64_t x = seed | 1;
    result.add("stats.histogram_record_ns",
               per_call_ns("probe.stats.record", 2000000,
                           [&](std::uint64_t) {
                             x ^= x << 13;
                             x ^= x >> 7;
                             x ^= x << 17;
                             h.record(x >> 44);  // up to ~1 ms in ns
                           }),
               "ns");
    g_sink = g_sink + h.count();
  }
  pqs::quorum::QuorumBitset mask(n);
  result.add("quorum.sample_mask_ns",
             per_call_ns("probe.quorum.sample_mask", 200000,
                         [&](std::uint64_t) {
                           spec.quorums->sample_mask(mask, rng);
                         }),
             "ns");
  {
    constexpr std::size_t kChunk = 16;
    pqs::quorum::MaskBatch batch(n, kChunk);
    result.add("quorum.sample_masks_ns_per_mask",
               per_call_ns("probe.quorum.sample_masks", 12500,
                           [&](std::uint64_t) {
                             spec.quorums->sample_masks(batch.masks(), kChunk,
                                                        rng);
                           }) /
                   kChunk,
               "ns");
  }
  {
    std::vector<std::uint64_t> words((n + 63) / 64);
    result.add("math.sample_bits_ns",
               per_call_ns("probe.math.sample_bits", 200000,
                           [&](std::uint64_t) {
                             std::fill(words.begin(), words.end(), 0);
                             pqs::math::sample_without_replacement_bits(
                                 n, q, rng, words.data());
                           }),
               "ns");
  }
  {
    const auto signer = pqs::crypto::Signer::from_seed(seed);
    result.add("crypto.sign_ns",
               per_call_ns("probe.crypto.sign", 1000000,
                           [&](std::uint64_t i) {
                             g_sink = g_sink +
                                      signer.sign(i, static_cast<std::int64_t>(i),
                                                  i + 1, 0)
                                          .tag;
                           }),
               "ns");
  }
  const pqs::simd::Kernels& k = pqs::simd::active();
  {
    pqs::quorum::QuorumBitset other(n);
    spec.quorums->sample_mask(mask, rng);
    spec.quorums->sample_mask(other, rng);
    result.add("simd.and_popcount_ns",
               per_call_ns("probe.simd.and_popcount", 2000000,
                           [&](std::uint64_t) {
                             g_sink = g_sink + k.and_popcount(
                                                   mask.words(), other.words(),
                                                   mask.word_count());
                           }),
               "ns");
  }
  {
    const pqs::math::BernoulliBlockSampler sampler(0.3);
    const pqs::simd::BernoulliSpec bspec = sampler.spec();
    std::vector<std::uint64_t> words(1024);
    result.add("simd.bernoulli_fill_ns",
               per_call_ns("probe.simd.bernoulli_fill", 1000,
                           [&](std::uint64_t i) {
                             k.bernoulli_fill(words.data(), words.size(), bspec,
                                              seed + i);
                             g_sink = g_sink + words[i % words.size()];
                           }) /
                   static_cast<double>(words.size()),
               "ns");
  }
  {
    constexpr std::size_t kMasks = 255;
    pqs::quorum::MaskBatch batch(n, kMasks);
    spec.quorums->sample_masks(batch.masks(), kMasks, rng);
    std::vector<std::uint64_t> counts(64 * batch.words_per_mask(), 0);
    result.add("simd.column_accumulate_ns_per_mask",
               per_call_ns("probe.simd.column_accumulate", 4000,
                           [&](std::uint64_t) {
                             k.batch_column_accumulate(
                                 batch.words(), batch.words_per_mask(), kMasks,
                                 batch.words_per_mask(), counts.data());
                           }) /
                   kMasks,
               "ns");
    g_sink = g_sink + counts[0];
  }
  {
    pqs::util::WorkerPool pool(2);
    std::atomic<std::uint64_t> ran{0};
    result.add("util.pool_dispatch_us",
               per_call_ns("probe.util.pool_run", 2000,
                           [&](std::uint64_t) {
                             pool.run(2, [&](std::uint64_t) {
                               ran.fetch_add(1, std::memory_order_relaxed);
                             });
                           }) *
                   1e-3,
               "us");
  }
  {
    pqs::core::Estimator engine(pqs::core::EstimatorOptions{1, 64});
    constexpr std::uint64_t kTrials = 1ULL << 17;
    result.add("core.pair_trial_ns",
               per_call_ns("probe.core.estimate_nonintersection", 1,
                           [&](std::uint64_t) {
                             pqs::core::estimate_nonintersection(
                                 *spec.quorums, kTrials, rng, engine);
                           }) /
                   kTrials,
               "ns");
    result.add("core.failure_trial_ns",
               per_call_ns("probe.core.estimate_failure_probability", 1,
                           [&](std::uint64_t) {
                             pqs::core::estimate_failure_probability(
                                 *spec.quorums, 0.3, kTrials, rng, engine);
                           }) /
                   kTrials,
               "ns");
    result.add("core.load_trial_ns",
               per_call_ns("probe.core.estimate_load_profile", 1,
                           [&](std::uint64_t) {
                             pqs::core::estimate_load_profile(
                                 *spec.quorums, kTrials, rng, engine);
                           }) /
                   kTrials,
               "ns");
  }
}

// serve: the pipelined phase in process, timing every try_submit call and
// counting the refusals of a full ring, then timing stop_and_drain.
void probe_serve(const KvSpec& spec, std::uint64_t seed, RunResult& result) {
  Tracer::Scope span("probe.serve");
  const RoundInputs in = generate(spec, seed, spec.throughput_ops);
  const auto& ops = in.ops;
  pqs::serve::KvService service(service_config(spec, seed));
  service.start();
  prefill(service, in);
  std::uint64_t submit_ns = 0, calls = 0, refusals = 0;
  for (std::uint64_t i = spec.prefill_keys; i < ops.size(); ++i) {
    const auto r = request_of(ops[i], i, service.now_ns(), false);
    for (;;) {
      const std::uint64_t t0 = now_ns();
      const bool accepted = service.try_submit(r);
      submit_ns += now_ns() - t0;
      ++calls;
      if (accepted) break;
      ++refusals;
      std::this_thread::yield();
    }
  }
  const std::uint64_t t0 = now_ns();
  service.stop_and_drain();
  const double drain_ms = static_cast<double>(now_ns() - t0) * 1e-6;
  const double generated = static_cast<double>(ops.size() - spec.prefill_keys);
  result.add("serve.submit_ns",
             static_cast<double>(submit_ns) / static_cast<double>(calls), "ns");
  result.add("serve.ring_full_retries_per_op",
             static_cast<double>(refusals) / generated, "count");
  result.add("serve.drain_ms", drain_ms, "ms");
}

// net: one request outstanding at a time over loopback TCP, timing
// Client::send and Client::flush separately; the server-side p50 of the
// same requests comes from the service's histograms (histogram_delta), and
// what the client waits beyond it is unattributed.
void probe_net(const KvSpec& spec, std::uint64_t seed, RunResult& result) {
  Tracer::Scope span("probe.net");
  constexpr std::uint64_t kRequests = 3000;
  const RoundInputs in = generate(spec, seed, kRequests);
  const auto& ops = in.ops;
  auto cfg = service_config(spec, seed);
  cfg.workers = 1;
  pqs::serve::KvService service(cfg);
  service.start();
  prefill(service, in);
  service.stop_and_drain();
  const pqs::stats::LatencyHistogram before = service.merged_histogram();
  pqs::net::KvServer server(pqs::net::KvServer::Config{}, service);
  server.start();
  service.start();
  pqs::net::Client::Config client_cfg;
  client_cfg.port = server.port();
  pqs::net::Client client(client_cfg);
  client.start();
  std::uint64_t send_ns = 0, flush_ns = 0;
  std::vector<double> rtt_us;
  rtt_us.reserve(kRequests);
  for (std::uint64_t i = spec.prefill_keys; i < ops.size(); ++i) {
    const auto& op = ops[i];
    const std::uint64_t t0 = now_ns();
    client.send(op.key, op.value, op.is_read, client.now_ns());
    const std::uint64_t t1 = now_ns();
    client.flush();
    const std::uint64_t t2 = now_ns();
    client.drain();
    const std::uint64_t t3 = now_ns();
    send_ns += t1 - t0;
    flush_ns += t2 - t1;
    rtt_us.push_back(static_cast<double>(t3 - t0) * 1e-3);
  }
  client.stop();
  service.stop_and_drain();
  server.stop();
  const pqs::stats::LatencyHistogram served =
      pqs::stats::histogram_delta(before, service.merged_histogram());
  const double service_p50_us = static_cast<double>(served.p50()) * 1e-3;
  result.add("net.send_ns", static_cast<double>(send_ns) / kRequests, "ns");
  result.add("net.flush_us", static_cast<double>(flush_ns) * 1e-3 / kRequests,
             "us");
  result.add("net.unattributed_rtt_us", median(rtt_us) - service_p50_us,
             "us");
  result.add("serve.service_p50_us", service_p50_us, "us");
}

}  // namespace

void run_probes(const KvSpec& spec, const Args& args, RunResult& result) {
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(true);
  const std::uint64_t seed = mix64(args.seed ^ 0x9b0be5ULL);
  probe_replica(spec, seed, result);
  probe_primitives(spec, seed, result);
  probe_serve(spec, seed, result);
  probe_net(spec, seed, result);
  tracer.set_enabled(false);
}

}  // namespace pqsbench
