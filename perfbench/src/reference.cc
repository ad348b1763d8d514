// Reference figures that do not repeat well enough on a shared 4-vCPU
// machine to be gated, printed as text (README.md records them):
//   * paced load over TCP: open-loop offered rates with latency measured
//     from each request's scheduled send time;
//   * the round trip's p99 with one request outstanding;
//   * the in-process hand-off: one request submitted to a KvService and
//     its completion awaited;
//   * the replica store's double copy: resident bytes per stored record
//     against the bytes of one unordered_map entry of the same shape.
// Run: python3 perfbench/run.py --workload reference --seed 1 --seconds 1 --trace 0
#include <atomic>
#include <cstdio>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/random_subset_system.h"
#include "crypto/mac.h"
#include "net/client.h"
#include "net/kv_server.h"
#include "replica/instant_cluster.h"
#include "serve/kv_service.h"
#include "stats/latency_histogram.h"
#include "workload/open_loop.h"
#include "workloads.h"

namespace pqsbench {

namespace {

// Open-loop offered load over one connection, and the one-outstanding
// round trip, on the tcp-ycsb-b deployment.
void tcp_figures(const KvSpec& spec, std::uint64_t seed) {
  pqs::serve::KvService service(service_config(spec, seed));
  service.start();
  prefill(service, generate(spec, seed, 0));
  service.stop_and_drain();
  pqs::net::KvServer server(pqs::net::KvServer::Config{}, service);
  server.start();
  pqs::stats::LatencyHistogram cumulative = service.merged_histogram();
  for (const double rate : {10000.0, 20000.0, 40000.0}) {
    pqs::workload::OpenLoopSpec mix = spec.mix;
    mix.arrival_rate = rate;
    pqs::workload::OpenLoopGenerator gen(mix, seed + static_cast<std::uint64_t>(rate));
    service.start();
    pqs::net::Client::Config client_cfg;
    client_cfg.port = server.port();
    pqs::net::Client client(client_cfg);
    client.start();
    const auto ops = static_cast<std::uint64_t>(rate * 2);  // two seconds
    pqs::workload::Operation op;
    for (std::uint64_t i = 0; i < ops; ++i) {
      gen.next(op);
      if (client.now_ns() < op.scheduled_ns) {
        client.flush();
        while (client.now_ns() < op.scheduled_ns) std::this_thread::yield();
      }
      client.send(op.key, op.value, op.is_read, op.scheduled_ns);
    }
    client.drain();
    const pqs::stats::LatencyHistogram rtt = client.histogram();
    client.stop();
    service.stop_and_drain();
    const pqs::stats::LatencyHistogram now = service.merged_histogram();
    const pqs::stats::LatencyHistogram served =
        pqs::stats::histogram_delta(cumulative, now);
    cumulative = now;
    std::printf("paced %6.0f ops/s: client p50 %8.1f us  p99 %8.1f us   "
                "server p50 %6.1f us  p99 %8.1f us\n",
                rate, rtt.p50() * 1e-3, rtt.p99() * 1e-3, served.p50() * 1e-3,
                served.p99() * 1e-3);
  }
  {
    service.start();
    pqs::net::Client::Config client_cfg;
    client_cfg.port = server.port();
    pqs::net::Client client(client_cfg);
    client.start();
    pqs::workload::OpenLoopGenerator gen(spec.mix, seed);
    pqs::workload::Operation op;
    std::vector<double> rtt_us;
    for (int i = 0; i < 20000; ++i) {
      gen.next(op);
      const std::uint64_t t0 = now_ns();
      client.send(op.key, op.value, op.is_read, client.now_ns());
      client.drain();
      rtt_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
    client.stop();
    service.stop_and_drain();
    std::printf("round trip, one outstanding: p50 %.1f us  p99 %.1f us "
                "(%zu samples)\n",
                quantile(rtt_us, 0.5), quantile(rtt_us, 0.99), rtt_us.size());
  }
  server.stop();
}

// One request at a time through the in-process service: submit, then spin
// until its completion fires on the worker thread.
void handoff_figures(const KvSpec& spec, std::uint64_t seed) {
  pqs::serve::KvService service(service_config(spec, seed));
  std::atomic<std::uint64_t> completed{0};
  service.set_completion([&completed](const pqs::serve::Completion&) {
    completed.fetch_add(1, std::memory_order_release);
  });
  service.start();
  prefill(service, generate(spec, seed, 0));
  pqs::workload::OpenLoopGenerator gen(spec.mix, seed);
  pqs::workload::Operation op;
  std::vector<double> us;
  for (std::uint64_t i = 1; i <= 20000; ++i) {
    gen.next(op);
    const std::uint64_t t0 = now_ns();
    service.submit(request_of(op, i, service.now_ns(), true));
    while (completed.load(std::memory_order_acquire) < i) {
      std::this_thread::yield();
    }
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  service.stop_and_drain();
  std::printf("in-process hand-off, one outstanding: p50 %.2f us  p99 %.2f us\n",
              quantile(us, 0.5), quantile(us, 0.99));
}

// Resident bytes per stored record in the replica store, against one
// unordered_map entry holding the same (key, record) pair.
void store_figures(const KvSpec& spec, std::uint64_t seed) {
  constexpr std::uint64_t kWrites = 20000;
  std::uint64_t before = peak_rss_bytes();
  {
    std::unordered_map<std::uint64_t, pqs::crypto::SignedRecord> map;
    for (std::uint64_t i = 0; i < kWrites * spec.q; ++i) map[i].value = 1;
    const double per_entry =
        static_cast<double>(peak_rss_bytes() - before) /
        static_cast<double>(kWrites * spec.q);
    before = peak_rss_bytes();
    pqs::replica::InstantCluster::Config cfg;
    cfg.quorums = spec.quorums;
    cfg.seed = seed;
    pqs::replica::InstantCluster cluster(cfg);
    pqs::replica::WriteResult w;
    for (std::uint64_t key = 1; key <= kWrites; ++key) {
      cluster.write_into(w, key, static_cast<std::int64_t>(key));
    }
    const double per_record = static_cast<double>(peak_rss_bytes() - before) /
                              static_cast<double>(kWrites * spec.q);
    std::printf("replica store: %.0f resident bytes per stored record, "
                "%.0f per unordered_map entry (ratio %.2f)\n",
                per_record, per_entry, per_record / per_entry);
  }
}

}  // namespace

int run_reference(const Args& args) {
  const KvSpec spec = kv_spec("tcp-ycsb-b");
  store_figures(spec, args.seed);  // first: its resident growth must be new
  tcp_figures(spec, args.seed);
  handoff_figures(spec, args.seed);
  return 0;
}

}  // namespace pqsbench
