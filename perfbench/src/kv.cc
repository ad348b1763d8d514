// The three KV workloads: tcp-ycsb-b, kv-insert-heavy, kv-read-masking.
//
// A round generates its operations before any timing, builds a fresh
// serve::KvService (behind net::KvServer for tcp-ycsb-b), prefills the
// read keys, and then runs two phases:
//   * closed loop: `batch` requests submitted, all replies awaited, next
//     batch — one latency sample each (batch = 1 over TCP: the round trip);
//   * pipelined: every remaining request as fast as the service takes it —
//     one throughput sample per round.
// Every reply is then classified against the per-key write history. Over
// TCP the net::Client reports only found/not-found per read, so the round
// is replayed in process on an identical deployment and the replay's
// per-shard aggregates must equal the TCP run's: one connection submits in
// wire order, each shard applies its requests in FIFO order, and shard
// clusters draw from their own seeded streams, so equal aggregates mean
// equal replies. The replay's replies are then what the oracle checks.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/epsilon.h"
#include "core/random_subset_system.h"
#include "net/client.h"
#include "net/kv_server.h"
#include "oracle.h"
#include "probes.h"
#include "quorum/threshold.h"
#include "serve/kv_service.h"
#include "trace.h"
#include "workloads.h"

namespace pqsbench {

namespace {

using pqs::serve::KvService;
using pqs::workload::Operation;

constexpr double kDelta = 1e-9;  // failure probability of every bound
// A closed-loop batch or a pipelined phase that sees no reply for this
// long counts its missing replies as failed instead of waiting forever.
constexpr std::uint64_t kReplyTimeoutNs = 20'000'000'000ULL;
// Requests in flight in the in-process pipelined phase.
constexpr std::uint64_t kWindow = 2048;

// Replies by submission position, filled by the completion hook from the
// shard workers (each slot written once) and read after stop_and_drain.
struct Replies {
  explicit Replies(std::size_t n) : value(n, 0), found(n, 0), done(n, 0) {}
  std::vector<std::int64_t> value;
  std::vector<std::uint8_t> found;
  std::vector<std::uint8_t> done;
  std::atomic<std::uint64_t> completed{0};
};

void install_replies(KvService& service, Replies& replies) {
  service.set_completion([&replies](const pqs::serve::Completion& c) {
    replies.value[c.request_id] = c.value;
    replies.found[c.request_id] = c.found ? 1 : 0;
    replies.done[c.request_id] = 1;
    replies.completed.fetch_add(1, std::memory_order_release);
  });
}

// Spins until `target` replies have completed; false on timeout.
bool await(const Replies& replies, std::uint64_t target) {
  const std::uint64_t deadline = now_ns() + kReplyTimeoutNs;
  while (replies.completed.load(std::memory_order_acquire) < target) {
    if (now_ns() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// Classifies every reply of the generated operations; counts invalid
// values and missing replies as failed, and checks stale + ⊥ reads
// against the closed-form epsilon plus its Chernoff margin.
void check_replies(const KvSpec& spec, const RoundInputs& in,
                   const Replies& replies, RoundSample& out,
                   RunResult& result) {
  Tracer::Scope span("oracle.check");
  oracle::WriteHistory history;
  history.reserve(in.ops.size());
  for (std::uint64_t i = 0; i < in.ops.size(); ++i) {
    if (!in.ops[i].is_read) history.write(in.ops[i].key, in.ops[i].value, i);
  }
  oracle::ReplyTally tally;
  for (std::uint64_t i = in.prefill; i < in.ops.size(); ++i) {
    const Operation& op = in.ops[i];
    tally.add(history, op.key, i, op.is_read, replies.done[i] != 0,
              replies.found[i] != 0, replies.value[i]);
  }
  out.failed += tally.failed;
  double threshold = 0.0;
  if (spec.read_mode == pqs::replica::ReadMode::kMasking) {
    // Reads of one key share its write quorum: the exact mixture bound.
    threshold = oracle::chernoff_threshold(
        oracle::group_reads(tally.eligible_reads),
        oracle::masking_bot_mixture(spec.n, spec.q, spec.b, spec.k), kDelta);
  } else {
    // Plain reads on a uniform R(n,q): a read is stale or ⊥ exactly when
    // its own fresh quorum misses the latest write quorum — independent
    // Bernoulli(eps) events, whatever the key.
    threshold = oracle::chernoff_threshold(
        {{tally.eligible_total(), 1}}, {{1.0, oracle::nonintersection(spec.n, spec.q)}},
        kDelta);
  }
  if (static_cast<double>(tally.stale_or_bot) > threshold) {
    char why[160];
    std::snprintf(why, sizeof(why),
                  "%s: %llu stale or empty reads exceed eps + margin = %.1f",
                  spec.name.c_str(),
                  static_cast<unsigned long long>(tally.stale_or_bot), threshold);
    result.fail(why);
  }
}

// In-process round (kv-insert-heavy, kv-read-masking).
RoundSample local_round(const KvSpec& spec, std::uint64_t seed,
                         RunResult& result) {
  RoundSample out;
  const std::uint64_t t_setup = now_ns();
  const RoundInputs in = generate(
      spec, mix64(seed),
      spec.batch * spec.latency_batches + spec.throughput_ops);
  Replies replies(in.ops.size());
  KvService service(service_config(spec, mix64(seed + 1)));
  install_replies(service, replies);
  service.start();
  prefill(service, in);
  out.setup_s = static_cast<double>(now_ns() - t_setup) * 1e-9;

  // Submits the next `count` requests and waits for all their replies;
  // returns the seconds that took, or a negative value on a timeout.
  std::uint64_t next = in.prefill;
  const auto batch = [&](std::uint64_t count) {
    Tracer::Scope span("serve.batch");
    const std::uint64_t t0 = now_ns();
    for (std::uint64_t j = 0; j < count; ++j, ++next) {
      service.submit(request_of(in.ops[next], next, service.now_ns(), true));
    }
    if (!await(replies, next - in.prefill)) return -1.0;
    return static_cast<double>(now_ns() - t0) * 1e-9;
  };
  bool timed_out = false;
  {
    Tracer::Scope span("phase.closed_loop");
    for (std::uint64_t b = 0; b < spec.latency_batches && !timed_out; ++b) {
      const double s = batch(spec.batch);
      timed_out = s < 0.0;
      if (!timed_out) out.latency_us.push_back(s * 1e6);
    }
  }
  {
    // A window of kWindow requests at a time: more than enough to keep
    // every shard worker busy, and never more than a shard ring holds.
    Tracer::Scope span("phase.pipelined");
    double busy_s = 0.0;
    while (next < in.ops.size() && !timed_out) {
      const double s =
          batch(std::min<std::uint64_t>(kWindow, in.ops.size() - next));
      timed_out = s < 0.0;
      if (!timed_out) busy_s += s;
    }
    out.ops = static_cast<double>(spec.throughput_ops);
    out.busy_s = busy_s;
  }
  {
    Tracer::Scope span("serve.stop_and_drain");
    service.stop_and_drain();
  }
  out.attempted = in.ops.size() - in.prefill;
  check_replies(spec, in, replies, out, result);
  return out;
}

// Restricts this process, and every thread it starts from now on, to the
// first CPU it may run on. Without it, a one-outstanding round trip wakes
// a sleeping thread on an idle virtual CPU three times (the server's IO
// thread twice, the client's reader once), and what that costs varies
// with the host: unpinned round trips read 78-88 us where pinned ones read
// 38-41 us on the same code.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      if (sched_setaffinity(0, sizeof(one), &one) == 0) {
        std::fprintf(stderr, "pinned to cpu %d\n", cpu);
        return;
      }
      break;
    }
  }
  std::fprintf(stderr, "could not pin to one cpu; running unpinned\n");
}

// TCP round (tcp-ycsb-b), with the in-process replay that supplies the
// reply values for the oracle.
RoundSample tcp_round(const KvSpec& spec, std::uint64_t seed,
                       RunResult& result) {
  RoundSample out;
  const std::uint64_t t_setup = now_ns();
  const RoundInputs in = generate(
      spec, mix64(seed),
      spec.batch * spec.latency_batches + spec.throughput_ops);
  const KvService::Config cfg = service_config(spec, mix64(seed + 1));
  KvService service(cfg);
  service.start();
  prefill(service, in);
  service.stop_and_drain();
  pqs::net::KvServer server(pqs::net::KvServer::Config{}, service);
  server.start();
  service.start();
  pqs::net::Client::Config client_cfg;
  client_cfg.port = server.port();
  pqs::net::Client client(client_cfg);
  client.start();
  out.setup_s = static_cast<double>(now_ns() - t_setup) * 1e-9;

  std::uint64_t next = in.prefill;
  std::uint64_t reads = 0;
  {
    Tracer::Scope span("phase.closed_loop");
    for (std::uint64_t i = 0; i < spec.latency_batches; ++i, ++next) {
      const Operation& op = in.ops[next];
      reads += op.is_read ? 1 : 0;
      const std::uint64_t t0 = now_ns();
      {
        Tracer::Scope send_span("net.send");
        client.send(op.key, op.value, op.is_read, client.now_ns());
      }
      {
        Tracer::Scope drain_span("net.drain");
        client.drain();
      }
      out.latency_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
  }
  {
    Tracer::Scope span("phase.pipelined");
    const std::uint64_t t0 = now_ns();
    constexpr std::uint64_t kChunk = 1024;
    while (next < in.ops.size()) {
      Tracer::Scope chunk_span("net.send_chunk");
      const std::uint64_t end = std::min<std::uint64_t>(next + kChunk,
                                                        in.ops.size());
      for (; next < end; ++next) {
        const Operation& op = in.ops[next];
        reads += op.is_read ? 1 : 0;
        client.send(op.key, op.value, op.is_read, client.now_ns());
      }
    }
    {
      Tracer::Scope drain_span("net.drain");
      client.drain();
    }
    const std::uint64_t t1 = now_ns();
    out.ops = static_cast<double>(spec.throughput_ops);
    out.busy_s = static_cast<double>(t1 - t0) * 1e-9;
  }
  const std::uint64_t answered = client.received();
  const std::uint64_t found = client.reads_found();
  const std::uint64_t empty = client.reads_empty();
  client.stop();
  {
    Tracer::Scope span("serve.stop_and_drain");
    service.stop_and_drain();
  }
  server.stop();
  out.attempted = in.ops.size() - in.prefill;
  if (answered != out.attempted || found + empty != reads) {
    result.fail(spec.name + ": replies over TCP do not match the requests");
  }

  // Replay in process on an identical deployment.
  Tracer::Scope replay_span("oracle.replay");
  Replies replies(in.ops.size());
  KvService::Config replay_cfg = cfg;
  replay_cfg.workers = 2;  // aggregates do not depend on the worker count
  KvService replay(replay_cfg);
  install_replies(replay, replies);
  replay.start();
  prefill(replay, in);
  for (std::uint64_t i = in.prefill; i < in.ops.size(); ++i) {
    replay.submit(request_of(in.ops[i], i, 0, true));
  }
  await(replies, in.ops.size() - in.prefill);
  replay.stop_and_drain();
  if (!(replay.aggregates() == service.aggregates())) {
    result.fail(spec.name +
                ": in-process replay diverges from the TCP run's aggregates");
  }
  std::uint64_t replay_found = 0;
  for (std::uint64_t i = in.prefill; i < in.ops.size(); ++i) {
    if (in.ops[i].is_read && replies.found[i]) ++replay_found;
  }
  if (replay_found != found) {
    result.fail(spec.name + ": found reads differ between TCP and replay");
  }
  check_replies(spec, in, replies, out, result);
  return out;
}

}  // namespace

// ---- shared with the probes and the reference figures ---------------------

RoundInputs generate(const KvSpec& spec, std::uint64_t seed,
                     std::uint64_t generated) {
  Tracer::Scope span("workload.generate");
  RoundInputs in;
  in.prefill = spec.prefill_keys;
  in.ops.resize(in.prefill + generated);
  for (std::uint64_t key = 1; key <= in.prefill; ++key) {
    Operation& op = in.ops[key - 1];
    op.key = key;
    op.value = -static_cast<std::int64_t>(key);  // generated values are > 0
    op.is_read = false;
  }
  pqs::workload::OpenLoopGenerator gen(spec.mix, seed);
  for (std::uint64_t i = 0; i < generated; ++i) gen.next(in.ops[in.prefill + i]);
  return in;
}

pqs::serve::KvService::Config service_config(const KvSpec& spec, std::uint64_t seed) {
  pqs::serve::KvService::Config cfg;
  cfg.shards = spec.shards;
  cfg.workers = spec.workers;
  cfg.quorums = spec.quorums;
  cfg.seed = seed;
  cfg.read_mode = spec.read_mode;
  cfg.read_threshold = static_cast<std::uint32_t>(spec.k);
  cfg.faults = spec.faults();
  return cfg;
}

pqs::serve::Request request_of(const pqs::workload::Operation& op, std::uint64_t position,
                               std::uint64_t now, bool wants_reply) {
  pqs::serve::Request r;
  r.key = op.key;
  r.value = op.value;
  r.is_read = op.is_read;
  r.scheduled_ns = now;
  r.request_id = position;
  r.wants_reply = wants_reply;
  return r;
}

void prefill(pqs::serve::KvService& service, const RoundInputs& in) {
  Tracer::Scope span("serve.prefill");
  for (std::uint64_t i = 0; i < in.prefill; ++i) {
    service.submit(request_of(in.ops[i], i, 0, false));
  }
}

std::optional<pqs::replica::FaultPlan> KvSpec::faults() const {
  if (b == 0) return std::nullopt;
  return pqs::replica::FaultPlan::prefix(static_cast<std::uint32_t>(n),
                                         static_cast<std::uint32_t>(b),
                                         pqs::replica::FaultMode::kForge);
}

bool is_kv_workload(const std::string& name) {
  return name == "tcp-ycsb-b" || name == "kv-insert-heavy" ||
         name == "kv-read-masking";
}

KvSpec kv_spec(const std::string& name) {
  KvSpec spec;
  spec.name = name;
  spec.n = 100;
  spec.q = 20;
  spec.quorums = std::make_shared<pqs::core::RandomSubsetSystem>(100, 20);
  spec.mix = pqs::workload::OpenLoopSpec::ycsb_b(10000);
  spec.prefill_keys = 10000;
  if (name == "tcp-ycsb-b") {
    spec.tcp = true;
    spec.workers = 1;
    spec.batch = 1;
    spec.latency_batches = 4000;
    spec.throughput_ops = 120000;
  } else if (name == "kv-insert-heavy") {
    spec.workers = 2;
    spec.mix.keys = 1ULL << 22;
    spec.mix.zipf_exponent = 0.0;
    spec.mix.read_fraction = 0.1;
    spec.prefill_keys = 0;
    spec.batch = 64;
    spec.latency_batches = 100;
    spec.throughput_ops = 40000;
  } else if (name == "kv-read-masking") {
    const auto sys = std::make_shared<pqs::core::RandomSubsetSystem>(
        pqs::core::RandomSubsetSystem::masking(100, 10, 1e-3));
    spec.quorums = sys;
    spec.q = sys->quorum_size();
    spec.b = 10;
    spec.k = sys->read_threshold();
    spec.read_mode = pqs::replica::ReadMode::kMasking;
    spec.workers = 2;
    spec.mix = pqs::workload::OpenLoopSpec::ycsb_c(10000);
    spec.batch = 64;
    spec.latency_batches = 100;
    spec.throughput_ops = 100000;
  } else {
    spec.workers = 2;
    spec.batch = 64;
    spec.latency_batches = 100;
    spec.throughput_ops = 100000;
  }
  return spec;
}

void check_closed_forms(const KvSpec& spec, RunResult& result) {
  const auto close = [](double a, double b) {
    return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(b), 1e-300) ||
           std::fabs(a - b) <= 1e-15;
  };
  if (!close(oracle::nonintersection(spec.n, spec.q),
             pqs::core::nonintersection_exact(spec.n, spec.q))) {
    result.fail("nonintersection: oracle and core:: closed form disagree");
  }
  if (spec.b > 0) {
    if (!close(oracle::fabrication(spec.n, spec.q, spec.b, spec.k),
               pqs::core::fabrication_epsilon_exact(spec.n, spec.q, spec.b,
                                                    spec.k))) {
      result.fail("fabrication: oracle and core:: closed form disagree");
    }
    if (!close(oracle::masking_union(spec.n, spec.q, spec.b, spec.k),
               pqs::core::masking_epsilon_exact(spec.n, spec.q, spec.b,
                                                spec.k))) {
      result.fail("masking epsilon: oracle and core:: closed form disagree");
    }
    // The ⊥ rate is one half of Definition 5.1's union.
    if (oracle::masking_bot(spec.n, spec.q, spec.b, spec.k) >
        oracle::masking_union(spec.n, spec.q, spec.b, spec.k) +
            oracle::fabrication(spec.n, spec.q, spec.b, spec.k)) {
      result.fail("masking: bot rate exceeds the union bound");
    }
  }
}

RunResult run_kv(const KvSpec& spec, const Args& args) {
  RunResult result;
  if (spec.tcp) pin_to_one_cpu();
  check_closed_forms(spec, result);
  if (args.trace) run_probes(spec, args, result);
  run_rounds(args, result, [&](std::uint64_t seed) {
    return spec.tcp ? tcp_round(spec, seed, result)
                    : local_round(spec, seed, result);
  });
  return result;
}

}  // namespace pqsbench
