// The sharded in-memory key-value serving tier.
//
// N `replica::InstantCluster` shards sit behind a request router: keys
// hash to shards, every shard owns a bounded lock-free MPSC ring
// (util::MpscRing), and a fixed set of worker threads batch-dequeues
// requests and applies them through the clusters' zero-allocation
// `write_into`/`read_into` entry points. The submit path is one hash plus
// one ring push — no locks, no allocation — and the worker hot loop is
// allocation-free apart from amortized table growth (per-shard scratch
// results, flat per-key and per-replica record tables that allocate only
// when they double, a fixed-size latency histogram), on insert traffic
// too.
//
// Determinism contract (the serving-tier face of the repo-wide one): the
// router hash is a pure function of the key, each shard applies its
// requests in FIFO order, and shard clusters are seeded independently —
// so as long as every shard's request subsequence arrives in a fixed
// order (one producer, or producers partitioned by shard), each shard's
// aggregate counters are bit-identical across worker-thread counts.
// Latency histograms are measured (timing-dependent) and deliberately
// excluded from the aggregate.
//
// Latency is recorded against the request's *scheduled* arrival time
// (workload::OpenLoopGenerator), so queueing delay from a backed-up shard
// is charged to every request that was due while it was busy —
// coordinated-omission-safe by construction.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "quorum/quorum_system.h"
#include "replica/instant_cluster.h"
#include "stats/counters.h"
#include "stats/latency_histogram.h"
#include "stats/load_profile.h"
#include "util/flat_table.h"
#include "util/mpsc_ring.h"

namespace pqs::serve {

// Membership changes ride the shard rings as in-band requests, so a churn
// event has a definite position in the shard's FIFO request subsequence —
// which is exactly what keeps churned runs inside the bit-identity
// contract: same subsequence, same aggregates, at any worker count.
// kReplace turns over a uniformly random live slot (drawn from the
// cluster's dedicated churn rng); kJoin/kLeave target the slot in
// Request::key.
enum class ChurnKind : std::uint8_t { kNone = 0, kReplace, kJoin, kLeave };

// Fault-mode flips ride the shard rings the same way churn does: an
// in-band request that switches the FaultMode of the server in
// Request::key at a definite FIFO position in the shard's request
// subsequence. Adversarial scenarios are therefore deterministic and
// replayable — the same submission order produces bit-identical
// aggregates at any worker count. The kinds mirror replica::FaultMode
// one-for-one (kCorrect heals a server).
enum class FaultKind : std::uint8_t {
  kNone = 0,
  kCorrect,
  kCrash,
  kSuppress,
  kStaleReplay,
  kForge,
  kCollude,
};

// One routed request. scheduled_ns is the open-loop arrival deadline
// relative to the service epoch (service_now_ns() clock); latency is
// measured from it at completion. ctx/request_id are opaque words the
// completion hook echoes back — the network front end routes them as
// (connection id, wire request id); in-process drivers leave them zero.
struct Request {
  std::uint64_t key = 0;  // churn requests: the slot argument
  std::int64_t value = 0;  // written value (writes only)
  std::uint64_t scheduled_ns = 0;
  std::uint64_t ctx = 0;
  std::uint64_t request_id = 0;
  bool is_read = false;
  bool wants_reply = false;  // invoke the completion hook for this request
  ChurnKind churn = ChurnKind::kNone;
  FaultKind fault = FaultKind::kNone;  // key = the server slot to flip
};

// What the completion hook learns about one finished request: the opaque
// routing words echoed verbatim, plus the protocol outcome (for reads,
// the selected record — `found` false when no selection survived).
struct Completion {
  std::uint64_t ctx = 0;
  std::uint64_t request_id = 0;
  std::uint64_t key = 0;
  std::int64_t value = 0;  // read: selected value; write: written value
  bool is_read = false;
  bool found = false;  // read: selection nonempty; write: always true
};

// The deterministic per-shard outcome counters: everything here is a pure
// function of the shard's request subsequence (no timings), so it is the
// payload of the bit-identity gates in bench/serve_throughput.
struct ShardAggregate {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t stale_reads = 0;  // read selection != last applied write
  std::uint64_t empty_reads = 0;  // no selection, or never-written key
  // Position-weighted per-server contact checksum (same shape as the
  // protocol harness): sum over servers of (u + 1) * contacts[u].
  std::uint64_t access_checksum = 0;
  // Membership churn applied in-band on this shard, and the shard
  // cluster's final view epoch (filled at stop_and_drain; 0 for static
  // shards). Both are deterministic functions of the request subsequence,
  // so they sit inside the bit-identity gate like everything else here.
  std::uint64_t churn_events = 0;
  std::uint64_t membership_epoch = 0;
  // Byzantine-read accounting (all zero under plain reads on an honest
  // fleet, so the counters extend the gate without disturbing it):
  // replies the selection rule refused (failed MACs under dissemination,
  // sub-k voucher groups under masking), reads that rejected at least one
  // reply yet still selected a value (the rule *masked* the fault), reads
  // whose selection was ⊥, and fault-mode flips applied in-band.
  std::uint64_t rejected_forgeries = 0;
  std::uint64_t masked_reads = 0;
  std::uint64_t bot_reads = 0;
  std::uint64_t fault_events = 0;
  // Strategy-draw record (zero without a Config::strategy, so the gate is
  // undisturbed on plain deployments): how many alias-table draws the
  // shard cluster made, and the order-sensitive fold of the drawn
  // (support index, read/write side) pairs — filled at stop_and_drain
  // like access_checksum.
  std::uint64_t strategy_draws = 0;
  std::uint64_t strategy_checksum = 0;

  bool operator==(const ShardAggregate& o) const {
    return reads == o.reads && writes == o.writes &&
           stale_reads == o.stale_reads && empty_reads == o.empty_reads &&
           access_checksum == o.access_checksum &&
           churn_events == o.churn_events &&
           membership_epoch == o.membership_epoch &&
           rejected_forgeries == o.rejected_forgeries &&
           masked_reads == o.masked_reads && bot_reads == o.bot_reads &&
           fault_events == o.fault_events &&
           strategy_draws == o.strategy_draws &&
           strategy_checksum == o.strategy_checksum;
  }
  ShardAggregate& operator+=(const ShardAggregate& o) {
    reads += o.reads;
    writes += o.writes;
    stale_reads += o.stale_reads;
    empty_reads += o.empty_reads;
    access_checksum += o.access_checksum;
    churn_events += o.churn_events;
    membership_epoch += o.membership_epoch;
    rejected_forgeries += o.rejected_forgeries;
    masked_reads += o.masked_reads;
    bot_reads += o.bot_reads;
    fault_events += o.fault_events;
    strategy_draws += o.strategy_draws;
    strategy_checksum += o.strategy_checksum;
    return *this;
  }
};

class KvService {
 public:
  struct Config {
    std::uint32_t shards = 4;
    // Shard-serving threads; shard s is owned by worker s % workers.
    // Clamped to [1, shards].
    std::uint32_t workers = 1;
    std::size_t queue_capacity = 4096;  // per-shard ring slots
    std::size_t batch = 64;             // max requests per dequeue
    std::shared_ptr<const quorum::QuorumSystem> quorums;
    std::uint64_t seed = 1;  // shard s cluster seed derives from this
    // Dynamic membership on every shard cluster (see
    // replica::InstantCluster::Config): the quorum system's universe
    // becomes slot capacity, draws follow each shard's live view, and
    // submit_churn becomes legal. Per-shard churn seeds derive from
    // `seed`, so churned runs stay deterministic end to end.
    bool dynamic_membership = false;
    std::uint32_t initial_live = 0;  // 0 = all slots live
    // Read-selection rule every shard cluster applies (plain /
    // dissemination / masking) and the masking voucher threshold k.
    // Defaults preserve the pre-Byzantine service byte for byte.
    replica::ReadMode read_mode = replica::ReadMode::kPlain;
    std::uint32_t read_threshold = 1;
    // Initial fault assignment, applied identically to every shard
    // cluster (shards are iid replicas of one universe, so "server u is
    // Byzantine" means slot u in each shard). Live flips go through
    // submit_fault. Size must match the quorum universe when set.
    std::optional<replica::FaultPlan> faults;
    // Workload-aware access strategy installed on every shard cluster
    // (see replica::InstantCluster::Config::strategy): writes draw the
    // strategy's write distribution, reads its read distribution, and
    // each shard's draws land in ShardAggregate::strategy_draws /
    // strategy_checksum inside the bit-identity gate. `quorums` may be
    // left null (the strategy serves as the quorum system) and
    // dynamic_membership must stay off.
    std::shared_ptr<const quorum::Strategy> strategy;
  };

  // Called from the owning worker thread after a request's protocol work
  // and latency record are done — the submission/completion seam the
  // network front end plugs into. The handler must not block (it runs in
  // the shard-serving hot loop); it fires only for requests that set
  // wants_reply, so pure in-process drivers pay nothing.
  using CompletionHandler = std::function<void(const Completion&)>;

  explicit KvService(Config config);
  ~KvService();

  KvService(const KvService&) = delete;
  KvService& operator=(const KvService&) = delete;

  std::uint32_t shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  std::uint32_t workers() const { return config_.workers; }
  bool running() const { return running_; }

  // Installs (or clears, with nullptr) the completion hook. Only while
  // stopped: worker threads read the handler unsynchronized, so the
  // start() thread launch is what publishes it.
  void set_completion(CompletionHandler handler);

  // Which shard serves `key` — a pure function of the key (SplitMix64
  // finalizer, then a multiply-shift range reduction).
  std::uint32_t shard_of(std::uint64_t key) const;

  // Launches the worker threads and (re)starts the service clock — the
  // timebase of Request::scheduled_ns. A drained service can be started
  // again: cluster state and counters persist across runs, which is how
  // the bench sweeps offered load on one deployment and reports each
  // point's traffic as a stats::snapshot_delta.
  void start();

  // Lock-free submit: routes to the key's shard and pushes. Returns false
  // when that shard's ring is full (the caller owns backpressure).
  bool try_submit(const Request& request);
  // Spins until the shard accepts (the bench's backpressure policy: an
  // open-loop driver that outruns the service accrues scheduled-arrival
  // lag, which the latency histogram then reports as queueing delay).
  void submit(const Request& request);

  // Enqueues a membership change on `shard` as an in-band request (spins
  // like submit when the ring is full). `arg` is the slot for
  // kJoin/kLeave and ignored for kReplace. The change applies at its
  // FIFO position in the shard's request subsequence — between the
  // requests submitted before and after it — so churned runs keep the
  // bit-identity contract. Requires Config::dynamic_membership.
  void submit_churn(std::uint32_t shard, ChurnKind kind, std::uint64_t arg = 0);

  // Enqueues a fault-mode flip for server `slot` on `shard` as an in-band
  // request (spins like submit when the ring is full). The flip applies
  // at its FIFO position in the shard's request subsequence, exactly like
  // churn — so adversarial runs keep the bit-identity contract: the same
  // submission order yields the same aggregates at any worker count.
  void submit_fault(std::uint32_t shard, FaultKind kind, std::uint64_t slot);

  // Flags shutdown, waits for every ring to drain, joins the workers.
  // All submits must have completed before the call. The service may be
  // start()ed again afterwards.
  void stop_and_drain();

  // Clears the per-shard latency histograms (only while stopped) so a
  // restarted run reports its own percentiles; the deterministic
  // aggregates and protocol counters keep accumulating regardless.
  void reset_latency();

  // Nanoseconds since start() on the service's steady clock — the
  // timebase of Request::scheduled_ns.
  std::uint64_t now_ns() const;

  // Post-drain observability (valid after stop_and_drain()).
  const ShardAggregate& shard_aggregate(std::uint32_t shard) const;
  ShardAggregate fold_aggregates() const;
  std::vector<ShardAggregate> aggregates() const;
  const stats::LatencyHistogram& shard_histogram(std::uint32_t shard) const;
  stats::LatencyHistogram merged_histogram() const;
  // Per-server protocol counters folded across shard clusters (shards are
  // iid replicas of one universe, so merging by server id is the fold).
  stats::ContentionSnapshot contention_snapshot() const;
  // Measured per-server load over client-side quorum contacts.
  stats::LoadProfile server_profile() const;

 private:
  // The last value this service wrote to a key: the per-key oracle that
  // classifies reads as stale or empty.
  struct LastWritten {
    std::uint64_t key = 0;
    std::int64_t value = 0;
  };
  struct KeyOfLastWritten {
    std::uint64_t operator()(const LastWritten& e) const { return e.key; }
  };

  struct Shard {
    explicit Shard(std::size_t queue_capacity) : ring(queue_capacity) {}
    util::MpscRing<Request> ring;
    std::unique_ptr<replica::InstantCluster> cluster;
    // Worker-private state below: only the owning worker touches it
    // between start() and stop_and_drain().
    util::FlatTable<LastWritten, KeyOfLastWritten> last_written;
    std::vector<std::uint64_t> accesses;  // per-server quorum contacts
    replica::WriteResult write_scratch;
    replica::ReadResult read_scratch;
    ShardAggregate aggregate;
    stats::LatencyHistogram histogram;
  };

  void worker_loop(std::uint32_t worker);
  void process(Shard& shard, const Request& request);

  Config config_;
  CompletionHandler completion_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stopping_{false};
  bool running_ = false;
  std::chrono::steady_clock::time_point epoch_{};
};

}  // namespace pqs::serve
