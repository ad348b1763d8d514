// Workload generation: keys, skew, and operation mixes.
//
// The bench harness drives the replicated-variable protocols with synthetic
// workloads: a key (variable) distribution — uniform or Zipfian, since
// realistic register workloads are skewed — and a read/write mix. The
// runner measures what the paper's analysis predicts: per-server access
// frequencies (whose maximum is the induced load L_w) and the staleness
// rate of non-concurrent reads (epsilon).
#pragma once

#include <cstdint>
#include <vector>

#include "math/rng.h"
#include "replica/instant_cluster.h"

namespace pqs::workload {

// Zipf(s) over ranks 1..n: P(rank r) ∝ 1/r^s. s = 0 is uniform. Sampling
// by inverse transform over the precomputed CDF (O(log n) per draw). At
// s = 0 the CDF is exactly double(r) / double(n) (a running sum of 1.0s is
// exact below 2^53), so it is computed per draw instead of stored: the same
// rng word yields the same key, with no table to build or miss in.
class ZipfianKeys {
 public:
  ZipfianKeys(std::uint64_t keys, double exponent);

  std::uint64_t keys() const { return keys_; }
  double exponent() const { return exponent_; }

  // Draws a key in [1, keys] (rank order: key 1 is the hottest).
  std::uint64_t sample(math::Rng& rng) const;

  // Exact probability of a given key (1-based rank).
  double probability(std::uint64_t key) const;

 private:
  // The CDF at rank r (1-based); cdf(0) is 0.
  double cdf(std::uint64_t rank) const;

  std::uint64_t keys_;
  double exponent_;
  std::vector<double> cdf_;  // empty when uniform
  // Guide table over cdf_: guide_[b] is the first rank index whose CDF
  // reaches b / G (G = guide_.size() - 1, a power of two), so a draw u in
  // [b/G, (b+1)/G) searches only cdf_[guide_[b], guide_[b+1]].
  std::vector<std::uint32_t> guide_;
};

struct WorkloadSpec {
  std::uint64_t keys = 64;
  double zipf_exponent = 0.0;   // 0 = uniform
  double read_fraction = 0.5;   // remainder are writes
  std::uint64_t operations = 100000;
};

struct WorkloadReport {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t stale_reads = 0;   // read != last completed write, per key
  std::uint64_t empty_reads = 0;   // ⊥ or never-written key
  std::vector<std::uint64_t> server_accesses;  // per-server message count

  double stale_rate() const {
    return reads == 0 ? 0.0
                      : static_cast<double>(stale_reads) /
                            static_cast<double>(reads);
  }
  // Max per-server access frequency over total quorum accesses — the
  // empirical induced load.
  double measured_load() const;
};

// Runs `spec` against the cluster: each operation picks a key from the
// Zipfian distribution and is a read with probability read_fraction, else
// a write of a fresh value. Reads are checked against the last value this
// runner wrote to that key (non-concurrent by construction).
WorkloadReport run_workload(replica::InstantCluster& cluster,
                            const WorkloadSpec& spec, math::Rng& rng);

// In-place variant: `report` is reset and refilled, and operations run
// through the cluster's write_into/read_into so result scratch is reused
// across the whole loop. On the cluster's kMask draw path the steady-state
// op loop performs no allocation (the per-key last-written map stops
// growing once every key has been written). Same draws, same counters as
// run_workload for any fixed rng state.
void run_workload_into(replica::InstantCluster& cluster,
                       const WorkloadSpec& spec, math::Rng& rng,
                       WorkloadReport& report);

}  // namespace pqs::workload
