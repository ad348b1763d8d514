#include "workload/workload.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/require.h"

namespace pqs::workload {

ZipfianKeys::ZipfianKeys(std::uint64_t keys, double exponent)
    : keys_(keys), exponent_(exponent) {
  PQS_REQUIRE(keys >= 1, "zipfian needs keys");
  PQS_REQUIRE(exponent >= 0.0, "zipfian exponent");
  if (exponent == 0.0) return;
  cdf_.resize(keys);
  double total = 0.0;
  for (std::uint64_t r = 1; r <= keys; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r), exponent);
    cdf_[r - 1] = total;
  }
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;
  // About one bucket per key, capped at 2^16 buckets (256 KiB of guide):
  // a bucket's CDF range is then a few keys wide, against a binary search
  // over every key.
  std::size_t buckets = 1;
  while (buckets < keys && buckets < (std::size_t{1} << 16)) buckets *= 2;
  guide_.resize(buckets + 1);
  std::size_t rank = 0;
  for (std::size_t b = 0; b <= buckets; ++b) {
    const double edge =
        static_cast<double>(b) / static_cast<double>(buckets);
    while (cdf_[rank] < edge) ++rank;  // cdf_.back() == 1.0 stops it
    guide_[b] = static_cast<std::uint32_t>(rank);
  }
}

double ZipfianKeys::cdf(std::uint64_t rank) const {
  if (rank == 0) return 0.0;
  if (cdf_.empty()) {
    return static_cast<double>(rank) / static_cast<double>(keys_);
  }
  return cdf_[rank - 1];
}

std::uint64_t ZipfianKeys::sample(math::Rng& rng) const {
  const double u = rng.uniform();
  if (!cdf_.empty()) {
    // u * G is exact (G is a power of two), so b/G <= u < (b+1)/G holds
    // exactly and the full lower_bound's answer lies in
    // [guide_[b], guide_[b+1]]: the same key for the same rng word.
    const std::size_t buckets = guide_.size() - 1;
    const std::size_t b =
        static_cast<std::size_t>(u * static_cast<double>(buckets));
    const auto it = std::lower_bound(cdf_.begin() + guide_[b],
                                     cdf_.begin() + guide_[b + 1], u);
    return static_cast<std::uint64_t>(it - cdf_.begin()) + 1;
  }
  // The smallest rank whose CDF reaches u, as lower_bound over the table
  // would find it: start at u * n and step to the exact boundary (at most a
  // step or two, since the CDF is monotone and u * n is within an ulp).
  const double n = static_cast<double>(keys_);
  std::uint64_t r = std::min<std::uint64_t>(
      keys_, std::max<std::uint64_t>(1, static_cast<std::uint64_t>(u * n)));
  while (r > 1 && cdf(r - 1) >= u) --r;
  while (cdf(r) < u) ++r;
  return r;
}

double ZipfianKeys::probability(std::uint64_t key) const {
  PQS_REQUIRE(key >= 1 && key <= keys_, "key out of range");
  return cdf(key) - cdf(key - 1);
}

double WorkloadReport::measured_load() const {
  if (server_accesses.empty()) return 0.0;
  std::uint64_t ops = reads + writes;
  if (ops == 0) return 0.0;
  const auto max_hits =
      *std::max_element(server_accesses.begin(), server_accesses.end());
  return static_cast<double>(max_hits) / static_cast<double>(ops);
}

WorkloadReport run_workload(replica::InstantCluster& cluster,
                            const WorkloadSpec& spec, math::Rng& rng) {
  WorkloadReport report;
  run_workload_into(cluster, spec, rng, report);
  return report;
}

void run_workload_into(replica::InstantCluster& cluster,
                       const WorkloadSpec& spec, math::Rng& rng,
                       WorkloadReport& report) {
  PQS_REQUIRE(spec.operations >= 1, "workload needs operations");
  PQS_REQUIRE(spec.read_fraction >= 0.0 && spec.read_fraction <= 1.0,
              "read fraction");
  const ZipfianKeys keys(spec.keys, spec.zipf_exponent);
  report.reads = 0;
  report.writes = 0;
  report.stale_reads = 0;
  report.empty_reads = 0;
  report.server_accesses.assign(cluster.universe_size(), 0);
  std::unordered_map<std::uint64_t, std::int64_t> last_written;
  std::int64_t next_value = 0;
  // Operation scratch: the result quorum vectors keep their capacity, so
  // after the first few ops the loop body allocates nothing on the kMask
  // path.
  replica::WriteResult w;
  replica::ReadResult r;

  for (std::uint64_t op = 0; op < spec.operations; ++op) {
    const std::uint64_t key = keys.sample(rng);
    if (rng.chance(spec.read_fraction)) {
      ++report.reads;
      cluster.read_into(r, key);
      for (auto u : r.quorum) ++report.server_accesses[u];
      const auto expected = last_written.find(key);
      if (expected == last_written.end()) {
        // Never written: any answer counts as empty/unknown.
        ++report.empty_reads;
      } else if (!r.selection.has_value) {
        ++report.empty_reads;
        ++report.stale_reads;
      } else if (r.selection.record.value != expected->second) {
        ++report.stale_reads;
      }
    } else {
      ++report.writes;
      cluster.write_into(w, key, ++next_value);
      for (auto u : w.quorum) ++report.server_accesses[u];
      last_written[key] = next_value;
    }
  }
}

}  // namespace pqs::workload
