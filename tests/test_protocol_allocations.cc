// The protocol path allocates nothing per operation once it is warm.
//
// InstantCluster draws each quorum into per-instance bitset scratch,
// reaches servers through their direct entry points and selects reads in
// reused scratch, so after a warm-up — in which result vectors, reply and
// selection scratch, and every replica's record table take their size —
// write_into, read_into and read_repair_into must not touch the heap.
// Checked on a static construction (plain and masking reads, the latter
// with forging servers), on a dynamic-membership view with holes, and on
// a workload-aware Strategy.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/random_subset_system.h"
#include "quorum/strategy.h"
#include "quorum/threshold.h"
#include "replica/fault.h"
#include "replica/instant_cluster.h"

// Counts every global allocation in this test binary.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pqs::replica {
namespace {

constexpr int kVariables = 3;

// Rounds of a write, a plain read and a read with repair, over a small
// fixed set of variables so the record tables stop growing. The results
// are the caller's, reused across rounds as a serving loop reuses them.
void run_rounds(InstantCluster& cluster, int rounds, WriteResult& w,
                ReadResult& r, std::uint64_t& sink) {
  for (int i = 0; i < rounds; ++i) {
    const VariableId variable = 1 + (i % kVariables);
    cluster.write_into(w, variable, i);
    cluster.read_into(r, variable);
    sink += w.acks + r.replies + r.selection.vouchers;
    cluster.read_repair_into(r, 1 + ((i + 1) % kVariables));
    sink += r.repairs;
  }
}

// Warm-up rounds first, then the counted rounds; the counted rounds must
// allocate nothing at all.
void expect_allocation_free(InstantCluster& cluster, const std::string& what) {
  WriteResult w;
  ReadResult r;
  std::uint64_t sink = 0;
  run_rounds(cluster, /*rounds=*/2000, w, r, sink);
  const std::uint64_t before = g_allocations.load();
  run_rounds(cluster, /*rounds=*/1000, w, r, sink);
  EXPECT_EQ(g_allocations.load() - before, 0u) << what;
  EXPECT_GT(sink, 0u) << what;
}

TEST(ProtocolAllocations, StaticSystemAllocatesNothingAfterWarmUp) {
  InstantCluster::Config cfg;
  cfg.quorums = std::make_shared<quorum::ThresholdSystem>(
      quorum::ThresholdSystem::majority(67));
  cfg.seed = 3;
  InstantCluster cluster(cfg);
  expect_allocation_free(cluster, cfg.quorums->name());
}

TEST(ProtocolAllocations, MaskingReadsWithForgersAllocateNothingAfterWarmUp) {
  InstantCluster::Config cfg;
  const auto system = std::make_shared<core::RandomSubsetSystem>(
      core::RandomSubsetSystem::with_byzantine(100, 44, 10,
                                               core::Regime::kMasking));
  cfg.quorums = system;
  cfg.mode = ReadMode::kMasking;
  cfg.read_threshold = system->read_threshold();
  cfg.seed = 5;
  InstantCluster cluster(cfg, FaultPlan::prefix(100, 10, FaultMode::kForge));
  expect_allocation_free(cluster, system->name() + " masking");
}

TEST(ProtocolAllocations, DynamicMembershipAllocatesNothingAfterWarmUp) {
  InstantCluster::Config cfg;
  cfg.quorums = std::make_shared<core::RandomSubsetSystem>(130, 27);
  cfg.seed = 7;
  cfg.dynamic_membership = true;
  cfg.initial_live = 100;
  InstantCluster cluster(cfg);
  // A view with holes: slot 7 retired, slot 120 joined.
  cluster.leave(7);
  cluster.join(120);
  expect_allocation_free(cluster, "dynamic membership");
}

TEST(ProtocolAllocations, StrategyAllocatesNothingAfterWarmUp) {
  auto base = std::make_shared<core::RandomSubsetSystem>(15, 6);
  InstantCluster::Config cfg;
  cfg.strategy = std::make_shared<quorum::Strategy>(
      std::move(base),
      std::vector<quorum::Quorum>{{0, 1, 2, 3, 4, 5}, {3, 4, 5, 6, 7, 8}},
      std::vector<double>{0.7, 0.3},
      std::vector<quorum::Quorum>{{0, 2, 4, 6, 8, 10}, {4, 5, 6, 7, 12, 14}},
      std::vector<double>{0.5, 0.5});
  cfg.seed = 11;
  InstantCluster cluster(cfg);
  expect_allocation_free(cluster, cfg.strategy->name());
}

}  // namespace
}  // namespace pqs::replica
