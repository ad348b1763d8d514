// Golden stream pins for the quorum draw and the protocol path.
//
// Every construction draws through one primitive (sample_mask, batched as
// sample_masks), and the protocol stack runs one path over it. The
// constants below fix what that path produces for fixed seeds: checksums
// of the first 1000 masks each construction draws (one at a time and in
// chunks of 32, which must agree), of MembershipView draws over a full and
// a partial view, and of InstantCluster and SimCluster operation outcomes,
// together with the rng word that follows each run. They were recorded
// from the implementation in which every construction still carried its
// own sorted-vector draw and the protocol stack a second, allocating draw
// path, which the old cross-path tests held equal to the mask path; the
// pins keep today's single path on exactly those streams.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/random_subset_system.h"
#include "math/rng.h"
#include "quorum/bitset.h"
#include "quorum/grid.h"
#include "quorum/membership.h"
#include "quorum/set_system.h"
#include "quorum/singleton.h"
#include "quorum/strategy.h"
#include "quorum/threshold.h"
#include "quorum/wall.h"
#include "quorum/weighted.h"
#include "replica/instant_cluster.h"
#include "replica/sim_cluster.h"

namespace pqs {
namespace {

using quorum::QuorumBitset;
using quorum::QuorumSystem;

// splitmix64's finalizer over (h ^ v): every input bit reaches every
// output bit, so one flipped member or count anywhere changes the sum.
std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  std::uint64_t z = (h ^ v) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t fold_mask(std::uint64_t h, const QuorumBitset& mask) {
  h = fold(h, mask.universe_size());
  for (std::size_t i = 0; i < mask.word_count(); ++i) {
    h = fold(h, mask.words()[i]);
  }
  return h;
}

std::uint64_t fold_quorum(std::uint64_t h, const quorum::Quorum& q) {
  h = fold(h, q.size());
  for (const quorum::ServerId u : q) h = fold(h, u);
  return h;
}

// The fixed strategy: explicit read and write supports over R(15, 6) with
// lopsided probabilities, so alias draws exercise both bucket outcomes.
std::shared_ptr<const quorum::Strategy> make_strategy() {
  auto base = std::make_shared<core::RandomSubsetSystem>(15, 6);
  std::vector<quorum::Quorum> reads = {{0, 1, 2, 3, 4, 5},
                                       {3, 4, 5, 6, 7, 8},
                                       {6, 7, 8, 9, 10, 11},
                                       {9, 10, 11, 12, 13, 14}};
  std::vector<quorum::Quorum> writes = {{0, 2, 4, 6, 8, 10},
                                        {1, 3, 5, 7, 9, 11},
                                        {4, 5, 6, 7, 12, 14}};
  return std::make_shared<quorum::Strategy>(
      std::move(base), std::move(reads),
      std::vector<double>{0.4, 0.3, 0.2, 0.1}, std::move(writes),
      std::vector<double>{0.5, 0.3, 0.2});
}

struct Pinned {
  const char* label;
  std::shared_ptr<const QuorumSystem> (*make)();
  // sample_mask and sample_masks over 1000 draws from seed 0x5eed.
  std::uint64_t masks;
  std::uint64_t masks_rng_tail;
  // InstantCluster write/read/read-repair rounds, without and with faults.
  std::uint64_t cluster;
  std::uint64_t cluster_faulty;
};

const Pinned kPinned[] = {
    {"threshold",
     [] {
       return std::shared_ptr<const QuorumSystem>(
           std::make_shared<quorum::ThresholdSystem>(
               quorum::ThresholdSystem::majority(67)));
     },
     0x2419b32d00662294ULL, 0xbf17bca1c0e23b99ULL,
     0xbfcbfb0e1e70f81dULL, 0xbd016d45bd21a6abULL},
    {"grid",
     [] {
       return std::shared_ptr<const QuorumSystem>(
           std::make_shared<quorum::GridSystem>(7, 7, 2));
     },
     0x7ef701ac3240dcc9ULL, 0xf3823bb89a0db944ULL,
     0x7d4c8e63a292a86cULL, 0x30ad2168724ca008ULL},
    {"wall",
     [] {
       return std::shared_ptr<const QuorumSystem>(
           std::make_shared<quorum::WallSystem>(
               std::vector<std::uint32_t>{40, 30, 20, 10}));
     },
     0x4c12abb4f05c5afcULL, 0x2f1aad1066fd5b42ULL,
     0x0b16dde4b84b1360ULL, 0xdaf927cd1c5b4ccdULL},
    {"weighted",
     [] {
       std::vector<std::uint32_t> votes(70, 1);
       for (int i = 0; i < 10; ++i) votes[i] = 5;
       return std::shared_ptr<const QuorumSystem>(
           std::make_shared<quorum::WeightedVotingSystem>(votes, 61));
     },
     0xdf0bec5ac6cf47c7ULL, 0x5aa55db19b2b63d2ULL,
     0x2a53ea84f643f289ULL, 0x74423ebcc6cb4919ULL},
    {"singleton",
     [] {
       return std::shared_ptr<const QuorumSystem>(
           std::make_shared<quorum::SingletonSystem>(66, 65));
     },
     0x96a07dfab2efc846ULL, 0xef33f17055244b74ULL,
     0x409410b8033c0cacULL, 0x270674b7baba8bb4ULL},
    {"set_system",
     [] {
       return std::shared_ptr<const QuorumSystem>(
           std::make_shared<quorum::SetSystem>(
               quorum::SetSystem::all_subsets(7, 4)));
     },
     0x7ffc39f73a51007aULL, 0x7a1dbc4faa16599aULL,
     0x05d47e8fa10f73d2ULL, 0xa91b8ef8e79a3074ULL},
    {"strategy",
     [] { return std::shared_ptr<const QuorumSystem>(make_strategy()); },
     0x5ab0bcfef29aab8dULL, 0x7a1dbc4faa16599aULL,
     0xf0c8d7d1fbe1a708ULL, 0x05616c2d31ef2bd1ULL},
    {"random_subset",
     [] {
       return std::shared_ptr<const QuorumSystem>(
           std::make_shared<core::RandomSubsetSystem>(130, 27));
     },
     0x0f9951e0f0fd3929ULL, 0x11d729a3d2e047c3ULL,
     0xa5bdd11fa32533d3ULL, 0xff4661ce8d9c7fccULL},
};

constexpr std::uint64_t kDrawSeed = 0x5eed;
constexpr int kDraws = 1000;

TEST(GoldenStreams, SampleMaskStreams) {
  for (const Pinned& pin : kPinned) {
    SCOPED_TRACE(pin.label);
    const auto sys = pin.make();
    math::Rng rng(kDrawSeed);
    QuorumBitset mask;
    std::uint64_t h = 0;
    for (int i = 0; i < kDraws; ++i) {
      sys->sample_mask(mask, rng);
      h = fold_mask(h, mask);
    }
    EXPECT_EQ(h, pin.masks) << std::hex << "0x" << h;
    const std::uint64_t tail = rng.next();
    EXPECT_EQ(tail, pin.masks_rng_tail) << std::hex << "0x" << tail;
  }
}

TEST(GoldenStreams, SampleMasksChunksOf32) {
  for (const Pinned& pin : kPinned) {
    SCOPED_TRACE(pin.label);
    const auto sys = pin.make();
    math::Rng rng(kDrawSeed);
    std::vector<QuorumBitset> chunk(32);
    std::uint64_t h = 0;
    for (int done = 0; done < kDraws;) {
      const int count = std::min(32, kDraws - done);
      sys->sample_masks(chunk.data(), static_cast<std::size_t>(count), rng);
      for (int i = 0; i < count; ++i) h = fold_mask(h, chunk[i]);
      done += count;
    }
    EXPECT_EQ(h, pin.masks) << std::hex << "0x" << h;
    const std::uint64_t tail = rng.next();
    EXPECT_EQ(tail, pin.masks_rng_tail) << std::hex << "0x" << tail;
  }
}

// R(live, 27) draws over a full 130-slot view (which must match the
// static R(130, 27) stream above) and over a 100-member view with holes.
TEST(GoldenStreams, MembershipViewLiveMasks) {
  auto run = [](const quorum::MembershipView& view, std::uint64_t& tail) {
    math::Rng rng(kDrawSeed);
    QuorumBitset mask;
    std::vector<std::uint64_t> compact;
    std::uint64_t h = 0;
    for (int i = 0; i < kDraws; ++i) {
      view.sample_live_mask(27, rng, mask, compact);
      h = fold_mask(h, mask);
    }
    tail = rng.next();
    return h;
  };
  std::uint64_t tail = 0;
  const std::uint64_t full = run(quorum::MembershipView::full(130), tail);
  EXPECT_EQ(full, kPinned[7].masks) << std::hex << "0x" << full;
  EXPECT_EQ(tail, kPinned[7].masks_rng_tail);

  quorum::MembershipView partial(130, 100);
  partial.leave(7);
  partial.join(120);
  partial.replace(50, 125);
  const std::uint64_t h = run(partial, tail);
  EXPECT_EQ(h, 0x1536407315fe55ecULL) << std::hex << "0x" << h;
  EXPECT_EQ(tail, 0x11d729a3d2e047c3ULL) << std::hex << "0x" << tail;
}

// Every field one operation reveals, folded over 40 rounds of write, read
// and read-repair, then the cluster rng's next word.
std::uint64_t run_cluster(replica::InstantCluster& cluster) {
  replica::WriteResult w;
  replica::ReadResult r;
  std::uint64_t h = 0;
  auto fold_read = [&] {
    h = fold_quorum(h, r.quorum);
    h = fold(h, r.replies);
    h = fold(h, r.selection.has_value);
    h = fold(h, static_cast<std::uint64_t>(r.selection.record.value));
    h = fold(h, r.selection.record.timestamp);
    h = fold(h, r.selection.vouchers);
    h = fold(h, r.selection.rejected);
    h = fold(h, r.repairs);
  };
  for (int i = 0; i < 40; ++i) {
    const replica::VariableId variable = 1 + (i % 3);
    cluster.write_into(w, variable, i);
    h = fold_quorum(h, w.quorum);
    h = fold(h, w.acks);
    h = fold(h, w.timestamp);
    cluster.read_into(r, variable);
    fold_read();
    cluster.read_repair_into(r, 1 + ((i + 1) % 3));
    fold_read();
  }
  return fold(h, cluster.rng().next());
}

replica::InstantCluster::Config cluster_config(
    const std::shared_ptr<const QuorumSystem>& sys) {
  replica::InstantCluster::Config cfg;
  // A strategy is installed as such, so writes and reads draw from its
  // two distributions.
  if (auto strategy =
          std::dynamic_pointer_cast<const quorum::Strategy>(sys)) {
    cfg.strategy = std::move(strategy);
  } else {
    cfg.quorums = sys;
  }
  cfg.seed = 23;
  return cfg;
}

TEST(GoldenStreams, InstantClusterOutcomes) {
  for (const Pinned& pin : kPinned) {
    SCOPED_TRACE(pin.label);
    const auto sys = pin.make();
    replica::InstantCluster cluster(cluster_config(sys));
    const std::uint64_t h = run_cluster(cluster);
    EXPECT_EQ(h, pin.cluster) << std::hex << "0x" << h;
  }
}

TEST(GoldenStreams, InstantClusterOutcomesUnderFaults) {
  for (const Pinned& pin : kPinned) {
    SCOPED_TRACE(pin.label);
    const auto sys = pin.make();
    const std::uint32_t n = sys->universe_size();
    auto plan =
        replica::FaultPlan::prefix(n, n / 8, replica::FaultMode::kCrash);
    plan.set_mode(n - 1, replica::FaultMode::kForge);
    replica::InstantCluster cluster(cluster_config(sys), plan);
    const std::uint64_t h = run_cluster(cluster);
    EXPECT_EQ(h, pin.cluster_faulty) << std::hex << "0x" << h;
  }
}

// Timed quorums: draws over a view with holes, with churn between rounds
// drawn from the dedicated churn stream.
TEST(GoldenStreams, DynamicMembershipClusterOutcomes) {
  replica::InstantCluster::Config cfg;
  cfg.quorums = std::make_shared<core::RandomSubsetSystem>(130, 27);
  cfg.seed = 23;
  cfg.dynamic_membership = true;
  cfg.initial_live = 100;
  replica::InstantCluster cluster(cfg);
  cluster.leave(7);
  cluster.join(120);
  std::uint64_t h = run_cluster(cluster);
  cluster.run_churn(25);
  h = fold(h, run_cluster(cluster));
  EXPECT_EQ(h, 0x64f26f4ebe925967ULL) << std::hex << "0x" << h;
}

// The discrete-event client: draws from its private stream, contacts the
// quorum over the simulated network.
TEST(GoldenStreams, SimClusterClientRun) {
  replica::SimCluster::Config cfg;
  cfg.quorums = std::make_shared<quorum::GridSystem>(7, 7, 2);
  cfg.latency = {/*base=*/100, /*jitter_mean=*/40, /*drop_probability=*/0.0};
  cfg.seed = 5;
  replica::SimCluster cluster(cfg);
  std::uint64_t h = 0;
  for (int i = 0; i < 15; ++i) {
    const auto w = cluster.write_sync(7, i);
    h = fold_quorum(h, w.quorum);
    h = fold(h, w.acks);
    h = fold(h, w.timestamp);
    h = fold(h, w.complete);
    const auto r = cluster.read_sync(7);
    h = fold_quorum(h, r.quorum);
    h = fold(h, r.replies);
    h = fold(h, r.selection.has_value);
    h = fold(h, static_cast<std::uint64_t>(r.selection.record.value));
    h = fold(h, r.complete);
  }
  h = fold(h, static_cast<std::uint64_t>(cluster.simulator().now()));
  EXPECT_EQ(h, 0x9ee51101ad77f63cULL) << std::hex << "0x" << h;
}

}  // namespace
}  // namespace pqs
