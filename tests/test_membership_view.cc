// quorum::MembershipView: the epoch-stamped dynamic membership unit.
//
// Covers the lattice laws the gossip layer leans on (merge commutativity,
// associativity, idempotence — fuzzed over random op sequences), the
// epoch/mask round-trips of join/leave/replace, the rank-translation draw
// (or_expand against a nth_live reference, full-live equivalence to the
// static R(n, q) draw), and fuzzed view-diffusion convergence over the
// real diffusion/ gossip engine.
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/random_subset_system.h"
#include "diffusion/gossip.h"
#include "math/rng.h"
#include "math/sampling.h"
#include "quorum/bitset.h"
#include "quorum/membership.h"
#include "replica/fault.h"
#include "replica/instant_cluster.h"
#include "replica/server.h"

namespace pqs::quorum {
namespace {

TEST(MembershipView, ConstructionAndAccessors) {
  const MembershipView view(10, 7);
  EXPECT_EQ(view.capacity(), 10u);
  EXPECT_EQ(view.live_count(), 7u);
  EXPECT_EQ(view.epoch(), 0u);
  for (ServerId u = 0; u < 10; ++u) EXPECT_EQ(view.is_live(u), u < 7);

  const MembershipView full = MembershipView::full(65);
  EXPECT_EQ(full.live_count(), 65u);
  EXPECT_TRUE(full.is_live(64));

  const MembershipView empty;
  EXPECT_EQ(empty.capacity(), 0u);
  EXPECT_EQ(empty.live_count(), 0u);
}

TEST(MembershipView, EpochMonotonicityAndRoundTrips) {
  MembershipView view(8, 6);  // live: {0..5}
  EXPECT_EQ(view.epoch(), 0u);

  view.join(7);
  EXPECT_EQ(view.epoch(), 1u);
  EXPECT_TRUE(view.is_live(7));
  EXPECT_EQ(view.live_count(), 7u);

  view.leave(7);
  EXPECT_EQ(view.epoch(), 2u);
  EXPECT_FALSE(view.is_live(7));
  EXPECT_EQ(view.live_count(), 6u);
  // join + leave restores the mask but never the epoch: generations only
  // move forward.
  EXPECT_TRUE(view.live_mask().equals(MembershipView(8, 6).live_mask()));

  view.replace(/*victim=*/2, /*joiner=*/6);
  EXPECT_EQ(view.epoch(), 3u);
  EXPECT_FALSE(view.is_live(2));
  EXPECT_TRUE(view.is_live(6));
  EXPECT_EQ(view.live_count(), 6u);

  // In-place replacement: same mask, new generation — the slot's occupant
  // changed even though the membership set did not.
  const QuorumBitset before = view.live_mask();
  view.replace(3, 3);
  EXPECT_EQ(view.epoch(), 4u);
  EXPECT_TRUE(view.live_mask().equals(before));
}

TEST(MembershipView, MergeAdoptsHigherEpochAndUnionsEqualEpochs) {
  MembershipView a(8, 8);
  MembershipView b = a;
  b.leave(3);  // epoch 1
  EXPECT_TRUE(a.merge(b));
  EXPECT_TRUE(a.equals(b));
  EXPECT_FALSE(a.merge(b));  // idempotent

  // Lower epoch never wins.
  const MembershipView stale(8, 8);
  EXPECT_FALSE(a.merge(stale));
  EXPECT_EQ(a.epoch(), 1u);

  // Equal epochs union their masks.
  MembershipView x(8, 8);
  MembershipView y(8, 8);
  x.leave(1);  // live = all but 1, epoch 1
  y.leave(5);  // live = all but 5, epoch 1
  MembershipView xy = x;
  EXPECT_TRUE(xy.merge(y));
  EXPECT_EQ(xy.epoch(), 1u);
  EXPECT_TRUE(xy.is_live(1));
  EXPECT_TRUE(xy.is_live(5));
  EXPECT_EQ(xy.live_count(), 8u);

  // The empty view is the bottom element: merging it changes nothing, and
  // merging *into* it adopts wholesale.
  MembershipView bottom;
  EXPECT_FALSE(xy.merge(bottom));
  EXPECT_TRUE(bottom.merge(xy));
  EXPECT_TRUE(bottom.equals(xy));
}

// A random view: a fresh full view advanced by `ops` random changes.
MembershipView random_view(std::uint32_t capacity, std::uint32_t ops,
                           math::Rng& rng) {
  MembershipView view = MembershipView::full(capacity);
  for (std::uint32_t i = 0; i < ops; ++i) {
    const auto rank =
        static_cast<std::uint32_t>(rng.below(view.live_count()));
    const ServerId victim = view.nth_live(rank);
    if (view.live_count() > capacity / 2 && rng.chance(0.4)) {
      view.leave(victim);
    } else if (view.live_count() < capacity && rng.chance(0.5)) {
      // Join the lowest dead slot.
      for (ServerId u = 0; u < capacity; ++u) {
        if (!view.is_live(u)) {
          view.join(u);
          break;
        }
      }
    } else {
      view.replace(victim, victim);
    }
  }
  return view;
}

TEST(MembershipView, FuzzedMergeLatticeLaws) {
  math::Rng rng(411);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t capacity = 4 + static_cast<std::uint32_t>(
                                           rng.below(90));
    const MembershipView a =
        random_view(capacity, static_cast<std::uint32_t>(rng.below(8)), rng);
    const MembershipView b =
        random_view(capacity, static_cast<std::uint32_t>(rng.below(8)), rng);
    const MembershipView c =
        random_view(capacity, static_cast<std::uint32_t>(rng.below(8)), rng);

    // Commutativity: a ⊔ b == b ⊔ a.
    MembershipView ab = a;
    ab.merge(b);
    MembershipView ba = b;
    ba.merge(a);
    ASSERT_TRUE(ab.equals(ba)) << "trial " << trial;

    // Associativity: (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c).
    MembershipView ab_c = ab;
    ab_c.merge(c);
    MembershipView bc = b;
    bc.merge(c);
    MembershipView a_bc = a;
    a_bc.merge(bc);
    ASSERT_TRUE(ab_c.equals(a_bc)) << "trial " << trial;

    // Idempotence: x ⊔ x == x, and re-merging an absorbed view reports no
    // change.
    MembershipView aa = a;
    ASSERT_FALSE(aa.merge(a));
    ASSERT_TRUE(aa.equals(a));
    ASSERT_FALSE(ab.merge(b)) << "trial " << trial;
  }
}

TEST(MembershipView, NthLiveMatchesScan) {
  math::Rng rng(733);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint32_t capacity =
        1 + static_cast<std::uint32_t>(rng.below(200));
    const MembershipView view =
        random_view(capacity, static_cast<std::uint32_t>(rng.below(12)), rng);
    std::vector<ServerId> live;
    for (ServerId u = 0; u < capacity; ++u) {
      if (view.is_live(u)) live.push_back(u);
    }
    ASSERT_EQ(live.size(), view.live_count());
    for (std::uint32_t r = 0; r < view.live_count(); ++r) {
      ASSERT_EQ(view.nth_live(r), live[r]) << "trial " << trial;
    }
  }
}

// or_expand (the scattered sibling of or_shifted) against the nth_live
// reference, fuzzed over live masks straddling word boundaries.
TEST(MembershipView, OrExpandMatchesRankTranslation) {
  math::Rng rng(947);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint32_t capacity =
        2 + static_cast<std::uint32_t>(rng.below(300));
    const MembershipView view =
        random_view(capacity, static_cast<std::uint32_t>(rng.below(10)), rng);
    const std::uint32_t live = view.live_count();
    const auto q = static_cast<std::uint32_t>(rng.below(live)) + 1;

    // Compact draw from identical rng states: expanded through the live
    // mask by the view, and here rank by rank through nth_live.
    math::Rng draw_a(1000 + trial);
    math::Rng draw_b = draw_a;
    QuorumBitset mask;
    std::vector<std::uint64_t> scratch;
    view.sample_live_mask(q, draw_a, mask, scratch);

    Quorum members;
    math::sample_without_replacement(live, q, draw_b, members);
    for (ServerId& u : members) u = view.nth_live(u);

    ASSERT_EQ(mask.count(), q);
    ASSERT_EQ(members.size(), q);
    QuorumBitset reference(capacity);
    reference.assign(members);
    ASSERT_TRUE(mask.equals(reference)) << "trial " << trial;
    // The expansion consumes nothing beyond the compact draw.
    ASSERT_EQ(draw_a.next(), draw_b.next()) << "trial " << trial;
    // Every drawn member is live.
    for (const ServerId u : members) ASSERT_TRUE(view.is_live(u));
  }
}

// With every slot live, the view-aware draw must consume the exact rng
// stream of the static R(n, q) mask draw — the bridge that keeps dynamic
// clusters bit-identical to static ones until the first membership event.
TEST(MembershipView, FullViewMatchesStaticRandomSubsetDraw) {
  const std::uint32_t n = 130, q = 27;
  const core::RandomSubsetSystem system(n, q);
  const MembershipView view = MembershipView::full(n);
  math::Rng rng_static(55);
  math::Rng rng_view(55);
  QuorumBitset static_mask, view_mask;
  std::vector<std::uint64_t> scratch;
  for (int i = 0; i < 25; ++i) {
    system.sample_mask(static_mask, rng_static);
    view.sample_live_mask(q, rng_view, view_mask, scratch);
    ASSERT_TRUE(static_mask.equals(view_mask)) << "draw " << i;
  }
  EXPECT_EQ(rng_static.next(), rng_view.next());
}

// View diffusion over the real gossip engine: one server learns a
// reconfiguration; epidemic push must converge every correct server to the
// supremum, across fuzzed fleet sizes, fanouts, seeds, and divergent
// equal-epoch partitions.
TEST(MembershipView, FuzzedGossipDiffusionConverges) {
  math::Rng fuzz(17);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint32_t n = 6 + static_cast<std::uint32_t>(fuzz.below(26));
    const auto fanout = static_cast<std::uint32_t>(1 + fuzz.below(3));
    math::Rng server_rng(100 + trial);
    std::vector<std::unique_ptr<replica::Server>> servers;
    servers.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      servers.push_back(std::make_unique<replica::Server>(
          i, replica::FaultMode::kCorrect, server_rng.fork()));
    }

    // A partition-shaped start: two servers hold divergent equal-epoch
    // views (each saw a different slot leave), the rest know nothing. The
    // supremum is the union at that epoch.
    MembershipView left = MembershipView::full(n);
    MembershipView right = MembershipView::full(n);
    left.leave(ServerId{0});
    right.leave(n - 1);
    servers[0]->install_membership(left);
    servers[n / 2]->install_membership(right);

    diffusion::GossipEngine engine({fanout, /*verify=*/false});
    math::Rng gossip_rng(900 + trial);
    std::uint64_t view_pushes = 0;
    std::uint64_t view_adoptions = 0;
    bool converged = false;
    for (int round = 0; round < 200 && !converged; ++round) {
      const auto stats = engine.run_round(servers, gossip_rng);
      view_pushes += stats.view_pushes;
      view_adoptions += stats.view_adoptions;
      converged =
          diffusion::GossipEngine::view_agreement(servers) == 1.0;
    }
    ASSERT_TRUE(converged) << "trial " << trial << " n=" << n
                           << " fanout=" << fanout;
    EXPECT_GT(view_pushes, 0u);
    // Everyone but the two initial holders adopted at least once, and the
    // holders adopted each other's half.
    EXPECT_GE(view_adoptions, static_cast<std::uint64_t>(n));
    // The converged view is the union: both departures visible, epoch 1.
    const auto& final_view = servers[1]->membership();
    EXPECT_EQ(final_view.epoch(), 1u);
    EXPECT_TRUE(final_view.is_live(ServerId{0}));
    EXPECT_TRUE(final_view.is_live(n - 1));
  }
}

// The cluster-level membership surface: reconfigurations bump the view
// epoch, replace installs a fresh server, and churn draws never touch the
// quorum stream.
TEST(MembershipView, InstantClusterMembershipRoundTrip) {
  const std::uint32_t n = 16, q = 5;
  replica::InstantCluster::Config cfg;
  cfg.quorums = std::make_shared<core::RandomSubsetSystem>(n, q);
  cfg.seed = 7;
  cfg.dynamic_membership = true;
  cfg.initial_live = 14;
  replica::InstantCluster cluster(cfg);
  EXPECT_EQ(cluster.view_epoch(), 0u);
  EXPECT_EQ(cluster.view().live_count(), 14u);

  // Write something so the replaced slot's emptiness is observable.
  auto w = cluster.write(/*variable=*/1, /*value=*/42);
  EXPECT_EQ(w.acks, q);

  cluster.join(15);
  EXPECT_EQ(cluster.view_epoch(), 1u);
  EXPECT_EQ(cluster.view().live_count(), 15u);
  // The joiner was installed fresh and told the current view.
  EXPECT_TRUE(cluster.server(15).membership().equals(cluster.view()));

  cluster.leave(15);
  EXPECT_EQ(cluster.view_epoch(), 2u);
  EXPECT_EQ(cluster.view().live_count(), 14u);

  const ServerId replaced = cluster.churn_replace();
  EXPECT_EQ(cluster.view_epoch(), 3u);
  EXPECT_TRUE(cluster.view().is_live(replaced));
  // The fresh occupant stores nothing yet.
  EXPECT_EQ(cluster.server(replaced).find(1), nullptr);
  EXPECT_EQ(cluster.server(replaced).writes_accepted(), 0u);

  cluster.run_churn(5);
  EXPECT_EQ(cluster.view_epoch(), 8u);
  EXPECT_EQ(cluster.view().live_count(), 14u);
}

}  // namespace
}  // namespace pqs::quorum
