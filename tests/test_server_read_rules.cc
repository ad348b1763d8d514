#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "crypto/mac.h"
#include "math/rng.h"
#include "replica/read_rules.h"
#include "replica/server.h"

// Counts every global allocation in this test binary, so the store tests
// can assert how often the record store allocates, and the selection
// tests that masking reads allocate nothing once their scratch is warm.
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

crypto::Signer test_signer() { return crypto::Signer::from_seed(2024); }

Server make_server(std::uint32_t id, FaultMode mode) {
  return Server(id, mode, math::Rng(id + 1),
                std::make_shared<const ColludePlan>());
}

ReadReply reply_of(const std::vector<Outbound>& out) {
  EXPECT_EQ(out.size(), 1u);
  const auto* r = std::get_if<ReadReply>(&out[0].message);
  EXPECT_NE(r, nullptr);
  return *r;
}

TEST(Server, CorrectWriteReadRoundTrip) {
  auto server = make_server(0, FaultMode::kCorrect);
  const auto rec = test_signer().sign(1, 42, 100, 1);
  const auto acks = server.process(99, WriteRequest{5, rec});
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].to, 99u);
  const auto* ack = std::get_if<WriteAck>(&acks[0].message);
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(ack->op, 5u);

  const auto r = reply_of(server.process(99, ReadRequest{6, 1}));
  EXPECT_TRUE(r.has_value);
  EXPECT_EQ(r.record.value, 42);
  EXPECT_EQ(r.record.timestamp, 100u);
}

TEST(Server, ReadOfUnknownVariableIsEmpty) {
  auto server = make_server(0, FaultMode::kCorrect);
  const auto r = reply_of(server.process(7, ReadRequest{1, 999}));
  EXPECT_FALSE(r.has_value);
}

TEST(Server, KeepsHighestTimestampOnly) {
  auto server = make_server(0, FaultMode::kCorrect);
  const auto signer = test_signer();
  server.process(1, WriteRequest{1, signer.sign(1, 10, 200, 1)});
  server.process(1, WriteRequest{2, signer.sign(1, 20, 100, 1)});  // older
  const auto r = reply_of(server.process(1, ReadRequest{3, 1}));
  EXPECT_EQ(r.record.value, 10);
  EXPECT_EQ(r.record.timestamp, 200u);
  server.process(1, WriteRequest{4, signer.sign(1, 30, 300, 1)});  // newer
  const auto r2 = reply_of(server.process(1, ReadRequest{5, 1}));
  EXPECT_EQ(r2.record.value, 30);
}

TEST(Server, CrashedServerIsSilent) {
  auto server = make_server(0, FaultMode::kCrash);
  EXPECT_TRUE(server.process(1, WriteRequest{1, test_signer().sign(1, 1, 1, 1)})
                  .empty());
  EXPECT_TRUE(server.process(1, ReadRequest{2, 1}).empty());
}

TEST(Server, SuppressingServerIsSilentButTracked) {
  auto server = make_server(0, FaultMode::kSuppress);
  EXPECT_TRUE(server.process(1, WriteRequest{1, test_signer().sign(1, 1, 1, 1)})
                  .empty());
  EXPECT_TRUE(server.process(1, ReadRequest{2, 1}).empty());
}

TEST(Server, StaleReplayServesFirstValueWithValidTag) {
  auto server = make_server(0, FaultMode::kStaleReplay);
  const auto signer = test_signer();
  const crypto::Verifier verifier(signer.key());
  server.process(1, WriteRequest{1, signer.sign(1, 10, 100, 1)});
  server.process(1, WriteRequest{2, signer.sign(1, 20, 200, 1)});
  const auto r = reply_of(server.process(1, ReadRequest{3, 1}));
  ASSERT_TRUE(r.has_value);
  EXPECT_EQ(r.record.value, 10);         // the stale value
  EXPECT_EQ(r.record.timestamp, 100u);   // with its honest old timestamp
  EXPECT_TRUE(verifier.verify(r.record));  // and a *valid* tag
}

TEST(Server, ForgeProducesInvalidTagAndHugeTimestamp) {
  auto server = make_server(0, FaultMode::kForge);
  const auto signer = test_signer();
  const crypto::Verifier verifier(signer.key());
  server.process(1, WriteRequest{1, signer.sign(1, 10, 100, 1)});
  const auto r = reply_of(server.process(1, ReadRequest{2, 1}));
  ASSERT_TRUE(r.has_value);
  EXPECT_GT(r.record.timestamp, 100u);
  EXPECT_FALSE(verifier.verify(r.record));
}

TEST(Server, ColludersAgreeOnForgedRecord) {
  const auto plan = std::make_shared<const ColludePlan>();
  Server a(0, FaultMode::kCollude, math::Rng(1), plan);
  Server b(1, FaultMode::kCollude, math::Rng(2), plan);
  const auto signer = test_signer();
  a.process(9, WriteRequest{1, signer.sign(1, 10, 100, 1)});
  b.process(9, WriteRequest{2, signer.sign(1, 10, 100, 1)});
  const auto ra = reply_of(a.process(9, ReadRequest{3, 1}));
  const auto rb = reply_of(b.process(9, ReadRequest{4, 1}));
  EXPECT_EQ(ra.record, rb.record);  // identical lie
  EXPECT_EQ(ra.record.value, plan->forged(1).value);
}

TEST(Server, AdoptIsMonotone) {
  auto server = make_server(0, FaultMode::kCorrect);
  const auto signer = test_signer();
  EXPECT_TRUE(server.adopt(signer.sign(1, 5, 50, 1)));
  EXPECT_FALSE(server.adopt(signer.sign(1, 4, 40, 1)));   // older
  EXPECT_FALSE(server.adopt(signer.sign(1, 5, 50, 1)));   // equal
  EXPECT_TRUE(server.adopt(signer.sign(1, 6, 60, 1)));
  EXPECT_EQ(server.find(1)->value, 6);
}

TEST(Server, GossipAdoptionRespectsVerifier) {
  auto server = make_server(0, FaultMode::kCorrect);
  const auto signer = test_signer();
  server.set_gossip_verifier(crypto::Verifier(signer.key()));
  // Valid gossip adopted.
  server.process(1, Message{GossipPush{signer.sign(1, 7, 70, 1)}});
  ASSERT_NE(server.find(1), nullptr);
  EXPECT_EQ(server.find(1)->value, 7);
  // Forged gossip (bad tag) rejected.
  auto fake = signer.sign(1, 8, 80, 1);
  fake.tag ^= 1;
  server.process(1, Message{GossipPush{fake}});
  EXPECT_EQ(server.find(1)->value, 7);
}

TEST(Server, GossipRecordsPerMode) {
  const auto signer = test_signer();
  const auto rec = signer.sign(1, 10, 100, 1);
  for (auto mode : {FaultMode::kCorrect, FaultMode::kStaleReplay,
                    FaultMode::kForge, FaultMode::kCollude}) {
    auto server = make_server(0, mode);
    server.process(1, WriteRequest{1, rec});
    const auto records = server.gossip_records();
    ASSERT_EQ(records.size(), 1u) << fault_mode_name(mode);
    if (mode == FaultMode::kCorrect || mode == FaultMode::kStaleReplay) {
      EXPECT_EQ(records[0], rec);
    } else {
      EXPECT_NE(records[0], rec);
    }
  }
  for (auto mode : {FaultMode::kCrash, FaultMode::kSuppress}) {
    auto server = make_server(0, mode);
    server.process(1, WriteRequest{1, rec});
    EXPECT_TRUE(server.gossip_records().empty()) << fault_mode_name(mode);
  }
}

// ---- Record store -----------------------------------------------------------

crypto::SignedRecord record(VariableId variable, std::int64_t value,
                            std::uint64_t timestamp) {
  crypto::SignedRecord r;
  r.variable = variable;
  r.value = value;
  r.timestamp = timestamp;
  r.writer = 1;
  r.tag = static_cast<std::uint64_t>(value) * 31 + timestamp;
  return r;
}

std::optional<crypto::SignedRecord> read_as(Server& server, FaultMode mode,
                                            VariableId variable) {
  const FaultMode before = server.mode();
  server.set_mode(mode);
  ReadReply reply;
  EXPECT_TRUE(server.serve_read(ReadRequest{1, variable}, reply));
  server.set_mode(before);
  if (!reply.has_value) return std::nullopt;
  return reply.record;
}

bool by_variable(const crypto::SignedRecord& a, const crypto::SignedRecord& b) {
  return a.variable < b.variable;
}

std::vector<crypto::SignedRecord> sorted(std::vector<crypto::SignedRecord> v) {
  std::sort(v.begin(), v.end(), by_variable);
  return v;
}

TEST(ServerStore, ModeFlipsServeFirstOrLatest) {
  auto server = make_server(0, FaultMode::kCorrect);
  const auto r1 = record(1, 10, 100);
  const auto r2 = record(1, 20, 200);
  EXPECT_TRUE(server.adopt(r1));
  EXPECT_TRUE(server.adopt(r2));
  server.set_mode(FaultMode::kStaleReplay);
  EXPECT_EQ(read_as(server, FaultMode::kStaleReplay, 1), r1);
  EXPECT_EQ(server.gossip_records(), std::vector<crypto::SignedRecord>{r1});
  server.set_mode(FaultMode::kCorrect);
  EXPECT_EQ(read_as(server, FaultMode::kCorrect, 1), r2);
  ASSERT_NE(server.find(1), nullptr);
  EXPECT_EQ(*server.find(1), r2);
  EXPECT_EQ(server.gossip_records(), std::vector<crypto::SignedRecord>{r2});
}

TEST(ServerStore, RecordHeldWhileFaultyThenAdoptedWhileCorrect) {
  auto server = make_server(0, FaultMode::kStaleReplay);
  const auto held = record(1, 10, 500);
  EXPECT_TRUE(server.apply_write(WriteRequest{1, held}));
  // Held only as the first record: no latest, nothing to snapshot.
  EXPECT_EQ(server.find(1), nullptr);
  EXPECT_TRUE(server.snapshot().empty());
  EXPECT_EQ(server.gossip_records(), std::vector<crypto::SignedRecord>{held});
  // A second faulty write does not replace the first record.
  EXPECT_TRUE(server.apply_write(WriteRequest{2, record(1, 11, 600)}));
  EXPECT_EQ(read_as(server, FaultMode::kStaleReplay, 1), held);

  server.set_mode(FaultMode::kCorrect);
  EXPECT_EQ(read_as(server, FaultMode::kCorrect, 1), std::nullopt);
  // The first honest record is installed even though it is older than the
  // held one: the held record never counted as the latest.
  const auto older = record(1, 12, 100);
  EXPECT_TRUE(server.adopt(older));
  ASSERT_NE(server.find(1), nullptr);
  EXPECT_EQ(*server.find(1), older);
  EXPECT_EQ(server.snapshot(), std::vector<crypto::SignedRecord>{older});
  EXPECT_EQ(read_as(server, FaultMode::kStaleReplay, 1), held);
  EXPECT_FALSE(server.adopt(record(1, 13, 50)));
  EXPECT_TRUE(server.adopt(record(1, 14, 150)));
  EXPECT_EQ(server.find(1)->value, 14);
  EXPECT_EQ(read_as(server, FaultMode::kStaleReplay, 1), held);
  EXPECT_EQ(server.writes_superseded(), 0u);
}

// The store against a std::map model of the paper's server: the first
// record ever accepted per variable and the highest-timestamped one.
TEST(ServerStore, RandomizedAgainstReference) {
  struct Ref {
    std::optional<crypto::SignedRecord> first;
    std::optional<crypto::SignedRecord> latest;
  };
  std::map<VariableId, Ref> ref;
  auto server = make_server(0, FaultMode::kCorrect);
  math::Rng rng(99);
  std::int64_t next_value = 0;
  const auto draw_variable = [&rng]() -> VariableId {
    // Mostly a dense range that keeps growing the table, some full-width
    // keys, and variable 0.
    const std::uint64_t kind = rng.below(10);
    if (kind == 0) return rng.next();
    if (kind == 1) return 0;
    return rng.below(40000);
  };
  for (int step = 0; step < 100000; ++step) {
    const std::uint64_t op = rng.below(100);
    if (op < 2) {
      server.set_mode(server.mode() == FaultMode::kCorrect
                          ? FaultMode::kStaleReplay
                          : FaultMode::kCorrect);
      continue;
    }
    const VariableId v = draw_variable();
    Ref& r = ref[v];
    if (op < 40) {
      const auto rec = record(v, ++next_value, rng.below(64));
      const bool correct = server.mode() == FaultMode::kCorrect;
      bool expect_adopted = false;
      if (!r.first) r.first = rec;
      if (correct) {
        expect_adopted = !r.latest || rec.timestamp > r.latest->timestamp;
        if (expect_adopted) r.latest = rec;
      }
      const std::uint64_t superseded = server.writes_superseded();
      ASSERT_TRUE(server.apply_write(WriteRequest{1, rec}));
      ASSERT_EQ(server.writes_superseded() - superseded,
                correct && !expect_adopted ? 1u : 0u);
    } else if (op < 70) {
      const auto rec = record(v, ++next_value, rng.below(64));
      if (server.mode() != FaultMode::kCorrect) continue;
      if (!r.first) r.first = rec;
      const bool expect_adopted =
          !r.latest || rec.timestamp > r.latest->timestamp;
      if (expect_adopted) r.latest = rec;
      ASSERT_EQ(server.adopt(rec), expect_adopted) << "step " << step;
    } else if (op < 90) {
      const auto* found = server.find(v);
      ASSERT_EQ(found != nullptr, r.latest.has_value()) << "step " << step;
      if (found != nullptr) ASSERT_EQ(*found, *r.latest);
    } else {
      ASSERT_EQ(read_as(server, FaultMode::kStaleReplay, v), r.first)
          << "step " << step;
    }
  }
  std::vector<crypto::SignedRecord> latest, first;
  for (const auto& [v, r] : ref) {
    if (r.latest) latest.push_back(*r.latest);
    if (r.first) first.push_back(*r.first);
  }
  EXPECT_EQ(sorted(server.snapshot()), latest);
  server.set_mode(FaultMode::kCorrect);
  EXPECT_EQ(sorted(server.gossip_records()), latest);
  server.set_mode(FaultMode::kStaleReplay);
  EXPECT_EQ(sorted(server.gossip_records()), first);
  server.set_mode(FaultMode::kForge);
  EXPECT_EQ(server.gossip_records().size(), first.size());
  server.set_mode(FaultMode::kCollude);
  EXPECT_EQ(server.gossip_records().size(), first.size());
}

TEST(ServerStore, SnapshotAndGossipAreSetsInARepeatableOrder) {
  const auto run = [] {
    auto server = make_server(0, FaultMode::kCorrect);
    math::Rng rng(5);
    std::vector<crypto::SignedRecord> expected_latest;
    for (std::int64_t i = 0; i < 3000; ++i) {
      const auto rec = record(rng.next(), i, 7);
      server.adopt(rec);
      expected_latest.push_back(rec);
    }
    // Rewrite a third of them so their first records move aside.
    for (std::size_t i = 0; i < expected_latest.size(); i += 3) {
      auto newer = expected_latest[i];
      newer.value += 100000;
      newer.timestamp = 8;
      EXPECT_TRUE(server.adopt(newer));
      expected_latest[i] = newer;
    }
    const auto snapshot = server.snapshot();
    EXPECT_EQ(sorted(snapshot), sorted(expected_latest));
    server.set_mode(FaultMode::kStaleReplay);
    const auto stale = server.gossip_records();
    EXPECT_EQ(stale.size(), expected_latest.size());
    for (const auto& r : stale) EXPECT_EQ(r.timestamp, 7u);
    return std::make_pair(snapshot, stale);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(ServerStore, AllocatesOnlyToGrow) {
  auto server = make_server(0, FaultMode::kCorrect);
  constexpr VariableId kKeys = 1 << 16;
  const auto allocations_for = [&server](std::uint64_t timestamp) {
    const std::uint64_t before = g_allocations.load();
    for (VariableId v = 0; v < kKeys; ++v) {
      server.adopt(record(v * 0x9e3779b97f4a7c15ULL, 1, timestamp));
    }
    return g_allocations.load() - before;
  };
  // Fresh keys: a logarithmic number of growths, not one node per record.
  EXPECT_LE(allocations_for(1), 2u * 16u + 4u);
  // The first rewrite of each key keeps its first record aside (growing
  // that side table); later rewrites allocate nothing.
  EXPECT_LE(allocations_for(2), 2u * 16u + 4u);
  EXPECT_EQ(allocations_for(3), 0u);
  EXPECT_EQ(allocations_for(3), 0u);  // not newer: superseded
}

// ---- Read-selection rules ---------------------------------------------------

std::vector<ReadReply> replies_from(
    const std::vector<crypto::SignedRecord>& records) {
  std::vector<ReadReply> out;
  std::uint32_t id = 0;
  for (const auto& r : records) {
    ReadReply reply;
    reply.op = 1;
    reply.server = id++;
    reply.has_value = true;
    reply.record = r;
    out.push_back(reply);
  }
  return out;
}

TEST(ReadRules, PlainPicksHighestTimestamp) {
  const auto signer = test_signer();
  const auto sel = select_plain(replies_from({signer.sign(1, 10, 100, 1),
                                              signer.sign(1, 30, 300, 1),
                                              signer.sign(1, 20, 200, 1)}));
  ASSERT_TRUE(sel.has_value);
  EXPECT_EQ(sel.record.value, 30);
}

TEST(ReadRules, PlainEmptyRepliesGiveBottom) {
  EXPECT_FALSE(select_plain({}).has_value);
  std::vector<ReadReply> empty_replies(3);
  EXPECT_FALSE(select_plain(empty_replies).has_value);
}

TEST(ReadRules, PlainIsFooledByForgery) {
  // Without verification the forged huge-timestamp record wins — this is
  // why plain reads are only for benign failures.
  const auto signer = test_signer();
  auto forged = signer.sign(1, 666, 999999, 1);
  forged.tag ^= 1;
  const auto sel = select_plain(
      replies_from({signer.sign(1, 10, 100, 1), forged}));
  EXPECT_EQ(sel.record.value, 666);
}

TEST(ReadRules, DisseminationRejectsForgery) {
  const auto signer = test_signer();
  const crypto::Verifier verifier(signer.key());
  auto forged = signer.sign(1, 666, 999999, 1);
  forged.tag ^= 1;
  const auto sel = select_dissemination(
      replies_from({signer.sign(1, 10, 100, 1), forged}), verifier);
  ASSERT_TRUE(sel.has_value);
  EXPECT_EQ(sel.record.value, 10);  // forgery filtered, genuine record wins
}

TEST(ReadRules, DisseminationAcceptsStaleButGenuine) {
  // A stale replay has a valid tag; among genuine records the highest
  // timestamp wins, so staleness only matters if no fresher record arrives.
  const auto signer = test_signer();
  const crypto::Verifier verifier(signer.key());
  const auto sel = select_dissemination(
      replies_from({signer.sign(1, 10, 100, 1), signer.sign(1, 30, 300, 1)}),
      verifier);
  EXPECT_EQ(sel.record.value, 30);
}

TEST(ReadRules, DisseminationAllForgedGivesBottom) {
  const auto signer = test_signer();
  const crypto::Verifier verifier(signer.key());
  auto f1 = signer.sign(1, 1, 10, 1);
  f1.tag ^= 2;
  auto f2 = signer.sign(1, 2, 20, 1);
  f2.tag ^= 4;
  EXPECT_FALSE(select_dissemination(replies_from({f1, f2}), verifier)
                   .has_value);
}

TEST(ReadRules, MaskingRequiresKVouchers) {
  const auto signer = test_signer();
  const auto fresh = signer.sign(1, 30, 300, 1);
  const auto stale = signer.sign(1, 10, 100, 1);
  // fresh has 2 vouchers, stale has 3.
  const auto replies = replies_from({fresh, fresh, stale, stale, stale});
  MaskingScratch scratch;
  const auto sel2 = select_masking(replies, 2, scratch);
  ASSERT_TRUE(sel2.has_value);
  EXPECT_EQ(sel2.record.value, 30);  // both qualify; freshest wins
  const auto sel3 = select_masking(replies, 3, scratch);
  ASSERT_TRUE(sel3.has_value);
  EXPECT_EQ(sel3.record.value, 10);  // only the stale one clears k=3
  EXPECT_EQ(sel3.vouchers, 3u);
  EXPECT_FALSE(select_masking(replies, 4, scratch).has_value);  // none clears
}

TEST(ReadRules, MaskingDefeatsSubThresholdCollusion) {
  const auto signer = test_signer();
  const ColludePlan plan;
  const auto genuine = signer.sign(1, 10, 100, 1);
  // k-1 colluders agree on a forged super-fresh record; k correct servers
  // return the genuine one.
  std::vector<crypto::SignedRecord> records{plan.forged(1), plan.forged(1),
                                            genuine, genuine, genuine};
  MaskingScratch scratch;
  const auto sel = select_masking(replies_from(records), 3, scratch);
  ASSERT_TRUE(sel.has_value);
  EXPECT_EQ(sel.record.value, 10);
}

TEST(ReadRules, MaskingOverwhelmedByKColluders) {
  // With >= k colluders in the quorum the forged record qualifies and its
  // huge timestamp wins: exactly the P(|Q ∩ B| >= k) failure mode.
  const auto signer = test_signer();
  const ColludePlan plan;
  const auto genuine = signer.sign(1, 10, 100, 1);
  std::vector<crypto::SignedRecord> records{plan.forged(1), plan.forged(1),
                                            plan.forged(1), genuine, genuine,
                                            genuine};
  MaskingScratch scratch;
  const auto sel = select_masking(replies_from(records), 3, scratch);
  ASSERT_TRUE(sel.has_value);
  EXPECT_EQ(sel.record.value, plan.forged(1).value);
}

TEST(ReadRules, DispatchMatchesSpecificSelectors) {
  const auto signer = test_signer();
  const crypto::Verifier verifier(signer.key());
  const auto replies = replies_from({signer.sign(1, 5, 50, 1)});
  MaskingScratch scratch;
  EXPECT_EQ(select(ReadMode::kPlain, replies, nullptr, 1, scratch)
                .record.value, 5);
  EXPECT_EQ(select(ReadMode::kDissemination, replies, &verifier, 1, scratch)
                .record.value, 5);
  EXPECT_EQ(select(ReadMode::kMasking, replies, nullptr, 1, scratch)
                .record.value, 5);
  EXPECT_THROW(select(ReadMode::kDissemination, replies, nullptr, 1, scratch),
               std::invalid_argument);
}

// ---- Masking selection against the quadratic reference ---------------------

// The grouping select_masking used before its hash table: for each first
// copy of a record, count its copies with a forward scan. Kept here as the
// specification the linear pass must reproduce field for field.
ReadSelection reference_select_masking(const std::vector<ReadReply>& replies,
                                       std::uint32_t k) {
  const auto key_of = [](const ReadReply& r) {
    return std::make_tuple(r.record.variable, r.record.value,
                           r.record.timestamp, r.record.writer);
  };
  ReadSelection out;
  auto best_key = std::make_tuple(VariableId{0}, std::int64_t{0},
                                  std::uint64_t{0}, std::uint32_t{0});
  for (std::size_t i = 0; i < replies.size(); ++i) {
    if (!replies[i].has_value) continue;
    const auto key = key_of(replies[i]);
    bool first = true;
    for (std::size_t j = 0; j < i && first; ++j) {
      if (replies[j].has_value && key_of(replies[j]) == key) first = false;
    }
    if (!first) continue;
    std::uint32_t count = 0;
    for (std::size_t j = i; j < replies.size(); ++j) {
      if (replies[j].has_value && key_of(replies[j]) == key) ++count;
    }
    if (count < k) {
      out.rejected += count;
      continue;
    }
    const auto timestamp = std::get<2>(key);
    if (!out.has_value || timestamp > out.record.timestamp ||
        (timestamp == out.record.timestamp && key < best_key)) {
      out.has_value = true;
      out.record.variable = std::get<0>(key);
      out.record.value = std::get<1>(key);
      out.record.timestamp = timestamp;
      out.record.writer = std::get<3>(key);
      out.record.tag = 0;
      out.vouchers = count;
      best_key = key;
    }
  }
  return out;
}

// r replies drawn from a palette of records that differ from a base in
// one vote field each (variable, writer, value) or only in timestamp, with
// per-set skewed weights so that one, several or no groups reach a given
// k. Half the sets add about r more such variants, so that records
// differing in one field share probe runs in the group table and the full
// field compare decides. Copies carry random tags (the same vote, so the
// same group); about one reply in ten is empty and one in ten a unique
// forgery.
std::vector<ReadReply> random_replies(std::uint32_t r, math::Rng& rng) {
  crypto::SignedRecord base;
  base.variable = 7;
  base.value = 100;
  base.timestamp = 5000;
  base.writer = 1;
  std::vector<crypto::SignedRecord> palette(7, base);
  palette[1].variable = 8;
  palette[2].writer = 2;
  palette[3].value = 101;  // timestamp tie, larger tuple
  palette[4].value = 99;   // timestamp tie, smaller tuple
  palette[5].timestamp = 4000;
  palette[6].timestamp = 6000;
  const std::uint32_t variants = rng.below(2) == 0 ? 0 : r;
  for (std::uint32_t j = 0; j < variants; ++j) {
    crypto::SignedRecord variant = base;
    variant.timestamp = 4000 + 1000 * rng.below(3);
    switch (j % 3) {
      case 0: variant.variable = 100 + j; break;
      case 1: variant.writer = 100 + j; break;
      default: variant.value = 1000 + j; break;
    }
    palette.push_back(variant);
  }
  std::vector<std::uint64_t> weight(palette.size());
  std::uint64_t total = 0;
  for (auto& w : weight) {
    w = rng.below(4) == 0 ? 0 : 1 + rng.below(64);
    total += w;
  }
  std::vector<ReadReply> out(r);
  for (std::uint32_t i = 0; i < r; ++i) {
    ReadReply& reply = out[i];
    reply.server = i;
    const std::uint64_t roll = rng.below(10);
    if (roll == 0) continue;  // empty reply
    reply.has_value = true;
    if (roll == 1 || total == 0) {
      reply.record.variable = base.variable;
      reply.record.value = static_cast<std::int64_t>(rng.next() >> 1);
      reply.record.timestamp = (~0ULL >> 8) - rng.below(1024);
    } else {
      std::uint64_t pick = rng.below(total);
      std::size_t p = 0;
      while (pick >= weight[p]) pick -= weight[p++];
      reply.record = palette[p];
    }
    reply.record.tag = rng.below(3);
  }
  return out;
}

void shuffle(std::vector<ReadReply>& replies, math::Rng& rng) {
  for (std::size_t i = replies.size(); i > 1; --i) {
    std::swap(replies[i - 1], replies[rng.below(i)]);
  }
}

void expect_same_selection(const ReadSelection& got,
                           const ReadSelection& want) {
  EXPECT_EQ(got.has_value, want.has_value);
  EXPECT_EQ(got.record, want.record);
  EXPECT_EQ(got.vouchers, want.vouchers);
  EXPECT_EQ(got.rejected, want.rejected);
}

TEST(ReadRules, MaskingMatchesQuadraticReference) {
  math::Rng rng(0x5e1ec7);
  MaskingScratch scratch;  // shared across sizes, as callers share it
  for (const std::uint32_t r : {0u, 1u, 2u, 43u, 44u, 45u, 255u, 256u,
                                1000u}) {
    for (int set = 0; set < 40; ++set) {
      auto replies = random_replies(r, rng);
      for (const std::uint32_t k : {1u, 2u, r / 2, r, r + 1}) {
        if (k == 0) continue;
        SCOPED_TRACE("r=" + std::to_string(r) + " k=" + std::to_string(k) +
                     " set=" + std::to_string(set));
        const ReadSelection want = reference_select_masking(replies, k);
        expect_same_selection(select_masking(replies, k, scratch), want);
        auto shuffled = replies;
        shuffle(shuffled, rng);
        expect_same_selection(select_masking(shuffled, k, scratch), want);
      }
    }
  }
}

TEST(ReadRules, MaskingAllocatesNothingAfterWarmUp) {
  math::Rng rng(0xa11c);
  for (const std::uint32_t r : {44u, 1000u}) {
    std::vector<std::vector<ReadReply>> sets;
    for (int i = 0; i < 16; ++i) sets.push_back(random_replies(r, rng));
    MaskingScratch scratch;
    select_masking(sets[0], 1, scratch);  // warm-up: the table grows here
    std::uint32_t vouchers = 0;
    const std::uint64_t before = g_allocations.load();
    for (const auto& replies : sets) {
      for (const std::uint32_t k : {1u, r / 4, r}) {
        vouchers += select_masking(replies, k, scratch).vouchers;
      }
    }
    EXPECT_EQ(g_allocations.load() - before, 0u) << "r=" << r;
    EXPECT_GT(vouchers, 0u);
  }
}

}  // namespace
}  // namespace pqs::replica
