#include "replica/read_rules.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <tuple>

#include "util/require.h"

namespace pqs::replica {

const char* read_mode_name(ReadMode mode) {
  switch (mode) {
    case ReadMode::kPlain: return "plain";
    case ReadMode::kDissemination: return "dissemination";
    case ReadMode::kMasking: return "masking";
  }
  return "?";
}

namespace {

ReadSelection pick_highest_timestamp(const std::vector<ReadReply>& replies,
                                     const crypto::Verifier* verifier) {
  ReadSelection out;
  for (const auto& r : replies) {
    if (!r.has_value) continue;
    if (verifier != nullptr && !verifier->verify(r.record)) {
      ++out.rejected;  // forged or corrupted MAC — never a candidate
      continue;
    }
    if (!out.has_value || r.record.timestamp > out.record.timestamp) {
      out.has_value = true;
      out.record = r.record;
      out.vouchers = 1;
    } else if (out.has_value && r.record == out.record) {
      ++out.vouchers;
    }
  }
  return out;
}

// The fields a masking vote agrees on: everything but the tag.
auto vote_key(const crypto::SignedRecord& r) {
  return std::tie(r.variable, r.value, r.timestamp, r.writer);
}

bool same_vote(const crypto::SignedRecord& a, const crypto::SignedRecord& b) {
  return vote_key(a) == vote_key(b);
}

std::uint64_t mix(std::uint64_t h) {
  return (h ^ (h >> 32)) * 0x9e3779b97f4a7c15ULL;
}

// Mixes the vote fields into 64 bits whose high bits pick a table slot.
std::uint64_t vote_hash(const crypto::SignedRecord& r) {
  return mix(mix(mix(mix(r.variable) ^ static_cast<std::uint64_t>(r.value)) ^
                 r.timestamp) ^
             r.writer);
}

}  // namespace

ReadSelection select_plain(const std::vector<ReadReply>& replies) {
  return pick_highest_timestamp(replies, nullptr);
}

ReadSelection select_dissemination(const std::vector<ReadReply>& replies,
                                   const crypto::Verifier& verifier) {
  return pick_highest_timestamp(replies, &verifier);
}

ReadSelection select_masking(const std::vector<ReadReply>& replies,
                             std::uint32_t k, MaskingScratch& scratch) {
  PQS_REQUIRE(k >= 1, "masking threshold");
  PQS_REQUIRE(replies.size() <= 0x7fffffffu, "reply count");
  // Group identical records; a record enters V' only with >= k vouchers
  // (the set C of Definition 5.1's read protocol, step 3). One pass hashes
  // each reply into an open-addressing table of groups at most half full;
  // a hash match counts only after a full field compare with the group's
  // first reply, so the hash decides cost, never the result. Replies
  // crafted to collide can at worst make the pass quadratic in r.
  // Tags are deliberately ignored: masking handles non-self-verifying
  // data, so agreement among >= k servers is the only evidence.
  unsigned bits = 4;
  while ((std::size_t{1} << bits) < 2 * replies.size()) ++bits;
  const std::size_t capacity = std::size_t{1} << bits;
  if (scratch.slots.size() < capacity) scratch.slots.resize(capacity);
  std::fill_n(scratch.slots.begin(), capacity, 0u);
  scratch.groups.clear();
  scratch.groups.reserve(replies.size());
  for (std::uint32_t i = 0; i < replies.size(); ++i) {
    if (!replies[i].has_value) continue;
    const crypto::SignedRecord& record = replies[i].record;
    std::size_t slot = vote_hash(record) >> (64 - bits);
    for (;;) {
      const std::uint32_t g = scratch.slots[slot];
      if (g == 0) {
        scratch.groups.push_back({i, 1});
        scratch.slots[slot] =
            static_cast<std::uint32_t>(scratch.groups.size());
        break;
      }
      MaskingScratch::Group& group = scratch.groups[g - 1];
      if (same_vote(replies[group.first].record, record)) {
        ++group.count;
        break;
      }
      slot = (slot + 1) & (capacity - 1);
    }
  }
  // Winner: highest timestamp; timestamp ties break toward the
  // lexicographically smallest (variable, value, timestamp, writer) tuple,
  // so neither the reply order nor the table layout can change it.
  ReadSelection out;
  const crypto::SignedRecord* best = nullptr;
  for (const MaskingScratch::Group& group : scratch.groups) {
    if (group.count < k) {
      out.rejected += group.count;  // sub-threshold: every vote refused
      continue;
    }
    const crypto::SignedRecord& record = replies[group.first].record;
    if (best == nullptr || record.timestamp > best->timestamp ||
        (record.timestamp == best->timestamp &&
         vote_key(record) < vote_key(*best))) {
      best = &record;
      out.vouchers = group.count;
    }
  }
  if (best != nullptr) {
    out.has_value = true;
    out.record = *best;
    out.record.tag = 0;
  }
  return out;
}

ReadSelection select(ReadMode mode, const std::vector<ReadReply>& replies,
                     const crypto::Verifier* verifier, std::uint32_t k,
                     MaskingScratch& scratch) {
  switch (mode) {
    case ReadMode::kPlain:
      return select_plain(replies);
    case ReadMode::kDissemination:
      PQS_REQUIRE(verifier != nullptr, "dissemination reads need a verifier");
      return select_dissemination(replies, *verifier);
    case ReadMode::kMasking:
      return select_masking(replies, k, scratch);
  }
  return {};
}

}  // namespace pqs::replica
