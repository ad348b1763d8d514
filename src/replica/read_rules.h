// Read-result selection rules — the client side of the paper's protocols.
//
// Given the set V of value-timestamp pairs collected from a read quorum,
// each rule picks the result exactly as specified:
//   * plain (Section 3.1):      highest timestamp in V.
//   * dissemination (Section 4): restrict V to verifiable records (valid
//     writer MAC), then highest timestamp.
//   * masking (Section 5):      restrict V to records vouched for by at
//     least k servers (identical variable/value/timestamp/writer), then
//     highest timestamp; ⊥ if none qualifies.
// Every rule is one linear pass over the replies and its result does not
// depend on their order.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/mac.h"
#include "replica/message.h"

namespace pqs::replica {

enum class ReadMode : std::uint8_t {
  kPlain,
  kDissemination,
  kMasking,
};

const char* read_mode_name(ReadMode mode);

struct ReadSelection {
  bool has_value = false;     // false = ⊥ (empty V')
  crypto::SignedRecord record;
  std::uint32_t vouchers = 0;  // servers that returned the chosen record
  // Replies the rule refused to consider: MAC-verification failures under
  // dissemination, members of sub-threshold (< k voucher) groups under
  // masking. Zero for plain reads. This is the per-read forgery-rejection
  // signal the serving tier aggregates into rejected_forgeries.
  std::uint32_t rejected = 0;
};

// Voucher-group table for select_masking. A caller that reads in a loop
// keeps one next to its reply buffer: the table grows to the largest reply
// set it has seen and then allocates nothing.
struct MaskingScratch {
  struct Group {
    std::uint32_t first = 0;  // index of the group's first reply
    std::uint32_t count = 0;  // replies identical to it
  };
  std::vector<std::uint32_t> slots;  // open addressing: group index + 1
  std::vector<Group> groups;         // in first-occurrence order
};

ReadSelection select_plain(const std::vector<ReadReply>& replies);

ReadSelection select_dissemination(const std::vector<ReadReply>& replies,
                                   const crypto::Verifier& verifier);

ReadSelection select_masking(const std::vector<ReadReply>& replies,
                             std::uint32_t k, MaskingScratch& scratch);

// Dispatches on mode; verifier may be null for kPlain/kMasking, and only
// kMasking uses the scratch.
ReadSelection select(ReadMode mode, const std::vector<ReadReply>& replies,
                     const crypto::Verifier* verifier, std::uint32_t k,
                     MaskingScratch& scratch);

}  // namespace pqs::replica
