#include "quorum/membership.h"

#include "math/sampling.h"
#include "util/require.h"

namespace pqs::quorum {

MembershipView::MembershipView(std::uint32_t capacity, std::uint32_t live)
    : live_(capacity), live_count_(live) {
  PQS_CHECK(live <= capacity);
  live_.set_range(0, live);
}

void MembershipView::join(ServerId slot) {
  PQS_CHECK(slot < capacity());
  PQS_CHECK(!live_.test(slot));
  live_.set(slot);
  ++live_count_;
  ++epoch_;
}

void MembershipView::leave(ServerId slot) {
  PQS_CHECK(slot < capacity());
  PQS_CHECK(live_.test(slot));
  live_.reset(slot);
  --live_count_;
  ++epoch_;
}

void MembershipView::replace(ServerId victim, ServerId joiner) {
  PQS_CHECK(victim < capacity());
  PQS_CHECK(joiner < capacity());
  PQS_CHECK(live_.test(victim));
  PQS_CHECK(joiner == victim || !live_.test(joiner));
  live_.reset(victim);
  live_.set(joiner);
  ++epoch_;
}

bool MembershipView::merge(const MembershipView& other) {
  if (other.capacity() == 0) return false;
  if (capacity() == 0) {
    *this = other;
    return true;
  }
  PQS_CHECK(capacity() == other.capacity());
  if (other.epoch_ < epoch_) return false;
  if (other.epoch_ > epoch_) {
    *this = other;
    return true;
  }
  // Equal epochs: the union of two independently-advanced masks. The join
  // is over the (max-epoch, mask-union) lattice, so this stays
  // commutative/associative/idempotent with the adopt cases above.
  if (live_.contains_all(other.live_)) return false;
  live_.or_with(other.live_);
  live_count_ = live_.count();
  return true;
}

bool MembershipView::equals(const MembershipView& other) const {
  if (capacity() != other.capacity() || epoch_ != other.epoch_) return false;
  return capacity() == 0 || live_.equals(other.live_);
}

ServerId MembershipView::nth_live(std::uint32_t rank) const {
  PQS_CHECK(rank < live_count_);
  const std::uint64_t* words = live_.words();
  for (std::size_t i = 0;; ++i) {
    std::uint64_t w = words[i];
    const std::uint32_t pc = popcount64(w);
    if (rank < pc) {
      while (rank > 0) {
        w &= w - 1;
        --rank;
      }
      return static_cast<ServerId>(i * 64) + countr_zero64(w);
    }
    rank -= pc;
  }
}

void MembershipView::sample_live_mask(
    std::uint32_t q, math::Rng& rng, QuorumBitset& out,
    std::vector<std::uint64_t>& compact_scratch) const {
  PQS_CHECK(q <= live_count_);
  out.resize(capacity());
  const std::size_t words = (static_cast<std::size_t>(live_count_) + 63) / 64;
  compact_scratch.assign(words, 0);
  math::sample_without_replacement_bits(live_count_, q, rng,
                                        compact_scratch.data());
  out.or_expand(compact_scratch.data(), words, live_);
}

}  // namespace pqs::quorum
