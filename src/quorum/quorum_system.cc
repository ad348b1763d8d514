#include "quorum/quorum_system.h"

namespace pqs::quorum {

void QuorumSystem::sample_masks(QuorumBitset* out, std::size_t count,
                                math::Rng& rng) const {
  for (std::size_t i = 0; i < count; ++i) sample_mask(out[i], rng);
}

void QuorumSystem::sample_into(Quorum& out, math::Rng& rng) const {
  // Scratch persists across draws so the adapter never allocates in
  // steady state.
  static thread_local QuorumBitset mask;
  sample_mask(mask, rng);
  mask.to_quorum_into(out);
}

Quorum QuorumSystem::sample(math::Rng& rng) const {
  Quorum out;
  sample_into(out, rng);
  return out;
}

bool QuorumSystem::has_live_quorum(const std::vector<bool>& alive) const {
  PQS_REQUIRE(alive.size() == universe_size(),
              "alive vector must span the universe");
  QuorumBitset mask(universe_size());
  for (std::uint32_t u = 0; u < mask.universe_size(); ++u) {
    if (alive[u]) mask.set(u);
  }
  return any_quorum_live(mask);
}

}  // namespace pqs::quorum
