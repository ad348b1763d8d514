// The QuorumSystem interface.
//
// A quorum system is a set system over a universe of n servers together with
// an access strategy w (Definitions 2.1-2.3). Code that uses quorums — the
// replication protocols, the Monte-Carlo verifiers, the bench harness — only
// needs to (a) sample a quorum according to w, (b) ask for the analytic
// quality measures of Section 2: load, fault tolerance, failure probability.
//
// Strict systems (src/quorum) guarantee pairwise intersection; probabilistic
// systems (src/core) guarantee intersection only with probability >= 1 - eps
// under their strategy. Both implement this interface.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "math/rng.h"
#include "quorum/bitset.h"
#include "quorum/types.h"
#include "util/require.h"

namespace pqs::quorum {

class QuorumSystem {
 public:
  virtual ~QuorumSystem() = default;

  // Human-readable construction name, e.g. "threshold(n=100,q=51)".
  virtual std::string name() const = 0;

  // |U|.
  virtual std::uint32_t universe_size() const = 0;

  // Draws one quorum according to the system's access strategy w, as a
  // bitset: `out` is resized to the universe and holds exactly the members
  // of the drawn quorum. This is the one draw every construction
  // implements — constructions set bits (or whole words) directly — and
  // the native representation of the Monte-Carlo hot loops and the
  // protocol path. Allocates nothing once `out` has its size.
  virtual void sample_mask(QuorumBitset& out, math::Rng& rng) const = 0;

  /// Draws `count` quorums into out[0..count), in draw order.
  ///
  /// \param out   `count` bitsets (owned, or quorum::MaskBatch views over
  ///              one flat buffer); each is resized to the universe and
  ///              overwritten with one drawn quorum.
  /// \param count quorums to draw.
  /// \param rng   consumed exactly as `count` successive sample_mask()
  ///              calls would consume it — batching changes dispatch
  ///              cost, never the stream, so results are independent of
  ///              the chunk size a caller picks.
  ///
  /// The default loops sample_mask. A construction overrides it only where
  /// the override measures faster than that loop: threshold and R(n,q)
  /// draw a chunk in two Floyd passes (the estimators and the protocol
  /// throughput harness draw in chunks through this entry point).
  virtual void sample_masks(QuorumBitset* out, std::size_t count,
                            math::Rng& rng) const;

  // Sorted-id adapters over sample_mask: the same draw, consuming the
  // same rng words, expanded into a sorted member list. sample_into
  // overwrites `out` through thread-local mask scratch, so it allocates
  // nothing once `out` has capacity; sample returns a fresh vector.
  void sample_into(Quorum& out, math::Rng& rng) const;
  Quorum sample(math::Rng& rng) const;

  // c(Q): size of the smallest quorum.
  virtual std::uint32_t min_quorum_size() const = 0;

  // Load L induced by the system's strategy (Definition 2.4 / 3.3). All the
  // constructions in this library are symmetric enough that the load of the
  // shipped strategy is known in closed form.
  virtual double load() const = 0;

  // Crash fault tolerance A (Definition 2.5; Definition 3.7 for
  // probabilistic systems, where it is computed over high-quality quorums).
  virtual std::uint32_t fault_tolerance() const = 0;

  // F_p (Definition 2.6 / 3.8): probability that no (high-quality) quorum is
  // fully alive when servers crash independently with probability p.
  virtual double failure_probability(double p) const = 0;

  // True iff some (high-quality) quorum survives given the alive mask.
  // Drives the generic Monte-Carlo failure-probability estimator, which
  // cross-checks failure_probability(), so the check stays word-parallel
  // end to end. Requires alive.universe_size() == universe_size(): the one
  // compare that guards every construction's predicate.
  bool has_live_quorum_mask(const QuorumBitset& alive) const {
    PQS_REQUIRE(alive.universe_size() == universe_size(),
                "alive mask must span the universe");
    return any_quorum_live(alive);
  }

  // As above over a vector<bool> (alive.size() == universe_size()): an
  // adapter that builds the bitset and asks the mask form.
  bool has_live_quorum(const std::vector<bool>& alive) const;

 protected:
  // The construction's liveness predicate behind has_live_quorum_mask;
  // `alive` spans exactly the universe.
  virtual bool any_quorum_live(const QuorumBitset& alive) const = 0;
};

}  // namespace pqs::quorum
