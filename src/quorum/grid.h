// Grid quorum systems (Maekawa [Mae85]) and their Byzantine generalizations
// ([MRW00]) used as baselines in Tables 2-4.
//
// Servers are laid out in a rows x cols grid. A quorum is the union of
// d full rows and d full columns; the access strategy picks the d row
// indices and d column indices uniformly at random.
//
//   d = 1                        : the classic grid (Table 2)
//   d = ceil(sqrt((b+1)/2))      : grid b-dissemination (Table 3) — any two
//                                  quorums share >= 2d^2 >= b+1 servers
//   d = ceil(sqrt(b+1))          : grid b-masking (Table 4) — overlap
//                                  >= 2d^2 >= 2b+1 servers (for d^2 >= b+1)
#pragma once

#include <cstdint>
#include <string>

#include "quorum/quorum_system.h"

namespace pqs::quorum {

class GridSystem final : public QuorumSystem {
 public:
  // rows x cols grid with quorums of d rows + d cols. Requires
  // 1 <= d <= min(rows, cols).
  GridSystem(std::uint32_t rows, std::uint32_t cols, std::uint32_t d = 1);

  // Square sqrt(n) x sqrt(n) grid (n must be a perfect square).
  static GridSystem square(std::uint32_t n);
  // Grid b-dissemination / b-masking systems over a square grid, with d
  // chosen per [MRW00] as above. Validates A(Q) > b.
  static GridSystem dissemination(std::uint32_t n, std::uint32_t b);
  static GridSystem masking(std::uint32_t n, std::uint32_t b);

  std::string name() const override;
  std::uint32_t universe_size() const override { return rows_ * cols_; }
  void sample_mask(QuorumBitset& out, math::Rng& rng) const override;
  std::uint32_t min_quorum_size() const override;
  double load() const override;
  // A full explanation lives in the .cc: disabling every quorum requires
  // hitting servers in rows - d + 1 distinct rows (or cols - d + 1 distinct
  // columns), whichever is cheaper.
  std::uint32_t fault_tolerance() const override;
  // No closed form for d >= 1 with row/column correlations; estimated on
  // the shared deterministic Monte-Carlo engine with a fixed internal seed
  // (via quorum::engine_failure_probability — see engine_link.h).
  double failure_probability(double p) const override;

  std::uint32_t rows() const { return rows_; }
  std::uint32_t cols() const { return cols_; }
  std::uint32_t depth() const { return d_; }
  // Guaranteed pairwise overlap: two quorums share at least 2d^2 servers
  // (each of my d rows meets each of your d cols and vice versa).
  std::uint32_t min_pairwise_intersection() const { return 2 * d_ * d_; }

 private:
  bool any_quorum_live(const QuorumBitset& alive) const override;

  std::uint32_t rows_;
  std::uint32_t cols_;
  std::uint32_t d_;
};

}  // namespace pqs::quorum
