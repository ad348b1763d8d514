// Crumbling walls (Peleg & Wool [PW97]).
//
// Servers are laid out in d rows ("courses") of widths w_1..w_d. A quorum
// is one full row i plus one representative from every row below it
// (j > i). Any two quorums intersect: with chosen rows i <= i', the first
// quorum holds a representative in row i' (or is row i' itself), which the
// second quorum contains entirely.
//
// Walls interpolate between the majority (one row) and very light quorums
// (many rows: c(Q) as small as w_d). The paper cites them as a practical
// strict family; here they serve as an additional baseline whose load and
// fault tolerance have clean closed forms under the uniform strategy.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "quorum/quorum_system.h"

namespace pqs::quorum {

class WallSystem final : public QuorumSystem {
 public:
  // widths[i] is the number of servers in row i (>= 1 each). Servers are
  // numbered row-major, top row first.
  explicit WallSystem(std::vector<std::uint32_t> widths);

  // A wall of `rows` equal rows of `width` servers.
  static WallSystem uniform(std::uint32_t rows, std::uint32_t width);

  std::string name() const override;
  std::uint32_t universe_size() const override { return n_; }
  // Strategy: chosen row uniform over rows; representatives uniform within
  // each lower row, independently.
  void sample_mask(QuorumBitset& out, math::Rng& rng) const override;
  // min_i (w_i + d - 1 - i)  (0-based rows).
  std::uint32_t min_quorum_size() const override;
  // Exact for the uniform strategy: an element of row i (0-based) is used
  // with probability (1 + i / w_i) / d; the load is the max over rows.
  double load() const override;
  // min(d, c(Q)): either touch every row once, or swallow a row whole and
  // touch each row below it.
  std::uint32_t fault_tolerance() const override;
  // Exact via independence across rows: a quorum survives iff some row i
  // is fully alive with every row below it non-empty-alive.
  double failure_probability(double p) const override;

  std::uint32_t rows() const {
    return static_cast<std::uint32_t>(widths_.size());
  }
  const std::vector<std::uint32_t>& widths() const { return widths_; }

 private:
  bool any_quorum_live(const QuorumBitset& alive) const override;

  std::uint32_t row_start(std::uint32_t row) const { return starts_[row]; }

  std::vector<std::uint32_t> widths_;
  std::vector<std::uint32_t> starts_;
  std::uint32_t n_;
};

}  // namespace pqs::quorum
