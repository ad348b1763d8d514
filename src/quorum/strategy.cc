#include "quorum/strategy.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <utility>

#include "math/simplex.h"
#include "util/require.h"

namespace pqs::quorum {

namespace {

// p^k by repeated multiplication: exact for k = 0 (ipow(0, 0) == 1, the
// disjoint-pair case of the epsilon matrix), no pow() domain surprises.
double ipow(double base, std::uint32_t k) {
  double r = 1.0;
  for (std::uint32_t i = 0; i < k; ++i) r *= base;
  return r;
}

// |a ∩ b| for sorted quorums.
std::uint32_t sorted_overlap(const Quorum& a, const Quorum& b) {
  std::uint32_t count = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

bool quorum_contains(const Quorum& q, ServerId u) {
  return std::binary_search(q.begin(), q.end(), u);
}

// a ⊆ b over raw mask words.
bool words_subset(const std::vector<std::uint64_t>& a,
                  const std::vector<std::uint64_t>& b) {
  for (std::size_t w = 0; w < a.size(); ++w) {
    if ((a[w] & ~b[w]) != 0) return false;
  }
  return true;
}

// Reduces a family of sets (as mask words) to its minimal antichain:
// duplicates collapse and strict supersets drop. P(some member is fully
// alive) is unchanged — a superset being live implies its subset is —
// and the inclusion-exclusion below gets exponentially cheaper.
std::vector<std::vector<std::uint64_t>> minimal_family(
    const std::vector<std::vector<std::uint64_t>>& family) {
  std::vector<std::vector<std::uint64_t>> kept;
  for (std::size_t i = 0; i < family.size(); ++i) {
    bool redundant = false;
    for (std::size_t j = 0; j < family.size() && !redundant; ++j) {
      if (j == i) continue;
      if (!words_subset(family[j], family[i])) continue;
      // family[j] ⊆ family[i]: i is redundant unless they are equal and i
      // is the first copy.
      redundant = !(family[j] == family[i] && j > i);
    }
    if (!redundant) kept.push_back(family[i]);
  }
  return kept;
}

// P(some member of `family` has every server alive) when servers are
// alive independently with probability live_pow[1] — exact
// inclusion-exclusion over nonempty subfamilies, DFS with one running
// union per depth. live_pow[k] = (1 - p)^k.
double exists_live(const std::vector<std::vector<std::uint64_t>>& family,
                   const std::vector<double>& live_pow, std::size_t words) {
  if (family.empty()) return 0.0;
  double total = 0.0;
  std::vector<std::uint64_t> unions((family.size() + 1) * words, 0);
  std::function<void(std::size_t, std::size_t, double)> dfs =
      [&](std::size_t start, std::size_t depth, double sign) {
        const std::uint64_t* parent = unions.data() + (depth - 1) * words;
        std::uint64_t* mine = unions.data() + depth * words;
        for (std::size_t j = start; j < family.size(); ++j) {
          std::uint32_t bits = 0;
          for (std::size_t w = 0; w < words; ++w) {
            mine[w] = parent[w] | family[j][w];
            bits += popcount64(mine[w]);
          }
          total += sign * live_pow[bits];
          dfs(j + 1, depth + 1, -sign);
        }
      };
  dfs(0, 1, 1.0);
  return total;
}

}  // namespace

Strategy::Strategy(std::shared_ptr<const QuorumSystem> base,
                   std::vector<Quorum> read_support,
                   std::vector<double> read_probs,
                   std::vector<Quorum> write_support,
                   std::vector<double> write_probs, WorkloadSpec workload)
    : base_(std::move(base)),
      workload_(std::move(workload)),
      read_quorums_(std::move(read_support)),
      write_quorums_(std::move(write_support)),
      read_probs_(std::move(read_probs)),
      write_probs_(std::move(write_probs)) {
  PQS_REQUIRE(base_ != nullptr, "strategy needs a base system");
  n_ = base_->universe_size();
  PQS_REQUIRE(!read_quorums_.empty() && !write_quorums_.empty(),
              "strategy support is empty");
  PQS_REQUIRE(read_quorums_.size() + write_quorums_.size() <= kMaxExactSupport,
              "strategy support exceeds the exact-measure cap");
  PQS_REQUIRE(read_probs_.size() == read_quorums_.size() &&
                  write_probs_.size() == write_quorums_.size(),
              "strategy probability count mismatch");
  PQS_REQUIRE(workload_.read_fraction >= 0.0 && workload_.read_fraction <= 1.0,
              "read fraction out of range");
  PQS_REQUIRE(workload_.failure_prob >= 0.0 && workload_.failure_prob < 1.0,
              "failure probability out of range");
  PQS_REQUIRE(
      workload_.capacities.empty() || workload_.capacities.size() == n_,
      "capacity vector size mismatch");
  for (const double cap : workload_.capacities) {
    PQS_REQUIRE(cap > 0.0, "capacities must be positive");
  }

  auto prepare = [this](std::vector<Quorum>& quorums,
                        std::vector<double>& probs,
                        std::vector<QuorumBitset>& masks) {
    masks.reserve(quorums.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < quorums.size(); ++i) {
      Quorum& q = quorums[i];
      PQS_REQUIRE(!q.empty(), "empty quorum in strategy support");
      std::sort(q.begin(), q.end());
      PQS_REQUIRE(q.back() < n_, "strategy quorum member outside universe");
      PQS_REQUIRE(std::adjacent_find(q.begin(), q.end()) == q.end(),
                  "duplicate member in strategy quorum");
      QuorumBitset mask(n_);
      mask.assign(q);
      masks.push_back(std::move(mask));
      PQS_REQUIRE(probs[i] >= -1e-12, "negative strategy probability");
      if (probs[i] < 0.0) probs[i] = 0.0;
      sum += probs[i];
    }
    PQS_REQUIRE(std::fabs(sum - 1.0) <= 1e-6,
                "strategy probabilities must sum to 1");
    for (double& p : probs) p /= sum;
  };
  prepare(read_quorums_, read_probs_, read_masks_);
  prepare(write_quorums_, write_probs_, write_masks_);
  read_alias_ = build_alias(read_probs_);
  write_alias_ = build_alias(write_probs_);

  overlap_.resize(read_quorums_.size() * write_quorums_.size());
  for (std::size_t i = 0; i < read_quorums_.size(); ++i) {
    for (std::size_t j = 0; j < write_quorums_.size(); ++j) {
      overlap_[i * write_quorums_.size() + j] =
          sorted_overlap(read_quorums_[i], write_quorums_[j]);
    }
  }
}

std::vector<Strategy::AliasSlot> Strategy::build_alias(
    const std::vector<double>& probs) {
  // Walker/Vose: scale to mean 1, pair each deficient bucket with a
  // surplus one. Stacks are filled in ascending index order and popped
  // from the back, so the table is a deterministic function of the
  // probabilities — part of the cross-ISA bit-identity contract.
  const std::size_t m = probs.size();
  std::vector<AliasSlot> table(m);
  std::vector<double> scaled(m);
  for (std::size_t i = 0; i < m; ++i) {
    scaled[i] = probs[i] * static_cast<double>(m);
  }
  std::vector<std::uint32_t> small, large;
  for (std::uint32_t i = 0; i < m; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  const auto to_fixed = [](double f) -> std::uint64_t {
    // Fixed-point fraction of 2^64; saturates at both ends. f < 1
    // guarantees the cast is in range (f * 2^64 <= (1 - 2^-53) * 2^64).
    if (f >= 1.0) return std::numeric_limits<std::uint64_t>::max();
    if (f <= 0.0) return 0;
    return static_cast<std::uint64_t>(f * 18446744073709551616.0);
  };
  while (!small.empty() && !large.empty()) {
    const std::uint32_t deficient = small.back();
    small.pop_back();
    const std::uint32_t surplus = large.back();
    table[deficient].threshold = to_fixed(scaled[deficient]);
    table[deficient].alias = surplus;
    scaled[surplus] = (scaled[surplus] + scaled[deficient]) - 1.0;
    if (scaled[surplus] < 1.0) {
      large.pop_back();
      small.push_back(surplus);
    }
  }
  // Leftovers sit at (or within rounding dust of) exactly 1: always
  // accept, self-alias.
  for (const std::uint32_t i : large) {
    table[i].threshold = std::numeric_limits<std::uint64_t>::max();
    table[i].alias = i;
  }
  for (const std::uint32_t i : small) {
    table[i].threshold = std::numeric_limits<std::uint64_t>::max();
    table[i].alias = i;
  }
  return table;
}

double Strategy::server_access_probability(ServerId u) const {
  PQS_REQUIRE(u < n_, "server outside universe");
  double read_hit = 0.0;
  for (std::size_t i = 0; i < read_quorums_.size(); ++i) {
    if (quorum_contains(read_quorums_[i], u)) read_hit += read_probs_[i];
  }
  double write_hit = 0.0;
  for (std::size_t j = 0; j < write_quorums_.size(); ++j) {
    if (quorum_contains(write_quorums_[j], u)) write_hit += write_probs_[j];
  }
  const double fr = workload_.read_fraction;
  return fr * read_hit + (1.0 - fr) * write_hit;
}

std::vector<double> Strategy::load_vector() const {
  std::vector<double> loads(n_, 0.0);
  const double fr = workload_.read_fraction;
  for (std::size_t i = 0; i < read_quorums_.size(); ++i) {
    for (const ServerId u : read_quorums_[i]) {
      loads[u] += fr * read_probs_[i];
    }
  }
  for (std::size_t j = 0; j < write_quorums_.size(); ++j) {
    for (const ServerId u : write_quorums_[j]) {
      loads[u] += (1.0 - fr) * write_probs_[j];
    }
  }
  if (!workload_.capacities.empty()) {
    for (std::uint32_t u = 0; u < n_; ++u) {
      loads[u] /= workload_.capacities[u];
    }
  }
  return loads;
}

double Strategy::max_load() const {
  double best = 0.0;
  for (const double load : load_vector()) best = std::max(best, load);
  return best;
}

double Strategy::predicted_epsilon(double p) const {
  PQS_REQUIRE(p >= 0.0 && p <= 1.0, "crash probability out of range");
  const std::size_t mw = write_quorums_.size();
  double eps = 0.0;
  for (std::size_t i = 0; i < read_quorums_.size(); ++i) {
    double inner = 0.0;
    for (std::size_t j = 0; j < mw; ++j) {
      inner += write_probs_[j] * ipow(p, overlap_[i * mw + j]);
    }
    eps += read_probs_[i] * inner;
  }
  return eps;
}

std::string Strategy::name() const {
  return "strategy(r=" + std::to_string(read_quorums_.size()) +
         ",w=" + std::to_string(write_quorums_.size()) +
         ",base=" + base_->name() + ")";
}

void Strategy::sample_mask(QuorumBitset& out, math::Rng& rng) const {
  // Copy-assign from the prebuilt mask: deep copy into owning bitsets,
  // write-through into MaskBatch views — either way no allocation in
  // steady state.
  out = read_masks_[draw_read_index(rng)];
}

std::uint32_t Strategy::min_quorum_size() const {
  std::size_t best = read_quorums_[0].size();
  for (const Quorum& q : read_quorums_) best = std::min(best, q.size());
  for (const Quorum& q : write_quorums_) best = std::min(best, q.size());
  return static_cast<std::uint32_t>(best);
}

double Strategy::load() const { return max_load(); }

std::uint32_t Strategy::fault_tolerance() const {
  // The adversary kills the strategy by wiping out either *side*: crash a
  // server from every read quorum (no read can complete) or from every
  // write quorum. So A = min over the two sides of the exact minimum
  // hitting set size, minus one — any smaller crash set leaves some read
  // quorum and some write quorum untouched. Each side is capped well
  // under 64 members (kMaxExactSupport bounds the total), so the hit
  // state fits one word and the branch-and-bound (branch on the members
  // of the first unhit quorum, greedy warm start) is exact and fast.
  const auto min_hitting_set = [this](const std::vector<Quorum>& quorums) {
    std::vector<const Quorum*> support;
    for (const Quorum& q : quorums) support.push_back(&q);
    std::sort(support.begin(), support.end(),
              [](const Quorum* a, const Quorum* b) { return *a < *b; });
    support.erase(std::unique(support.begin(), support.end(),
                              [](const Quorum* a, const Quorum* b) {
                                return *a == *b;
                              }),
                  support.end());
    const std::size_t m = support.size();
    std::vector<std::uint64_t> server_hits(n_, 0);
    for (std::size_t i = 0; i < m; ++i) {
      for (const ServerId u : *support[i]) server_hits[u] |= 1ULL << i;
    }
    const std::uint64_t full = m == 64 ? ~0ULL : (1ULL << m) - 1;

    // Greedy warm start: repeatedly take the server hitting the most
    // still-unhit quorums.
    std::uint32_t best = 0;
    for (std::uint64_t hit = 0; hit != full; ++best) {
      std::uint32_t top_gain = 0;
      std::uint64_t top_mask = 0;
      for (std::uint32_t u = 0; u < n_; ++u) {
        const std::uint32_t gain = popcount64(server_hits[u] & ~hit);
        if (gain > top_gain) {
          top_gain = gain;
          top_mask = server_hits[u];
        }
      }
      hit |= top_mask;
    }
    std::function<void(std::uint64_t, std::uint32_t)> dfs =
        [&](std::uint64_t hit, std::uint32_t depth) {
          if (hit == full) {
            best = std::min(best, depth);
            return;
          }
          if (depth + 1 >= best) return;
          const std::size_t first_unhit = countr_zero64(~hit & full);
          for (const ServerId u : *support[first_unhit]) {
            dfs(hit | server_hits[u], depth + 1);
          }
        };
    dfs(0, 0);
    return best;
  };
  return std::min(min_hitting_set(read_quorums_),
                  min_hitting_set(write_quorums_)) -
         1;
}

double Strategy::failure_probability(double p) const {
  PQS_REQUIRE(p >= 0.0 && p <= 1.0, "crash probability out of range");
  std::vector<double> live_pow(n_ + 1);
  live_pow[0] = 1.0;
  for (std::uint32_t k = 1; k <= n_; ++k) {
    live_pow[k] = live_pow[k - 1] * (1.0 - p);
  }
  const std::size_t words = read_masks_[0].word_count();
  const auto to_words = [&](const std::vector<QuorumBitset>& masks) {
    std::vector<std::vector<std::uint64_t>> family;
    family.reserve(masks.size());
    for (const QuorumBitset& mask : masks) {
      family.emplace_back(mask.words(), mask.words() + words);
    }
    return minimal_family(family);
  };
  const auto read_family = to_words(read_masks_);
  const auto write_family = to_words(write_masks_);
  std::vector<std::vector<std::uint64_t>> combined = read_family;
  combined.insert(combined.end(), write_family.begin(), write_family.end());
  combined = minimal_family(combined);

  // P(fail) = 1 - P(live read exists AND live write exists), and the
  // conjunction expands through P(A)+P(B)-P(A or B) with the union event
  // being "some quorum of the combined family is live".
  const double live_read = exists_live(read_family, live_pow, words);
  const double live_write = exists_live(write_family, live_pow, words);
  const double live_any = exists_live(combined, live_pow, words);
  const double fail = 1.0 - (live_read + live_write - live_any);
  return std::min(1.0, std::max(0.0, fail));
}

bool Strategy::any_quorum_live(const QuorumBitset& alive) const {
  const auto some_live = [&](const std::vector<QuorumBitset>& masks) {
    for (const QuorumBitset& mask : masks) {
      if (alive.contains_all(mask)) return true;
    }
    return false;
  };
  return some_live(read_masks_) && some_live(write_masks_);
}

std::shared_ptr<const Strategy> optimize_strategy(
    std::shared_ptr<const QuorumSystem> base, const WorkloadSpec& workload,
    const StrategyOptions& options) {
  PQS_REQUIRE(base != nullptr, "optimizer needs a base system");
  PQS_REQUIRE(options.read_candidates >= 1 && options.write_candidates >= 1,
              "optimizer needs candidates on both sides");
  PQS_REQUIRE(
      options.read_candidates + options.write_candidates <=
          Strategy::kMaxExactSupport,
      "candidate count exceeds the strategy's exact-measure support cap");
  PQS_REQUIRE(workload.read_fraction >= 0.0 && workload.read_fraction <= 1.0,
              "read fraction out of range");
  PQS_REQUIRE(workload.failure_prob >= 0.0 && workload.failure_prob < 1.0,
              "failure probability out of range");
  const std::uint32_t n = base->universe_size();
  std::vector<double> caps = workload.capacities;
  if (caps.empty()) caps.assign(n, 1.0);
  PQS_REQUIRE(caps.size() == n, "capacity vector size mismatch");
  for (const double cap : caps) {
    PQS_REQUIRE(cap > 0.0, "capacities must be positive");
  }

  // Candidate supports, drawn from the base system's own access strategy
  // on a dedicated rng stream and deduplicated. A base with fewer
  // distinct quorums than asked for (e.g. a singleton) just yields a
  // smaller support.
  math::Rng rng(options.seed);
  const auto draw_support = [&](std::uint32_t want) {
    std::vector<Quorum> support;
    QuorumBitset mask;
    Quorum q;
    const std::uint64_t attempt_cap = 64ULL * want + 64;
    for (std::uint64_t attempt = 0;
         support.size() < want && attempt < attempt_cap; ++attempt) {
      base->sample_mask(mask, rng);
      mask.to_quorum_into(q);
      if (std::find(support.begin(), support.end(), q) == support.end()) {
        support.push_back(q);
      }
    }
    return support;
  };
  std::vector<Quorum> reads = draw_support(options.read_candidates);
  std::vector<Quorum> writes = draw_support(options.write_candidates);
  const std::size_t mr = reads.size();
  const std::size_t mw = writes.size();

  // z_ij = p^|R_i ∩ W_j|: the probability that candidate pair (i, j)
  // shares no live server. The strategy's epsilon is the z-weighted
  // bilinear form pr' Z pw, which each LP below sees linearly.
  const double p = workload.failure_prob;
  std::vector<double> z(mr * mw);
  double z_mean = 0.0;
  double z_min = 1.0;
  for (std::size_t i = 0; i < mr; ++i) {
    for (std::size_t j = 0; j < mw; ++j) {
      const double value = ipow(p, sorted_overlap(reads[i], writes[j]));
      z[i * mw + j] = value;
      z_mean += value;
      z_min = std::min(z_min, value);
    }
  }
  z_mean /= static_cast<double>(mr * mw);
  double eps_max = options.epsilon_ceiling;
  if (eps_max < 0.0) eps_max = z_mean;
  // Clamp up to the support's best achievable epsilon (a pointmass on the
  // argmin pair) so the program is feasible; the slack absorbs simplex
  // tolerance.
  eps_max = std::max(eps_max, z_min) + 1e-12;

  const double fr = workload.read_fraction;
  const double fw = 1.0 - fr;

  // Servers touched by any candidate (rows for anyone else are 0 <= t).
  std::vector<ServerId> touched;
  {
    std::vector<bool> seen(n, false);
    for (const Quorum& q : reads) {
      for (const ServerId u : q) seen[u] = true;
    }
    for (const Quorum& q : writes) {
      for (const ServerId u : q) seen[u] = true;
    }
    for (ServerId u = 0; u < n; ++u) {
      if (seen[u]) touched.push_back(u);
    }
  }

  // Feasible start: the pointmass pair with the smallest epsilon.
  std::vector<double> pr(mr, 0.0), pw(mw, 0.0);
  {
    std::size_t bi = 0, bj = 0;
    double best = z[0];
    for (std::size_t i = 0; i < mr; ++i) {
      for (std::size_t j = 0; j < mw; ++j) {
        if (z[i * mw + j] < best) {
          best = z[i * mw + j];
          bi = i;
          bj = j;
        }
      }
    }
    pr[bi] = 1.0;
    pw[bj] = 1.0;
  }

  // One half-step: with the other side fixed, min t over (vars, t) s.t.
  // per-server load <= t, eps bilinear form <= eps_max, sum(vars) = 1.
  const auto solve_side = [&](bool read_side) -> double {
    const std::vector<Quorum>& support = read_side ? reads : writes;
    const std::vector<Quorum>& other = read_side ? writes : reads;
    const std::vector<double>& fixed = read_side ? pw : pr;
    std::vector<double>& vars = read_side ? pr : pw;
    const double f_this = read_side ? fr : fw;
    const double f_other = read_side ? fw : fr;
    const std::size_t mv = support.size();

    std::vector<double> eps_coeff(mv, 0.0);
    for (std::size_t i = 0; i < mv; ++i) {
      for (std::size_t j = 0; j < fixed.size(); ++j) {
        eps_coeff[i] +=
            fixed[j] * (read_side ? z[i * mw + j] : z[j * mw + i]);
      }
    }
    std::vector<double> other_load(n, 0.0);
    for (std::size_t j = 0; j < other.size(); ++j) {
      for (const ServerId u : other[j]) other_load[u] += fixed[j];
    }

    const std::size_t nv = mv + 1;  // vars plus the epigraph t
    std::vector<double> c(nv, 0.0);
    c[mv] = 1.0;
    std::vector<std::vector<double>> a;
    std::vector<double> b;
    for (const ServerId u : touched) {
      std::vector<double> row(nv, 0.0);
      for (std::size_t i = 0; i < mv; ++i) {
        if (quorum_contains(support[i], u)) row[i] = f_this / caps[u];
      }
      row[mv] = -1.0;
      a.push_back(std::move(row));
      b.push_back(-f_other * other_load[u] / caps[u]);
    }
    {
      std::vector<double> row(nv, 0.0);
      for (std::size_t i = 0; i < mv; ++i) row[i] = eps_coeff[i];
      a.push_back(std::move(row));
      b.push_back(eps_max);
    }
    {
      std::vector<double> row(nv, 0.0);
      for (std::size_t i = 0; i < mv; ++i) row[i] = 1.0;
      a.push_back(row);
      b.push_back(1.0);
      for (std::size_t i = 0; i < mv; ++i) row[i] = -1.0;
      row[mv] = 0.0;
      a.push_back(std::move(row));
      b.push_back(-1.0);
    }
    const math::LpResult lp = math::solve_lp(c, a, b);
    if (lp.status != math::LpStatus::kOptimal) {
      // The incumbent is feasible by construction, so this is numerical
      // bad luck; keep the incumbent and stop improving this side.
      return -1.0;
    }
    double sum = 0.0;
    for (std::size_t i = 0; i < mv; ++i) {
      vars[i] = std::max(0.0, lp.x[i]);
      sum += vars[i];
    }
    PQS_REQUIRE(sum > 0.5, "degenerate LP solution");
    for (std::size_t i = 0; i < mv; ++i) vars[i] /= sum;
    return lp.objective;
  };

  double prev = std::numeric_limits<double>::infinity();
  for (std::uint32_t round = 0; round < options.rounds; ++round) {
    const double after_read = solve_side(true);
    const double after_write = solve_side(false);
    if (after_read < 0.0 || after_write < 0.0) break;
    if (std::fabs(prev - after_write) < 1e-12) break;
    prev = after_write;
  }

  // Prune zero-probability candidates: they carry no mass, and dropping
  // them keeps the exact measures (hitting set, inclusion-exclusion,
  // has_live_quorum) honest about what the strategy can actually draw.
  const auto prune = [](std::vector<Quorum>& quorums,
                        std::vector<double>& probs) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < quorums.size(); ++i) {
      if (probs[i] <= 1e-12) continue;
      if (kept != i) {
        quorums[kept] = std::move(quorums[i]);
        probs[kept] = probs[i];
      }
      ++kept;
    }
    quorums.resize(kept);
    probs.resize(kept);
  };
  prune(reads, pr);
  prune(writes, pw);

  return std::make_shared<Strategy>(std::move(base), std::move(reads),
                                    std::move(pr), std::move(writes),
                                    std::move(pw), workload);
}

}  // namespace pqs::quorum
