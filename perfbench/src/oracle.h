// The benchmark's own oracles, computed without the library.
//
// * Closed forms for the paper's epsilons, written from the definitions
//   (log-gamma binomials, hypergeometric sums), so that the library's
//   core:: closed forms are checked against them rather than trusted.
// * A Chernoff bound on how many stale or empty (⊥) reads a run may see.
//   It is exact for the run's own read pattern: reads of one key share
//   that key's write quorum, so the per-key counts are a mixture, and the
//   bound uses the exact moment generating function of that mixture.
// * A two-sided interval for a Monte-Carlo count around its exact mean.
// * A per-key write history that classifies every read reply.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace pqsbench::oracle {

// ---- closed forms ---------------------------------------------------------

double log_choose(std::int64_t n, std::int64_t k);

// P(X = x) for X ~ Hypergeometric(population, successes, draws).
double hypergeom_pmf(std::int64_t population, std::int64_t successes,
                     std::int64_t draws, std::int64_t x);
// P(X < k) for the same X.
double hypergeom_below(std::int64_t population, std::int64_t successes,
                       std::int64_t draws, std::int64_t k);

// Two independent uniform q-subsets of n servers are disjoint:
// C(n-q, q) / C(n, q), as a product of ratios.
double nonintersection(std::int64_t n, std::int64_t q);

// Masking reads with b faulty servers and threshold k. A key's write
// quorum W holds c = |W \ B| correct copies, c ~ q - H(n, b, q); a read
// quorum then meets c' ~ H(n, c, q) of them and returns ⊥ when c' < k.
// Returns the mixture {(P(c), P(⊥ | c))} over the support of c.
std::vector<std::pair<double, double>> masking_bot_mixture(std::int64_t n,
                                                           std::int64_t q,
                                                           std::int64_t b,
                                                           std::int64_t k);
// Unconditional ⊥ probability of one masking read.
double masking_bot(std::int64_t n, std::int64_t q, std::int64_t b,
                   std::int64_t k);
// P(|Q ∩ B| >= k): b colluders reach the threshold in a read quorum.
double fabrication(std::int64_t n, std::int64_t q, std::int64_t b,
                   std::int64_t k);
// Definition 5.1's masking epsilon: P(|Q ∩ B| >= k or |Q' ∩ (Q \ B)| < k).
double masking_union(std::int64_t n, std::int64_t q, std::int64_t b,
                     std::int64_t k);
// A size-q threshold over n servers that crash independently with
// probability p has no live quorum: P(Binomial(n, 1 - p) < q).
double binomial_failure(std::int64_t n, std::int64_t q, double p);
// Per-server load of the rows x cols grid with one full row and one full
// column per quorum: 1/rows + 1/cols - 1/(rows * cols).
double grid_load(std::int64_t rows, std::int64_t cols);

// ---- bounds ---------------------------------------------------------------

// Reads grouped by how many times each key is read: `keys` keys are read
// `reads` times each.
struct ReadGroup {
  std::uint64_t reads = 0;
  std::uint64_t keys = 0;
};

// The smallest count x such that P(X >= x) <= delta, where
// X = sum over keys of Binomial(reads_k, p(c_k)) and each key draws its own
// c_k from `mixture` independently. Plain reads are the one-point mixture
// {(1, eps)}. Certified by the Chernoff bound
// P(X >= x) <= exp(Lambda(l) - l x), minimized over l > 0.
double chernoff_threshold(const std::vector<ReadGroup>& groups,
                          const std::vector<std::pair<double, double>>& mixture,
                          double delta);
// Groups per-key read counts.
std::vector<ReadGroup> group_reads(
    const std::unordered_map<std::uint64_t, std::uint64_t>& reads_per_key);

// Two-sided Bernstein interval for a Binomial(trials, p) count:
// P(|X - trials p| > margin) <= delta.
double count_margin(std::uint64_t trials, double p, double delta);

// Whether an observed count of a Binomial(trials, p) event lies within
// count_margin of its mean; an event of probability 0 must never occur.
bool count_within(std::uint64_t count, std::uint64_t trials, double p,
                  double delta);

// ---- write history --------------------------------------------------------

enum class ReadVerdict {
  kFresh,    // the value of the key's latest preceding write
  kStale,    // an older value of this key (allowed with probability eps)
  kBot,      // no value, though the key had been written (likewise)
  kUnknown,  // no value for a key never written: the correct answer
  kInvalid,  // a value never written to this key before the read: failure
};

// Per-key history of the generated writes, in submission order. Values
// must be unique across the whole history (the generators hand out fresh
// values), so a value identifies one write.
class WriteHistory {
 public:
  void reserve(std::size_t writes);
  // Write number `position` in submission order put `value` on `key`.
  void write(std::uint64_t key, std::int64_t value, std::uint64_t position);
  // Read number `position` of `key` returned (found, value).
  ReadVerdict classify(std::uint64_t key, std::uint64_t position, bool found,
                       std::int64_t value) const;
  // Latest write to `key` strictly before `position` (submission order);
  // false if none. Reads replayed in order need only this and the value
  // index, so the per-key record keeps every (position, value) pair.
  bool latest_before(std::uint64_t key, std::uint64_t position,
                     std::int64_t* value) const;

 private:
  struct Origin {
    std::uint64_t key;
    std::uint64_t position;
  };
  std::unordered_map<std::int64_t, Origin> by_value_;
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::uint64_t, std::int64_t>>>
      by_key_;
};

// Running tally of replies, fed in submission order once the history
// holds every write. Missing replies and never-written values are
// failures; stale and ⊥ reads of written keys are counted against the
// epsilon bound, with their per-key read counts for the mixture bound.
struct ReplyTally {
  std::uint64_t failed = 0;
  std::uint64_t stale_or_bot = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> eligible_reads;  // by key

  void add(const WriteHistory& history, std::uint64_t key,
           std::uint64_t position, bool is_read, bool answered, bool found,
           std::int64_t value);
  std::uint64_t eligible_total() const;
};

}  // namespace pqsbench::oracle
