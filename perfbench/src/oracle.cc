#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace pqsbench::oracle {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

double log_sum_exp(const std::vector<double>& terms) {
  double top = kNegInf;
  for (double t : terms) top = std::max(top, t);
  if (top == kNegInf) return kNegInf;
  double sum = 0.0;
  for (double t : terms) sum += std::exp(t - top);
  return top + std::log(sum);
}

// log of the moment generating function of the read-failure count at
// l > 0: sum over groups of keys * log E_c[(1 - p_c + p_c e^l)^reads].
double log_mgf(const std::vector<ReadGroup>& groups,
               const std::vector<std::pair<double, double>>& mixture,
               double l) {
  const double grow = std::expm1(l);
  double total = 0.0;
  std::vector<double> terms(mixture.size());
  for (const ReadGroup& g : groups) {
    for (std::size_t i = 0; i < mixture.size(); ++i) {
      const auto [weight, p] = mixture[i];
      terms[i] = weight > 0.0 ? std::log(weight) +
                                    static_cast<double>(g.reads) *
                                        std::log1p(p * grow)
                              : kNegInf;
    }
    total += static_cast<double>(g.keys) * log_sum_exp(terms);
  }
  return total;
}

}  // namespace

double log_choose(std::int64_t n, std::int64_t k) {
  if (k < 0 || k > n) return kNegInf;
  return std::lgamma(static_cast<double>(n) + 1.0) -
         std::lgamma(static_cast<double>(k) + 1.0) -
         std::lgamma(static_cast<double>(n - k) + 1.0);
}

double hypergeom_pmf(std::int64_t population, std::int64_t successes,
                     std::int64_t draws, std::int64_t x) {
  const double log_p = log_choose(successes, x) +
                       log_choose(population - successes, draws - x) -
                       log_choose(population, draws);
  return log_p == kNegInf ? 0.0 : std::exp(log_p);
}

double hypergeom_below(std::int64_t population, std::int64_t successes,
                       std::int64_t draws, std::int64_t k) {
  double total = 0.0;
  for (std::int64_t x = 0; x < k; ++x) {
    total += hypergeom_pmf(population, successes, draws, x);
  }
  return std::min(total, 1.0);
}

double nonintersection(std::int64_t n, std::int64_t q) {
  if (2 * q > n) return 0.0;
  double p = 1.0;
  for (std::int64_t i = 0; i < q; ++i) {
    p *= static_cast<double>(n - q - i) / static_cast<double>(n - i);
  }
  return p;
}

std::vector<std::pair<double, double>> masking_bot_mixture(std::int64_t n,
                                                           std::int64_t q,
                                                           std::int64_t b,
                                                           std::int64_t k) {
  std::vector<std::pair<double, double>> mixture;
  for (std::int64_t faulty = 0; faulty <= std::min(b, q); ++faulty) {
    const double weight = hypergeom_pmf(n, b, q, faulty);
    if (weight == 0.0) continue;
    mixture.emplace_back(weight, hypergeom_below(n, q - faulty, q, k));
  }
  return mixture;
}

double masking_bot(std::int64_t n, std::int64_t q, std::int64_t b,
                   std::int64_t k) {
  double total = 0.0;
  for (const auto& [weight, p] : masking_bot_mixture(n, q, b, k)) {
    total += weight * p;
  }
  return total;
}

double fabrication(std::int64_t n, std::int64_t q, std::int64_t b,
                   std::int64_t k) {
  double total = 0.0;
  for (std::int64_t x = k; x <= std::min(b, q); ++x) {
    total += hypergeom_pmf(n, b, q, x);
  }
  return total;
}

double masking_union(std::int64_t n, std::int64_t q, std::int64_t b,
                     std::int64_t k) {
  // Success needs |Q ∩ B| = x < k and |Q' ∩ (Q \ B)| >= k.
  double success = 0.0;
  for (std::int64_t x = 0; x <= std::min({b, q, k - 1}); ++x) {
    success += hypergeom_pmf(n, b, q, x) *
               (1.0 - hypergeom_below(n, q - x, q, k));
  }
  return std::clamp(1.0 - success, 0.0, 1.0);
}

double binomial_failure(std::int64_t n, std::int64_t q, double p) {
  // Sum of P(exactly a servers alive) for a < q, in the log domain.
  std::vector<double> terms;
  for (std::int64_t alive = 0; alive < q; ++alive) {
    terms.push_back(log_choose(n, alive) +
                    static_cast<double>(alive) * std::log1p(-p) +
                    static_cast<double>(n - alive) * std::log(p));
  }
  return std::min(1.0, std::exp(log_sum_exp(terms)));
}

double grid_load(std::int64_t rows, std::int64_t cols) {
  const double r = static_cast<double>(rows);
  const double c = static_cast<double>(cols);
  return 1.0 / r + 1.0 / c - 1.0 / (r * c);
}

double chernoff_threshold(const std::vector<ReadGroup>& groups,
                          const std::vector<std::pair<double, double>>& mixture,
                          double delta) {
  double total_reads = 0.0;
  double mean = 0.0;
  for (const ReadGroup& g : groups) {
    const double reads =
        static_cast<double>(g.reads) * static_cast<double>(g.keys);
    total_reads += reads;
    for (const auto& [weight, p] : mixture) mean += reads * weight * p;
  }
  if (total_reads == 0.0) return 0.0;
  // Every l > 0 certifies x(l) = (Lambda(l) + log(1/delta)) / l; x(l) is
  // quasi-convex, so a golden-section search over log(l) finds the best.
  const double log_inv_delta = -std::log(delta);
  const auto certified = [&](double log_l) {
    const double l = std::exp(log_l);
    return (log_mgf(groups, mixture, l) + log_inv_delta) / l;
  };
  double lo = std::log(1e-6);
  double hi = std::log(60.0);
  const double ratio = (std::sqrt(5.0) - 1.0) / 2.0;
  double a = hi - ratio * (hi - lo);
  double b = lo + ratio * (hi - lo);
  double fa = certified(a);
  double fb = certified(b);
  for (int i = 0; i < 80; ++i) {
    if (fa < fb) {
      hi = b;
      b = a;
      fb = fa;
      a = hi - ratio * (hi - lo);
      fa = certified(a);
    } else {
      lo = a;
      a = b;
      fa = fb;
      b = lo + ratio * (hi - lo);
      fb = certified(b);
    }
  }
  const double best = std::min({fa, fb, certified(std::log(1e-6)),
                                certified(std::log(60.0))});
  return std::clamp(best, mean, total_reads);
}

std::vector<ReadGroup> group_reads(
    const std::unordered_map<std::uint64_t, std::uint64_t>& reads_per_key) {
  std::unordered_map<std::uint64_t, std::uint64_t> keys_by_count;
  for (const auto& [key, reads] : reads_per_key) ++keys_by_count[reads];
  std::vector<ReadGroup> groups;
  groups.reserve(keys_by_count.size());
  for (const auto& [reads, keys] : keys_by_count) groups.push_back({reads, keys});
  std::sort(groups.begin(), groups.end(),
            [](const ReadGroup& x, const ReadGroup& y) {
              return x.reads < y.reads;
            });
  return groups;
}

double count_margin(std::uint64_t trials, double p, double delta) {
  // Bernstein: P(|X - mu| >= t) <= 2 exp(-t^2 / (2 (var + t / 3))).
  const double l = std::log(2.0 / delta);
  const double var = static_cast<double>(trials) * p * (1.0 - p);
  return l / 3.0 + std::sqrt(l * l / 9.0 + 2.0 * l * var);
}

bool count_within(std::uint64_t count, std::uint64_t trials, double p,
                  double delta) {
  if (p == 0.0) return count == 0;
  const double mean = static_cast<double>(trials) * p;
  return std::fabs(static_cast<double>(count) - mean) <=
         count_margin(trials, p, delta);
}

void WriteHistory::reserve(std::size_t writes) { by_value_.reserve(writes); }

void WriteHistory::write(std::uint64_t key, std::int64_t value,
                         std::uint64_t position) {
  by_value_[value] = {key, position};
  by_key_[key].emplace_back(position, value);
}

bool WriteHistory::latest_before(std::uint64_t key, std::uint64_t position,
                                 std::int64_t* value) const {
  const auto it = by_key_.find(key);
  if (it == by_key_.end()) return false;
  const auto& writes = it->second;  // ascending positions
  const auto after = std::lower_bound(
      writes.begin(), writes.end(), position,
      [](const std::pair<std::uint64_t, std::int64_t>& w, std::uint64_t pos) {
        return w.first < pos;
      });
  if (after == writes.begin()) return false;
  *value = std::prev(after)->second;
  return true;
}

ReadVerdict WriteHistory::classify(std::uint64_t key, std::uint64_t position,
                                   bool found, std::int64_t value) const {
  std::int64_t latest = 0;
  const bool written = latest_before(key, position, &latest);
  if (!found) return written ? ReadVerdict::kBot : ReadVerdict::kUnknown;
  const auto origin = by_value_.find(value);
  if (origin == by_value_.end() || origin->second.key != key ||
      origin->second.position >= position) {
    return ReadVerdict::kInvalid;
  }
  return value == latest ? ReadVerdict::kFresh : ReadVerdict::kStale;
}

void ReplyTally::add(const WriteHistory& history, std::uint64_t key,
                     std::uint64_t position, bool is_read, bool answered,
                     bool found, std::int64_t value) {
  if (!answered) {
    ++failed;
    return;
  }
  if (!is_read) return;
  switch (history.classify(key, position, found, value)) {
    case ReadVerdict::kFresh:
      ++eligible_reads[key];
      break;
    case ReadVerdict::kStale:
    case ReadVerdict::kBot:
      ++eligible_reads[key];
      ++stale_or_bot;
      break;
    case ReadVerdict::kUnknown:
      break;
    case ReadVerdict::kInvalid:
      ++failed;
      break;
  }
}

std::uint64_t ReplyTally::eligible_total() const {
  std::uint64_t total = 0;
  for (const auto& [key, reads] : eligible_reads) total += reads;
  return total;
}

}  // namespace pqsbench::oracle
