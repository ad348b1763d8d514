// Self-tests of the benchmark's oracles: the closed forms on cases small
// enough to count by hand, the bounds on distributions whose tails are
// known, and the failure accounting — a reply carrying a never-written
// value, an unanswered request, and an estimate outside its interval must
// each be counted as a failure.
#include <cmath>
#include <cstdio>

#include "oracle.h"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

void closed_forms() {
  using namespace pqsbench::oracle;
  // Two 2-subsets of 4 servers are disjoint in 1 of C(4,2) = 6 cases.
  expect(near(nonintersection(4, 2), 1.0 / 6.0), "nonintersection(4,2)");
  expect(nonintersection(5, 3) == 0.0, "2q > n always intersects");
  // Fewer than 2 of 3 fair coins alive: (1 + 3) / 8.
  expect(near(binomial_failure(3, 2, 0.5), 0.5), "binomial_failure(3,2,.5)");
  expect(near(grid_load(2, 2), 0.75), "grid_load(2,2)");
  // With no faulty servers nothing can be fabricated, and masking with
  // k = 1 fails exactly when the quorums are disjoint.
  expect(fabrication(10, 3, 0, 1) == 0.0, "fabrication without faults");
  expect(near(masking_union(10, 3, 0, 1), nonintersection(10, 3)),
         "masking_union(k=1,b=0) == nonintersection");
  expect(near(masking_bot(10, 3, 0, 1), nonintersection(10, 3)),
         "masking_bot(k=1,b=0) == nonintersection");
  double weight = 0.0;
  for (const auto& [w, p] : masking_bot_mixture(100, 44, 10, 10)) weight += w;
  expect(near(weight, 1.0), "mixture weights sum to 1");
}

void bounds() {
  using namespace pqsbench::oracle;
  // One key read 50 times whose write quorum is bad with probability
  // 1/2: all 50 reads fail together, far above any 1e-9 margin.
  expect(chernoff_threshold({{50, 1}}, {{0.5, 0.0}, {0.5, 1.0}}, 1e-9) ==
             50.0,
         "a shared write quorum can fail every read of its key");
  // Independent reads: the threshold sits above the mean, below the
  // total, and is crossed by a count far in the tail.
  const double t = chernoff_threshold({{100000, 1}}, {{1.0, 0.01}}, 1e-9);
  expect(t > 1000.0 && t < 1400.0, "binomial Chernoff threshold");
  // Spreading the same reads over many keys with a mixture must not
  // tighten the bound below the mean.
  const double spread =
      chernoff_threshold({{10, 10000}}, {{0.9, 0.0}, {0.1, 0.1}}, 1e-9);
  expect(spread > 1000.0 && spread < 100000.0, "mixture threshold");
  expect(count_within(1000, 100000, 0.01, 1e-9), "count at its mean");
  expect(!count_within(2000, 100000, 0.01, 1e-9),
         "an estimate outside its interval is a failure");
  expect(!count_within(1, 100000, 0.0, 1e-9),
         "an impossible event observed is a failure");
}

void reply_accounting() {
  using namespace pqsbench::oracle;
  WriteHistory history;
  history.write(1, -1, 0);  // prefill key 1
  history.write(1, 5, 2);   // overwrite at position 2
  expect(history.classify(1, 3, true, 5) == ReadVerdict::kFresh, "fresh");
  expect(history.classify(1, 3, true, -1) == ReadVerdict::kStale, "stale");
  expect(history.classify(1, 3, false, 0) == ReadVerdict::kBot, "bot");
  expect(history.classify(2, 3, false, 0) == ReadVerdict::kUnknown,
         "unwritten key, no value");
  expect(history.classify(1, 1, true, 5) == ReadVerdict::kInvalid,
         "a value from a later write");
  expect(history.classify(2, 3, true, 5) == ReadVerdict::kInvalid,
         "another key's value");
  expect(history.classify(1, 3, true, 77) == ReadVerdict::kInvalid,
         "a never-written value");

  ReplyTally tally;
  tally.add(history, 1, 3, true, true, true, 5);    // fresh
  tally.add(history, 1, 4, true, true, true, -1);   // stale
  tally.add(history, 1, 5, true, true, true, 77);   // never written
  tally.add(history, 1, 6, true, false, false, 0);  // unanswered read
  tally.add(history, 1, 7, false, false, false, 0); // unanswered write
  expect(tally.failed == 3,
         "never-written values and unanswered requests are failures");
  expect(tally.stale_or_bot == 1, "stale reads are counted, not failed");
  expect(tally.eligible_total() == 2, "eligible reads");
}

}  // namespace

int main() {
  closed_forms();
  bounds();
  reply_accounting();
  if (g_failures == 0) std::printf("oracle self-tests passed\n");
  return g_failures == 0 ? 0 : 1;
}
