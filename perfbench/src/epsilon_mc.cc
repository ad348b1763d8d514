// epsilon-mc: the library's Monte-Carlo estimators, as used to reproduce
// the paper's tables, on a 2-thread core::Estimator. A round makes one
// call of each estimate below with a fresh rng seeded from (seed, round);
// every estimate must lie within its Bernstein interval (failure
// probability 1e-9) around the oracle's exact value. Before the rounds,
// one set of estimates is made on a 1-thread and on a 2-thread Estimator,
// whose results must be identical bit for bit.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/epsilon.h"
#include "core/estimator.h"
#include "core/monte_carlo.h"
#include "core/random_subset_system.h"
#include "math/rng.h"
#include "oracle.h"
#include "probes.h"
#include "quorum/grid.h"
#include "quorum/threshold.h"
#include "trace.h"
#include "workloads.h"

namespace pqsbench {

namespace {

constexpr double kDelta = 1e-9;
constexpr std::uint64_t kTrials = 1ULL << 17;  // per estimate call

enum class Kind { kPair, kMasking, kFailure, kLoad };

struct Estimate {
  const char* name;
  Kind kind;
  std::shared_ptr<const pqs::quorum::QuorumSystem> system;
  double exact;  // the event probability, or each server's load
  double p = 0.0;  // crash probability (kFailure)
  std::uint32_t b = 0, k = 0;  // kMasking
};

std::vector<Estimate> build_estimates() {
  Tracer::Scope span("setup.systems");
  const auto r15 = std::make_shared<pqs::core::RandomSubsetSystem>(100, 15);
  const auto r20 = std::make_shared<pqs::core::RandomSubsetSystem>(100, 20);
  const auto masking = std::make_shared<pqs::core::RandomSubsetSystem>(
      pqs::core::RandomSubsetSystem::masking(100, 10, 1e-3));
  const auto grid = std::make_shared<pqs::quorum::GridSystem>(10, 10);
  const auto majority = std::make_shared<pqs::quorum::ThresholdSystem>(100, 51);
  const std::int64_t mq = masking->quorum_size();
  const std::int64_t mk = masking->read_threshold();
  return {
      {"pair.R(100,15)", Kind::kPair, r15, oracle::nonintersection(100, 15)},
      {"pair.grid(10x10)", Kind::kPair, grid, 0.0},
      {"masking.R(100,q,b=10)", Kind::kMasking, masking,
       oracle::masking_union(100, mq, 10, mk), 0.0, 10,
       static_cast<std::uint32_t>(mk)},
      {"failure.R(100,20)", Kind::kFailure, r20,
       oracle::binomial_failure(100, 20, 0.75), 0.75},
      {"failure.threshold(100,51)", Kind::kFailure, majority,
       oracle::binomial_failure(100, 51, 0.5), 0.5},
      {"load.grid(10x10)", Kind::kLoad, grid, oracle::grid_load(10, 10)},
      {"load.threshold(100,51)", Kind::kLoad, majority, 0.51},
  };
}

// An estimate's raw outcome: event count, or per-server hit counts.
struct Outcome {
  std::uint64_t successes = 0;
  std::vector<std::uint64_t> hits;
  bool operator==(const Outcome& o) const {
    return successes == o.successes && hits == o.hits;
  }
};

Outcome run_estimate(const Estimate& e, std::uint64_t seed,
                     pqs::core::Estimator& engine) {
  pqs::math::Rng rng(seed);
  Outcome out;
  switch (e.kind) {
    case Kind::kPair: {
      Tracer::Scope span("core.estimate_nonintersection");
      out.successes =
          pqs::core::estimate_nonintersection(*e.system, kTrials, rng, engine)
              .successes();
      break;
    }
    case Kind::kMasking: {
      Tracer::Scope span("core.estimate_masking_epsilon");
      out.successes = pqs::core::estimate_masking_epsilon(
                          *e.system, e.b, e.k, kTrials, rng, engine)
                          .successes();
      break;
    }
    case Kind::kFailure: {
      Tracer::Scope span("core.estimate_failure_probability");
      out.successes = pqs::core::estimate_failure_probability(
                          *e.system, e.p, kTrials, rng, engine)
                          .successes();
      break;
    }
    case Kind::kLoad: {
      Tracer::Scope span("core.estimate_load_profile");
      out.hits =
          pqs::core::estimate_load_profile(*e.system, kTrials, rng, engine)
              .hits();
      break;
    }
  }
  return out;
}

// Whether the outcome lies within its interval around the exact value.
bool within_interval(const Estimate& e, const Outcome& out) {
  if (e.kind != Kind::kLoad) {
    return oracle::count_within(out.successes, kTrials, e.exact, kDelta);
  }
  // Each server's hit count is Binomial(trials, load); union bound.
  const double delta = kDelta / static_cast<double>(out.hits.size());
  for (std::uint64_t h : out.hits) {
    if (!oracle::count_within(h, kTrials, e.exact, delta)) return false;
  }
  return !out.hits.empty();
}

void check_estimator_closed_forms(const std::vector<Estimate>& estimates,
                                  RunResult& result) {
  for (const Estimate& e : estimates) {
    const std::int64_t n = e.system->universe_size();
    const std::int64_t q = e.system->min_quorum_size();
    double library = e.exact;  // strict systems: pairs always intersect
    if (e.kind == Kind::kPair && e.exact > 0.0) {
      library = pqs::core::nonintersection_exact(n, q);
    }
    if (e.kind == Kind::kMasking) {
      library = pqs::core::masking_epsilon_exact(n, q, e.b, e.k);
    }
    if (e.kind == Kind::kFailure) library = e.system->failure_probability(e.p);
    if (e.kind == Kind::kLoad) library = e.system->load();
    if (std::fabs(library - e.exact) > 1e-9 * std::max(e.exact, 1e-12)) {
      result.fail(std::string(e.name) +
                  ": oracle and library closed form disagree");
    }
  }
}

}  // namespace

// The same estimates from the same seed on a 1-thread and a 2-thread
// Estimator must agree bit for bit.
void check_thread_identity(const std::vector<Estimate>& estimates,
                           std::uint64_t seed, RunResult& result) {
  pqs::core::Estimator single(pqs::core::EstimatorOptions{1, 64});
  pqs::core::Estimator dual(pqs::core::EstimatorOptions{2, 64});
  for (std::size_t i = 0; i < estimates.size(); ++i) {
    if (!(run_estimate(estimates[i], mix64(seed + i), single) ==
          run_estimate(estimates[i], mix64(seed + i), dual))) {
      result.fail(std::string(estimates[i].name) +
                  ": results differ between 1 and 2 threads");
    }
  }
}

RunResult run_epsilon_mc(const Args& args) {
  RunResult result;
  check_closed_forms(kv_spec("epsilon-mc"), result);
  {
    const std::vector<Estimate> estimates = build_estimates();
    check_estimator_closed_forms(estimates, result);
    check_thread_identity(estimates, mix64(args.seed), result);
  }
  if (args.trace) run_probes(kv_spec("epsilon-mc"), args, result);

  run_rounds(args, result, [&](std::uint64_t seed) {
    RoundSample out;
    const std::uint64_t t_setup = now_ns();
    const std::vector<Estimate> estimates = build_estimates();
    pqs::core::Estimator engine(pqs::core::EstimatorOptions{2, 64});
    out.setup_s = static_cast<double>(now_ns() - t_setup) * 1e-9;
    for (std::size_t i = 0; i < estimates.size(); ++i) {
      const std::uint64_t t0 = now_ns();
      const Outcome outcome =
          run_estimate(estimates[i], mix64(seed + i), engine);
      const double call_s = static_cast<double>(now_ns() - t0) * 1e-9;
      out.busy_s += call_s;
      out.latency_us.push_back(call_s * 1e6);
      out.attempted += kTrials;
      if (!within_interval(estimates[i], outcome)) {
        out.failed += kTrials;
        std::fprintf(stderr, "estimate outside its interval: %s\n",
                     estimates[i].name);
      }
    }
    out.ops = static_cast<double>(out.attempted);
    return out;
  });
  return result;
}

}  // namespace pqsbench
