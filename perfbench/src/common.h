// Shared plumbing for the benchmark binary: command-line arguments, the
// metric/result record every workload fills, timing and order statistics,
// process memory figures, and the heap-allocation counter.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pqsbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Where the traced run writes its spans (relative to the working
  // directory); empty = .bench_build/trace-<workload>-<seed>.json.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run reports. `attempted`/`failed` count operations (KV
// requests, or Monte-Carlo trials); `correct` covers every aggregate check
// (epsilon margins, closed-form agreement, bit-identity) and the outputs
// of the operations that did not fail.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void fail(const std::string& why);  // correct = false, reason to stderr
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

// SplitMix64 finalizer: derives every per-round and per-component seed
// from the command-line seed.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Order statistics with linear interpolation between closest ranks (the
// same rule as numpy's default); the input is copied and sorted.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

// Peak resident set size of this process so far (getrusage), in bytes.
std::uint64_t peak_rss_bytes();

// What one round measured.
struct RoundSample {
  double setup_s = 0.0;
  // The throughput phase: operations completed, and the seconds they took.
  double ops = 0.0;
  double busy_s = 0.0;
  std::vector<double> latency_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// Runs whole rounds until args.seconds have passed (at least two), then
// adds the end-to-end metrics to `result`: the throughput over all rounds
// (their operations over their busy seconds), the p50 of every latency
// sample, the median set-up time, and the peak resident set at the end of
// the first round (every round builds the same deployment, so later
// rounds only add allocator drift). Pooled figures rather than medians of
// rounds: this host's speed drifts in phases of seconds, and a pooled
// figure moves in proportion to a run's share of slow phases where a
// median jumps between them. A traced run alternates untraced and traced
// rounds and adds only the tracing overhead: traced minus untraced
// throughput.
void run_rounds(const Args& args, RunResult& result,
                const std::function<RoundSample(std::uint64_t seed)>& round);

// Heap allocations made through global operator new while counting is
// on. The counter is process-wide; only the single-threaded probes turn
// it on.
struct AllocCounter {
  static std::atomic<bool> enabled;
  static std::atomic<std::uint64_t> count;
};

}  // namespace pqsbench
