#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "trace.h"

namespace pqsbench {

std::atomic<bool> AllocCounter::enabled{false};
std::atomic<std::uint64_t> AllocCounter::count{0};

void RunResult::fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uint64_t peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
}

void run_rounds(const Args& args, RunResult& result,
                const std::function<RoundSample(std::uint64_t seed)>& round) {
  Tracer& tracer = Tracer::instance();
  std::vector<double> setup_s, latency_us;
  double ops[2] = {0.0, 0.0};  // untraced, traced
  double busy_s[2] = {0.0, 0.0};
  double first_round_rss_mb = 0.0;
  const std::uint64_t start = now_ns();
  for (std::uint64_t r = 0;; ++r) {
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    if (r >= 2 && elapsed >= args.seconds) break;
    const bool traced = args.trace && r % 2 == 1;
    tracer.set_enabled(traced);
    RoundSample s;
    {
      Tracer::Scope span("round");
      s = round(mix64(args.seed * 0x100000001b3ULL + r));
    }
    tracer.set_enabled(false);
    if (r == 0) first_round_rss_mb = static_cast<double>(peak_rss_bytes()) / 1e6;
    result.attempted += s.attempted;
    result.failed += s.failed;
    ops[traced] += s.ops;
    busy_s[traced] += s.busy_s;
    setup_s.push_back(s.setup_s);
    latency_us.insert(latency_us.end(), s.latency_us.begin(),
                      s.latency_us.end());
    std::fprintf(stderr, "round %llu%s: setup %.6f s, %.6g ops/s, p50 %.2f us\n",
                 static_cast<unsigned long long>(r), traced ? " traced" : "",
                 s.setup_s, s.ops / s.busy_s, median(s.latency_us));
  }
  if (args.trace) {
    result.add("trace.overhead_ops_s",
               ops[1] / busy_s[1] - ops[0] / busy_s[0], "ops/s");
    return;
  }
  result.add("throughput_ops_s", ops[0] / busy_s[0], "ops/s");
  result.add("rtt_p50_us", quantile(latency_us, 0.5), "us");
  result.add("rtt_p90_us", quantile(latency_us, 0.9), "us");
  std::fprintf(stderr, "%zu latency samples\n", latency_us.size());
  result.add("setup_s", median(setup_s), "s");
  result.add("peak_rss_mb", first_round_rss_mb, "MB");
}

}  // namespace pqsbench

// Global allocation hooks: one relaxed load per allocation when counting
// is off. Every other operator new/delete form routes through these.
void* operator new(std::size_t size) {
  if (pqsbench::AllocCounter::enabled.load(std::memory_order_relaxed)) {
    pqsbench::AllocCounter::count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
