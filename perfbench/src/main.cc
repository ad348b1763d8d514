// The quorum store's benchmark. One process runs one workload:
//
//   pqs_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and prints, as the last line of standard output, one JSON object with
// the keys correct, attempted, failed and metrics. Untraced runs report
// the end-to-end metrics; traced runs report the per-module metrics and
// write their spans to .bench_build/trace-<workload>-<seed>.json (or to
// --trace-out). The exit code is 0 only when every check passed and no
// operation failed. `--workload reference` prints the reference figures of
// README.md instead.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "simd/kernels.h"
#include "trace.h"
#include "workloads.h"

namespace pqsbench {
namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: pqs_bench --workload "
               "tcp-ycsb-b|kv-insert-heavy|kv-read-masking|epsilon-mc "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args.trace = value[0] == '1';
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty();
}

void print_result(const RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    // JSON has no NaN or infinity; a metric that could not be measured
    // reads as null (and the run is marked incorrect by the caller).
    if (std::isfinite(m.value)) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    } else {
      std::printf("%s\"%s\": {\"value\": null, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(), m.unit.c_str());
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace
}  // namespace pqsbench

int main(int argc, char** argv) {
  using namespace pqsbench;
  // Keep freed heap memory in the process: every round rebuilds its
  // deployment, and without this the allocator hands the previous round's
  // pages back to the kernel, so the next round's inserts time page faults
  // (26 000 per kv-insert-heavy round), whose cost on a virtual machine
  // varies with the host rather than with the store.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  Args args;
  if (!parse(argc, argv, args)) return usage("bad arguments");
  if (args.workload == "reference") return run_reference(args);
  if (args.workload != "epsilon-mc" && !is_kv_workload(args.workload)) {
    return usage("unknown workload");
  }
  std::fprintf(stderr, "pqs_bench: workload=%s seed=%llu seconds=%g trace=%d "
               "simd=%s\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), args.seconds,
               args.trace ? 1 : 0, pqs::simd::active().name);
  RunResult result = args.workload == "epsilon-mc"
                         ? run_epsilon_mc(args)
                         : run_kv(kv_spec(args.workload), args);
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) result.fail("metric " + m.name + " is not finite");
  }
  if (args.trace) {
    const std::string path =
        args.trace_out.empty()
            ? ".bench_build/trace-" + args.workload + "-" +
                  std::to_string(args.seed) + ".json"
            : args.trace_out;
    if (!Tracer::instance().write_json(path)) {
      std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    }
  }
  print_result(result);
  return result.correct && result.failed == 0 ? 0 : 1;
}
