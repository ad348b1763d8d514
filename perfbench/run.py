#!/usr/bin/env python3
"""Builds the benchmark (and the library it links) and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload tcp-ycsb-b --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is incremental, so only the first run in a checkout compiles. Build
output goes to standard error; the benchmark's standard output, whose last
line is the JSON result, is passed through unchanged. The exit code is the
benchmark's, or 1 if the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds pqs_bench; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "pqs_bench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "pqs_bench")


def trace_path(args, build_dir):
    """Where a traced run writes its spans: next to the build."""
    def value(flag, default):
        return args[args.index(flag) + 1] if flag in args[:-1] else default
    return os.path.join(build_dir, "trace-%s-%s.json" % (
        value("--workload", "none"), value("--seed", "0")))


def main():
    args = sys.argv[1:]
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if "--trace-out" not in args:
        args = args + ["--trace-out", trace_path(args, build_dir)]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
