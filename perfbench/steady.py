#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Runs each workload repeatedly, one seed per run, and prints for every
end-to-end metric the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median,
next to the bound BENCHMARK.json sets for it. Also prints the share of
failed operations, which must be the same in every run. Run from the
repository root:

    python3 perfbench/steady.py --runs 10 [--workloads a,b] [--seed-base 1]
        [--seconds S] [--trace] [--json out.json]

Exits 1 if any run fails, or any spread other than setup_s's exceeds a
third of its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--json", default="")
    opts = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {}
    ok = True
    for workload in opts.workloads.split(","):
        values = {}
        shares = set()
        for i in range(opts.runs):
            result = run_once(workload, opts.seed_base + i, opts.seconds,
                              opts.trace)
            if result is None or not result["correct"]:
                print("%s seed %d: run failed" % (workload, opts.seed_base + i))
                ok = False
                continue
            shares.add((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        failed_shares = sorted({f / a for f, a in shares})
        print("%s: %d runs, failed share %s" % (workload, opts.runs,
                                                failed_shares))
        report[workload] = {}
        for name, vals in sorted(values.items()):
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], vals[0], vals[0]))
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above bound/3"
                ok = False
            print("  %-36s median %14.6g  q1 %14.6g  q3 %14.6g  spread %6.2f%%"
                  "%s%s" % (name, med, q1, q3, 100 * spread,
                            "  bound %g%%" % (100 * bound) if bound else "",
                            flag))
            report[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                      "spread": spread, "values": vals}
        sys.stdout.flush()
    if opts.json:
        with open(opts.json, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
