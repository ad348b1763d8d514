#!/usr/bin/env python3
"""CI gate for workload-aware strategies (the quoracle optimizer).

Reads a strategy_throughput --json report and enforces three things on
top of the bench's own exit code:

  * the optimizer keeps winning — every gated (skewed-capacity) workload
    mix must show the optimized strategy's max capacity-weighted load
    strictly below the fixed construction's, and its predicted epsilon at
    or below the exact-form ceiling it was optimized under;
  * the deployed stale-read rate stays within the predicted epsilon plus
    its Chernoff margin (the conformance test's bound at bench scale);
  * serving-tier throughput/latency stay within the committed baseline
    envelope (bench/strategy_baseline.json): a section fails if ops/sec
    drops below 80% of baseline or p99 rises above 2x baseline. Baseline
    values are deliberately conservative (several-fold off a quiet
    single-CPU box) so shared-runner noise cannot flap the gate while
    order-of-magnitude regressions still trip it.

Also fails if the report's own "ok" flag is false (bit-identity of the
strategy-path shard aggregates — draw counts and checksums included —
across {1,8} workers, lost requests, or an optimizer loss on a gated
mix), or if a baselined section or gated mix is missing.

Usage: check_strategy_regression.py BENCH_strategy.json strategy_baseline.json
"""
import json
import sys


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    with open(sys.argv[1]) as f:
        report = json.load(f)
    with open(sys.argv[2]) as f:
        baseline = json.load(f)

    if report.get("ok") is not True:
        print("FAIL: the bench reported ok=false (strategy aggregate "
              "bit-identity gates tripped, the optimizer lost a gated mix, "
              "requests or draws were lost, or the stale rate exceeded its "
              "predicted-epsilon bound)")
        return 1

    mixes = {m["name"]: m for m in report.get("mixes", [])}
    gated = [m for m in mixes.values() if m.get("gated")]
    if not gated:
        print("FAIL: the report has no gated (skewed-capacity) mixes")
        return 1
    failed = []
    for m in sorted(gated, key=lambda m: m["name"]):
        win = m["optimized_max_load"] < m["fixed_max_load"]
        eps_ok = m["predicted_epsilon"] <= m["epsilon_ceiling"] + 1e-9
        verdict = "ok" if (win and eps_ok) else "REGRESSED"
        print(f"mix {m['name']}: optimized {m['optimized_max_load']:.4f} vs "
              f"fixed {m['fixed_max_load']:.4f}, "
              f"eps {m['predicted_epsilon']:.3g} "
              f"(ceiling {m['epsilon_ceiling']:.3g}) [{verdict}]")
        if not win:
            failed.append(f"{m['name']} optimizer win")
        if not eps_ok:
            failed.append(f"{m['name']} epsilon ceiling")

    eps = report.get("epsilon") or {}
    if not eps or eps.get("pairs", 0) <= 0:
        print("FAIL: the report has no epsilon measurement")
        return 1
    if eps["measured_stale_rate"] > eps["chernoff_bound"]:
        print(f"FAIL: measured stale rate {eps['measured_stale_rate']:.6g} "
              f"exceeds the Chernoff bound {eps['chernoff_bound']:.6g}")
        return 1

    sections = {s["name"]: s for s in report.get("sections", [])}
    for name, base in sorted(baseline["sections"].items()):
        got = sections.get(name)
        if got is None:
            print(f"{name}: MISSING from the report")
            failed.append(name)
            continue
        ops = got["ops_per_sec"]
        p99 = got["p99_ns"]
        ops_floor = 0.8 * base["ops_per_sec"]
        p99_ceiling = 2.0 * base["p99_ns"]
        ops_ok = ops >= ops_floor
        p99_ok = p99 <= p99_ceiling
        verdict = "ok" if (ops_ok and p99_ok) else "REGRESSED"
        print(f"{name}: {ops:.3g} ops/s (floor {ops_floor:.3g}), "
              f"p99 {p99 / 1e6:.2f}ms (ceiling {p99_ceiling / 1e6:.2f}ms) "
              f"[{verdict}]")
        if not ops_ok:
            failed.append(f"{name} throughput")
        if not p99_ok:
            failed.append(f"{name} p99")

    if failed:
        print(f"FAIL: {len(failed)} strategy regressions: "
              + ", ".join(failed))
        return 1
    print(f"OK: {len(gated)} gated mixes won by the optimizer; stale rate "
          f"{eps['measured_stale_rate']:.3g} within its bound; "
          f"{len(baseline['sections'])} sections within the regression "
          "envelope")
    return 0


if __name__ == "__main__":
    sys.exit(main())
