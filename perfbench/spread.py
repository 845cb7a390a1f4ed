"""Spread report: run one workload several times and show how steady
each metric is, and where its percentiles sit.

Usage::

    python3 perfbench/spread.py --workload decode --runs 10 --seconds 20

Run ``k`` uses seed ``--seed + k``, so the spread includes what the
seed itself moves.
For every metric it prints the median, the quartiles as Python's
``statistics.quantiles(values, n=4)`` gives them, min/max and the
quartile distance as a share of the median; then the per-class latency
table (class medians over the runs) and, for p50 and p90, which cost
levels each percentile fell inside.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float):
    """One benchmark invocation; returns ``(result, report)``."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    report = next(
        json.loads(line[len("report "):])
        for line in lines if line.startswith("report ")
    )
    return json.loads(lines[-1]), report


def spread_row(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "iqr_share": (q3 - q1) / med if med else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("decode", "fetch", "ingest"))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results, reports = [], []
    for k in range(args.runs):
        seed = args.seed + k
        result, report = run_once(args.workload, seed, seconds)
        results.append(result)
        reports.append(report)
        line = "  ".join(
            f"{name}={m['value']:.5g}" for name, m in result["metrics"].items()
        )
        print(f"run {k + 1}/{args.runs} seed={seed}: {line}", flush=True)

    print(f"\n{args.workload}: {args.runs} runs x {seconds:g} s")
    print(f"  {'metric':<28} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'min':>11} {'max':>11} {'iqr/med':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        row = spread_row([r["metrics"][name]["value"] for r in results])
        print(f"  {name:<28} {row['median']:>11.5g} {row['q1']:>11.5g} "
              f"{row['q3']:>11.5g} {row['min']:>11.5g} {row['max']:>11.5g} "
              f"{100 * row['iqr_share']:>7.2f}% "
              f"{100 * bounds[name]:>5.0f}%")

    classes: dict[str, list[tuple[int, float, float]]] = {}
    where: dict[str, list[list[str]]] = {"p50": [], "p90": []}
    for report in reports:
        lc = report["latency_classes"]
        for cls, row in lc["classes"].items():
            classes.setdefault(cls, []).append(
                (row["n"], row["p50_ms"], row["p90_ms"])
            )
        for pct in where:
            where[pct].append(lc["percentiles"][pct]["inside"])
    print("\n  per-class latency (median over runs)")
    print(f"  {'class':<14} {'n':>7} {'p50_ms':>10} {'p90_ms':>10}")
    for cls in sorted(classes, key=lambda c: (c.split("/")[-1], len(c), c)):
        rows = classes[cls]
        print(f"  {cls:<14} {statistics.median(r[0] for r in rows):>7g} "
              f"{statistics.median(r[1] for r in rows):>10.4g} "
              f"{statistics.median(r[2] for r in rows):>10.4g}")
    for pct, per_run in where.items():
        counts: dict[str, int] = {}
        for inside in per_run:
            key = "+".join(inside) or "boundary"
            counts[key] = counts.get(key, 0) + 1
        print(f"  {pct} fell inside: " + ", ".join(
            f"{k} ({v}/{len(per_run)} runs)" for k, v in sorted(counts.items())
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
