#!/usr/bin/env python3
"""Compare two saved benchmark runs: ``compare.py A.json B.json``.

Both files come from ``run.py --repeat N --out FILE`` on the same seed:
the N runs of a workload repeat one load, so their spread is the
machine's alone and the count metrics repeat exactly. Prints one row per
(workload, end-to-end metric) with both medians, the bound
``BENCHMARK.json`` fixes for the metric and a verdict:

* ``unresolved`` - either side's run-to-run spread (quartile distance
  over median) is wider than the bound, so the runs cannot tell;
* ``worse`` / ``better`` - B's median differs from A's by more than the
  bound, in that direction;
* ``same`` - otherwise.

A last row per workload gives ``failed_ratio`` (statements that raised
or returned a wrong result over statements attempted), which has no
relative bound: it is ``worse`` as soon as it rises. Refuses to compare
runs whose workload fingerprints differ (different generated rows or
statements), and exits non-zero on any ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, list[dict]]:
    """workload -> its untraced runs."""
    by_workload: dict[str, list[dict]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if not run["trace"]:
            by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def failed_ratio(runs: list[dict]) -> float:
    return (sum(run["failed"] for run in runs)
            / sum(run["attempted"] for run in runs))


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def verdict(a: list[float], b: list[float], bound: float,
            better: str) -> str:
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    change = (median(b) - median(a)) / median(a)
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(a_path: str, b_path: str) -> int:
    metrics = json.loads(MANIFEST.read_text())["end_to_end"]
    a_runs, b_runs = load(a_path), load(b_path)
    if set(a_runs) != set(b_runs):
        sys.exit("compare: the two files cover different workloads")
    status = 0
    print(f"{'workload':<13} {'metric':<24} {'A median':>13} "
          f"{'B median':>13} {'bound':>6}  verdict")
    for workload, a in a_runs.items():
        b = b_runs[workload]
        prints = [sorted({(run["seed"], run["fingerprint"]) for run in side})
                  for side in (a, b)]
        if prints[0] != prints[1]:
            sys.exit(f"compare: {workload} ran different loads "
                     f"(seed, fingerprint): {prints[0]} vs {prints[1]}")
        for metric in metrics:
            name = metric["name"]
            a_values = [run["metrics"][name]["value"] for run in a]
            b_values = [run["metrics"][name]["value"] for run in b]
            result = verdict(a_values, b_values, metric["bound"],
                             metric["better"])
            status |= result == "worse"
            print(f"{workload:<13} {name:<24} {median(a_values):>13.6g} "
                  f"{median(b_values):>13.6g} {metric['bound']:>6.0%}  "
                  f"{result}")
        a_failed, b_failed = failed_ratio(a), failed_ratio(b)
        result = ("worse" if b_failed > a_failed
                  else "better" if b_failed < a_failed else "same")
        status |= result == "worse"
        print(f"{workload:<13} {'failed_ratio':<24} {a_failed:>13.6g} "
              f"{b_failed:>13.6g} {'rise':>6}  {result}")
    return status


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
