#!/usr/bin/env python3
"""Compare two pipeline-benchmark results files, metric by metric.

Usage::

    python benchmarks/pipeline/compare.py BASE.json NEW.json

For each workload it prints one row per end-to-end metric: each side's
median and quartiles, the relative change, the metric's bound and a
verdict:

- ``unresolved``: either side's spread (interquartile range over the
  median) is wider than the bound, unless every run of NEW reads better
  than every run of BASE;
- ``worse`` / ``better``: the median moved by more than the bound;
- ``same``: the median moved by no more than the bound.

Exit status is 1 when any row is worse or unresolved, else 0.
"""

from __future__ import annotations

import json
import sys

#: Stamp fields that must agree for a comparison to mean anything.
SETTINGS = ("cpu_count", "mode", "seed", "repeats", "scale")


def _spread(m: dict) -> float:
    return (m["q3"] - m["q1"]) / abs(m["median"]) if m["median"] else 0.0


def verdict(base: dict, new: dict) -> tuple:
    """``(delta, verdict)`` of one metric's two summaries."""
    bound = base["bound"]
    sign = 1.0 if base["better"] == "lower" else -1.0
    if base["median"]:
        delta = (new["median"] - base["median"]) / abs(base["median"])
    else:
        delta = new["median"] - base["median"]
    worse_by = sign * delta
    if max(_spread(base), _spread(new)) > bound:
        if all(sign * (b - a) < 0 for a in base["values"] for b in new["values"]):
            return delta, "better"
        return delta, "unresolved"
    if worse_by > bound:
        return delta, "worse"
    if worse_by < -bound:
        return delta, "better"
    return delta, "same"


def compare(base: dict, new: dict) -> list:
    """``(workload, metric, base, new, delta, verdict)`` rows."""
    rows = []
    for workload, entry in base["workloads"].items():
        other = new["workloads"].get(workload)
        if other is None:
            continue
        for name, m in entry["metrics"].items():
            if name in other["metrics"]:
                n = other["metrics"][name]
                rows.append((workload, name, m, n, *verdict(m, n)))
    return rows


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: compare.py BASE.json NEW.json", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        base = json.load(handle)
    with open(argv[1], encoding="utf-8") as handle:
        new = json.load(handle)
    for key in SETTINGS:
        if base["stamp"].get(key) != new["stamp"].get(key):
            print(f"warning: {key} differs: {base['stamp'].get(key)} vs "
                  f"{new['stamp'].get(key)}", file=sys.stderr)
    print(f"base {base['stamp'].get('git_sha', '?')[:12]}  "
          f"new {new['stamp'].get('git_sha', '?')[:12]}")
    print(f"{'workload':<14s} {'metric':<31s} {'base [q1, q3]':>30s} "
          f"{'new [q1, q3]':>30s} {'delta':>8s} {'bound':>6s}  verdict")
    bad = 0
    for workload, name, m, n, delta, outcome in compare(base, new):
        bad += outcome in ("worse", "unresolved")
        cells = [f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
                 for s in (m, n)]
        print(f"{workload:<14s} {name:<31s} {cells[0]:>30s} {cells[1]:>30s} "
              f"{delta:>+8.2%} {m['bound']:>6.2f}  {outcome}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
