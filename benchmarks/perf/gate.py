"""Tolerance-based regression gate over ``BENCH_ope.json``.

Raw throughput numbers are hostage to whatever machine ran them, so the
gate compares the *speedup ratios* (vectorized / scalar on the same
box, same run) against a committed baseline.  A run fails when any
tracked speedup falls more than ``tolerance`` (default 30%) below its
baseline value — a real engine regression, not runner noise, at that
magnitude.

Usage::

    python benchmarks/perf/gate.py BENCH_ope.json \
        --baseline benchmarks/perf/BENCH_ope.smoke_baseline.json \
        --tolerance 0.30

Exit status 0 when every metric is within tolerance, 1 otherwise.
Pure stdlib so CI can call it without the benchmark plugins installed
(the cross-run history module it shares with the package is itself
stdlib-only and loaded by file path, skipping the package import).

Beyond the single-run tolerance check, every gated run is appended to
``benchmarks/history/runs.jsonl`` (git SHA + timestamp + cpu_count)
and the gate warns — without failing — when a gated metric has
decreased strictly monotonically over the last three runs on the same
``cpu_count``: a slow drift no one-shot tolerance can see.  Disable
with ``--no-history``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys

_REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def _load_history_module():
    """Load ``repro.obs.history`` standalone (it is stdlib-only)."""
    path = os.path.join(_REPO_ROOT, "src", "repro", "obs", "history.py")
    spec = importlib.util.spec_from_file_location("_repro_obs_history", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

#: (human label, path into the artifact dict) for each gated ratio.
GATED_METRICS = (
    ("single-policy IPS speedup", ("single_policy_ips", "speedup")),
    ("class-search speedup", ("class_search", "speedup")),
    ("class bootstrap speedup", ("class_bootstrap", "speedup")),
    (
        "instrumentation relative throughput",
        ("instrumentation", "relative_throughput"),
    ),
    (
        "harvest machinehealth speedup",
        ("harvest", "machinehealth", "speedup"),
    ),
    ("harvest loadbalance speedup", ("harvest", "loadbalance", "speedup")),
    ("harvest cache speedup", ("harvest", "cache", "speedup")),
)

#: (human label, path, floor) gated against an *absolute* floor rather
#: than a baseline: same-box ratios whose acceptable minimum is a spec,
#: not a measurement.  The ledger's overhead budget is ≤10% on the
#: batched harvest hot path, so relative throughput must stay ≥ 0.9
#: regardless of what any baseline happened to record.
ABSOLUTE_FLOORS = (
    (
        "ledger relative throughput",
        ("ledger", "relative_throughput"),
        0.9,
    ),
    # The watchtower carries the same ≤10% budget: streaming health
    # monitors fold every batch's propensities on the harvest hot
    # path, and that fold may not cost more than 10% of the
    # unmonitored loop.
    (
        "monitor overhead relative throughput",
        ("obs", "monitor_overhead", "relative_throughput"),
        0.9,
    ),
    # The online policy server's acceptance target (ISSUE 10): the
    # in-process serving loop — asyncio batcher included — must answer
    # at least 50k decisions/sec.  Absolute, not baseline-relative:
    # the number IS the requirement.
    (
        "serve decisions/sec",
        ("serve", "decisions_per_sec"),
        50_000.0,
    ),
)

#: Metrics watched by the cross-run trend check: the gated ratios plus
#: the absolute-floor ratios, as dotted keys into the flattened
#: history records (see ``repro.obs.history.bench_record``).
TREND_METRICS = tuple(
    ".".join(path) for _, path in GATED_METRICS
) + tuple(".".join(path) for _, path, _ in ABSOLUTE_FLOORS)

#: Consecutive strictly-decreasing runs that trigger a trend warning.
TREND_RUNS = 3

DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_ope.smoke_baseline.json"
)


def _fmt(value: float) -> str:
    """Ratios print as ``0.93x``; rate floors (≥1000) as plain counts."""
    return f"{value:,.0f}" if value >= 1000 else f"{value:.2f}x"


def _lookup(artifact: dict, path: tuple) -> float:
    value = artifact
    for key in path:
        if not isinstance(value, dict) or key not in value:
            raise KeyError("/".join(path))
        value = value[key]
    return float(value)


def check_regressions(
    current: dict, baseline: dict, tolerance: float = 0.30
) -> list[str]:
    """Compare gated metrics; return a failure message per regression.

    An empty list means the run passes.  Metrics *above* baseline (or
    missing from the baseline entirely, e.g. a newly added kernel) never
    fail the gate — it guards against losing performance, not gaining it.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    failures = []
    for label, path in GATED_METRICS:
        try:
            expected = _lookup(baseline, path)
        except KeyError:
            continue  # not in baseline yet: nothing to regress against
        actual = _lookup(current, path)
        floor = expected * (1.0 - tolerance)
        if actual < floor:
            failures.append(
                f"{label}: {actual:.2f}x is more than {tolerance:.0%} below "
                f"the baseline {expected:.2f}x (floor {floor:.2f}x)"
            )
    for label, path, floor in ABSOLUTE_FLOORS:
        try:
            actual = _lookup(current, path)
        except KeyError:
            continue  # artifact predates the metric: nothing to gate
        if actual < floor:
            failures.append(
                f"{label}: {_fmt(actual)} is below the absolute floor "
                f"{_fmt(floor)}"
            )
    return failures


def check_trends(current: dict, history_dir: str) -> list[dict]:
    """Append this run to the history and warn on monotone drifts.

    Trend warnings go to stderr but never fail the gate: three
    strictly-decreasing runs of a gated ratio on the same ``cpu_count``
    is a drift worth a human look, not (yet) a regression the
    tolerance gate would catch.  History trouble (unwritable dir,
    missing git) degrades to a note — the gate's pass/fail must not
    depend on the history being available.
    """
    try:
        history_module = _load_history_module()
        history = history_module.RunHistory(history_dir)
        record = history.append(
            history_module.bench_record(current, cwd=_REPO_ROOT)
        )
        drifts = history_module.monotone_regressions(
            history,
            TREND_METRICS,
            k=TREND_RUNS,
            cpu_count=record.get("cpu_count"),
        )
    except Exception as error:  # noqa: BLE001 - advisory path only
        print(f"history: skipped ({error})", file=sys.stderr)
        return []
    for drift in drifts:
        values = " -> ".join(f"{v:.2f}" for v in drift["values"])
        print(
            f"TREND WARNING: {drift['metric']} has decreased over the "
            f"last {TREND_RUNS} runs on cpu_count="
            f"{drift['cpu_count']}: {values} "
            f"({drift['drop']:.0%} total)",
            file=sys.stderr,
        )
    return drifts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate BENCH_ope.json speedups against a baseline."
    )
    parser.add_argument("artifact", help="freshly produced BENCH_ope.json")
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help="committed baseline artifact (default: smoke baseline)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional drop below baseline (default 0.30)",
    )
    parser.add_argument(
        "--history-dir",
        default=os.path.join(_REPO_ROOT, "benchmarks", "history"),
        help="where the cross-run runs.jsonl accumulates "
        "(default benchmarks/history/)",
    )
    parser.add_argument(
        "--no-history",
        action="store_true",
        help="skip the history append and the cross-run trend check",
    )
    args = parser.parse_args(argv)

    with open(args.artifact, "r", encoding="utf-8") as f:
        current = json.load(f)
    with open(args.baseline, "r", encoding="utf-8") as f:
        baseline = json.load(f)

    failures = check_regressions(current, baseline, tolerance=args.tolerance)
    if not args.no_history:
        check_trends(current, args.history_dir)
    for label, path in GATED_METRICS:
        try:
            now = _lookup(current, path)
            then = _lookup(baseline, path)
        except KeyError:
            continue
        print(f"{label}: {now:.2f}x (baseline {then:.2f}x)")
    for label, path, floor in ABSOLUTE_FLOORS:
        try:
            now = _lookup(current, path)
        except KeyError:
            continue
        print(f"{label}: {_fmt(now)} (absolute floor {_fmt(floor)})")
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print(f"perf gate passed (tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
