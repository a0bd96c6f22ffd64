"""Append-only cross-run telemetry history (``runs.jsonl``).

Every benchmark and every manifest-producing run so far overwrote the
previous data point — ``BENCH_ope.json`` held exactly one run and the
trajectory was invisible.  :class:`RunHistory` fixes that with the
dumbest durable thing that works: an append-only JSONL file where each
line is one run keyed by git SHA, timestamp, and ``cpu_count`` (ratios
measured on a single-core box must never be compared against
multi-core ones — see ROADMAP's multi-core items).

Records come in two kinds:

- ``bench`` — the gated ratio metrics flattened out of a
  ``BENCH_ope.json`` artifact (:func:`bench_record`); appended by the
  benchmark artifact writer and by ``benchmarks/perf/gate.py``.
- ``manifest`` — result/bootstrap/health/duration summaries from a run
  manifest (:func:`manifest_record`); appended by the CLI when
  ``--history`` is given.

:func:`monotone_regressions` is the trend check the perf gate runs:
``k`` consecutive strictly-decreasing values of a gated metric on the
same ``cpu_count`` is a drift no single-run tolerance gate can see.

Stdlib-only on purpose — ``gate.py`` must work as a standalone script.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from typing import Iterable, Mapping, Optional

__all__ = [
    "RunHistory",
    "DEFAULT_HISTORY_DIR",
    "git_sha",
    "bench_record",
    "manifest_record",
    "monotone_regressions",
]

#: Where benchmark history accumulates, relative to the repo root.
DEFAULT_HISTORY_DIR = os.path.join("benchmarks", "history")

#: Filename inside the history directory.
HISTORY_FILE = "runs.jsonl"


def git_sha(cwd: Optional[str] = None) -> str:
    """The current git commit SHA, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def _stamp(record: dict, cwd: Optional[str] = None) -> dict:
    record.setdefault("timestamp", time.time())
    record.setdefault("git_sha", git_sha(cwd))
    record.setdefault("cpu_count", os.cpu_count() or 1)
    return record


def bench_record(artifact: Mapping, cwd: Optional[str] = None) -> dict:
    """Flatten a ``BENCH_ope.json`` artifact into one history record.

    Keeps every numeric leaf under a dotted key
    (``class_bootstrap.speedup``), so the trend check can address
    metrics the same way ``gate.py``'s gate tables do.
    """
    metrics: dict[str, float] = {}

    def walk(node, prefix: str) -> None:
        if isinstance(node, Mapping):
            for key, value in node.items():
                walk(value, f"{prefix}.{key}" if prefix else str(key))
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            metrics[prefix] = float(node)

    walk(artifact, "")
    return _stamp({"kind": "bench", "metrics": metrics}, cwd)


def manifest_record(manifest: Mapping, cwd: Optional[str] = None) -> dict:
    """Summarize a run manifest into one history record.

    Carries the command, result estimates, bootstrap intervals
    (``{policy: [low, high]}``), health verdicts, and total wall time
    of the root spans — enough for the dashboard's trend lane without
    duplicating the manifest itself.
    """
    results = {}
    for entry in manifest.get("results", ()):
        key = f"{entry.get('policy')}/{entry.get('estimator')}"
        if entry.get("value") is not None:
            results[key] = entry["value"]
    bootstrap = {
        policy: [interval.get("low"), interval.get("high")]
        for policy, interval in manifest.get("bootstrap", {}).items()
    }
    health = manifest.get("health", {})
    spans = manifest.get("spans", ())
    wall = sum(s.get("wall_s") or 0.0 for s in spans)
    return _stamp(
        {
            "kind": "manifest",
            "command": manifest.get("command"),
            "results": results,
            "bootstrap": bootstrap,
            "health": {
                "overall": health.get("overall"),
                "levels": {
                    name: entry.get("level")
                    for name, entry in health.get("monitors", {}).items()
                },
            },
            "wall_s": wall or None,
        },
        cwd,
    )


class RunHistory:
    """An append-only JSONL store of run records.

    ``path`` may be the history *directory* (the conventional
    ``benchmarks/history/``, in which case ``runs.jsonl`` inside it is
    used) or a ``.jsonl`` file path directly.
    """

    def __init__(self, path: str = DEFAULT_HISTORY_DIR) -> None:
        if path.endswith(".jsonl"):
            self.path = path
        else:
            self.path = os.path.join(path, HISTORY_FILE)

    def append(self, record: Mapping) -> dict:
        """Stamp and append one record; returns the stamped record."""
        record = _stamp(dict(record))
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        return record

    def records(self, kind: Optional[str] = None) -> list[dict]:
        """Every stored record in append order (corrupt lines skipped)."""
        if not os.path.exists(self.path):
            return []
        out: list[dict] = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict) and (
                    kind is None or record.get("kind") == kind
                ):
                    out.append(record)
        return out

    def series(
        self, metric: str, cpu_count: Optional[int] = None
    ) -> list[tuple[float, float]]:
        """``(timestamp, value)`` points for one bench metric.

        Restricted to records matching ``cpu_count`` when given —
        cross-core-count ratios are not comparable.
        """
        points = []
        for record in self.records(kind="bench"):
            if cpu_count is not None and record.get("cpu_count") != cpu_count:
                continue
            value = record.get("metrics", {}).get(metric)
            if value is not None:
                points.append((record.get("timestamp", 0.0), float(value)))
        return points

    def __repr__(self) -> str:
        return f"RunHistory({self.path!r})"


def monotone_regressions(
    history: RunHistory,
    metrics: Iterable[str],
    k: int = 3,
    cpu_count: Optional[int] = None,
) -> list[dict]:
    """Metrics whose last ``k`` recorded values strictly decrease.

    Single-run tolerance gates miss slow drift: three runs each 5%
    worse than the last never trip a 30% gate, but the trajectory is
    down 14% and falling.  Returns one dict per drifting metric with
    the offending trailing values.
    """
    if cpu_count is None:
        cpu_count = os.cpu_count() or 1
    warnings = []
    for metric in metrics:
        points = history.series(metric, cpu_count=cpu_count)
        if len(points) < k:
            continue
        tail = [value for _, value in points[-k:]]
        if all(later < earlier for earlier, later in zip(tail, tail[1:])):
            warnings.append(
                {
                    "metric": metric,
                    "values": tail,
                    "cpu_count": cpu_count,
                    "drop": (tail[0] - tail[-1]) / tail[0] if tail[0] else 0.0,
                }
            )
    return warnings
