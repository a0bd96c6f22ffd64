"""Render a saved run manifest back into human-readable tables.

``python -m repro report run_manifest.json`` lands here: given a
manifest written by ``evaluate --manifest``, print the run header,
the estimator results, the reliability-verdict tally, the bootstrap
intervals, the top spans by wall time and the metric totals — the
"what happened in this run" one-pager.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from typing import Iterator, Mapping, Optional, Sequence

from repro.obs.manifest import RunManifest

# NOTE: repro.core.reporting is imported lazily inside
# manifest_summary_text — repro.obs must stay import-clean of
# repro.core so the core modules can import the instrumentation hooks
# at module load without a cycle.

__all__ = [
    "flatten_spans",
    "aggregate_spans",
    "verdict_tally",
    "metric_totals",
    "manifest_summary_text",
]


def flatten_spans(
    spans: Sequence[Mapping], prefix: str = ""
) -> Iterator[tuple[str, Mapping]]:
    """Depth-first ``(path, span)`` pairs over a span tree."""
    for span in spans:
        path = f"{prefix}/{span['name']}" if prefix else str(span["name"])
        yield path, span
        yield from flatten_spans(span.get("children", ()), path)


def aggregate_spans(spans: Sequence[Mapping]) -> list[dict]:
    """Per-span-name totals: count, total/max wall seconds, CPU seconds.

    Sorted by total wall time, descending — the "where did the run
    spend its time" view.  Spans still open when the tree was captured
    (``wall_s`` is None) count toward ``count`` only.
    """
    totals: dict[str, dict] = {}
    for _, span in flatten_spans(spans):
        entry = totals.setdefault(
            str(span["name"]),
            {"name": str(span["name"]), "count": 0, "wall_s": 0.0,
             "cpu_s": 0.0, "max_wall_s": 0.0, "errors": 0},
        )
        entry["count"] += 1
        if span.get("error"):
            entry["errors"] += 1
        wall = span.get("wall_s")
        if wall is not None:
            entry["wall_s"] += wall
            entry["max_wall_s"] = max(entry["max_wall_s"], wall)
        cpu = span.get("cpu_s")
        if cpu is not None:
            entry["cpu_s"] += cpu
    return sorted(totals.values(), key=lambda e: -e["wall_s"])


def verdict_tally(results: Sequence[Mapping]) -> dict[str, int]:
    """Reliability-verdict counts across the manifest's results."""
    tally: TallyCounter = TallyCounter()
    for result in results:
        tally[str(result.get("verdict") or "-")] += 1
    return dict(tally)


def metric_totals(metrics: Mapping) -> list[tuple[str, str, float]]:
    """``(name, kind, total)`` per metric, labels summed out.

    Counters/gauges sum their series values; histograms report their
    total observation count.
    """
    rows = []
    for name in sorted(metrics):
        entry = metrics[name]
        kind = entry.get("kind", "?")
        total = 0.0
        for series in entry.get("series", ()):
            if kind == "histogram":
                total += float(series.get("histogram", {}).get("count", 0))
            else:
                total += float(series.get("value", 0.0))
        rows.append((name, kind, total))
    return rows


def _fmt(value: Optional[float], pattern: str = "{:.4f}") -> str:
    return pattern.format(value) if value is not None else "-"


def manifest_summary_text(
    manifest: RunManifest, top_spans: int = 12
) -> str:
    """The full ``repro report`` rendering of one manifest."""
    from repro.core.reporting import text_table

    data = manifest.to_dict()
    sections: list[str] = []

    header_rows = [
        ["command", data.get("command", "-")],
        ["created_unix", f"{data.get('created_unix', 0):.0f}"],
        ["repro", data.get("environment", {}).get("repro_version", "-")],
        ["python", data.get("environment", {}).get("python", "-")],
    ]
    source = data.get("input")
    if source:
        header_rows.append(["input", source.get("path", "-")])
        if "sha256" in source:
            header_rows.append(["sha256", source["sha256"][:16] + "…"])
        if "bytes" in source:
            header_rows.append(["bytes", str(source["bytes"])])
    for key, value in sorted(data.get("config", {}).items()):
        header_rows.append([f"config.{key}", str(value)])
    sections.append("run\n" + text_table(["field", "value"], header_rows))

    results = manifest.results
    if results:
        rows = [
            [
                r.get("policy", "-"),
                r.get("estimator", "-"),
                _fmt(r.get("value")),
                _fmt(r.get("std_error")),
                str(r.get("n", "-")),
                (r.get("verdict") or "-")
                + (" (degraded)" if r.get("degraded") else ""),
            ]
            for r in results
        ]
        sections.append(
            "results\n"
            + text_table(
                ["policy", "estimator", "value", "stderr", "n", "verdict"],
                rows,
            )
        )
        tally = verdict_tally(results)
        sections.append(
            "verdicts\n"
            + text_table(
                ["verdict", "count"],
                [[k, str(v)] for k, v in sorted(tally.items())],
            )
        )

    intervals = data.get("bootstrap")
    if intervals:
        rows = [
            [
                policy,
                f"[{entry['low']:.4f}, {entry['high']:.4f}]",
                _fmt(entry.get("confidence"), "{:g}"),
                str(entry.get("n_boot", "-")),
                str(entry.get("seed", "-")),
            ]
            for policy, entry in intervals.items()
        ]
        sections.append(
            "bootstrap intervals (ips terms)\n"
            + text_table(
                ["policy", "interval", "confidence", "n_boot", "seed"], rows
            )
        )

    spans = manifest.spans
    if spans:
        rows = [
            [
                e["name"],
                str(e["count"]),
                f"{e['wall_s']:.4f}",
                f"{e['max_wall_s']:.4f}",
                f"{e['cpu_s']:.4f}",
            ]
            for e in aggregate_spans(spans)[:top_spans]
        ]
        sections.append(
            "top spans by wall time\n"
            + text_table(
                ["span", "count", "wall s", "max s", "cpu s"], rows
            )
        )

    metrics = manifest.metrics
    if metrics:
        rows = [
            [name, kind, f"{total:g}"]
            for name, kind, total in metric_totals(metrics)
        ]
        sections.append(
            "metric totals\n" + text_table(["metric", "kind", "total"], rows)
        )

    quarantine = data.get("quarantine")
    if quarantine:
        rows = [
            [reason, str(count)]
            for reason, count in sorted(
                quarantine.get("by_reason", {}).items()
            )
        ] + [
            [f"repaired/{reason}", str(count)]
            for reason, count in sorted(
                quarantine.get("repairs_by_reason", {}).items()
            )
        ]
        rows.append(["total rejected", str(quarantine.get("n_rejected", 0))])
        sections.append(
            "quarantine\n" + text_table(["reason", "count"], rows)
        )

    ledger = data.get("ledger")
    if ledger:
        lines = [
            "ledger",
            f"  stream {ledger.get('stream')}  n {ledger.get('n')}",
            f"  head {ledger.get('head')}",
        ]
        if ledger.get("master_fingerprint"):
            lines.append(
                f"  master fingerprint {ledger['master_fingerprint']}"
            )
        sections.append("\n".join(lines))

    streams = data.get("streams")
    if streams:
        lines = [
            "rng streams",
            f"  master fingerprint {streams.get('master_fingerprint')} "
            f"(protocol {streams.get('protocol')})",
        ]
        for derivation in streams.get("derivations", [])[:8]:
            lines.append(
                f"  {derivation.get('key')}  seed "
                f"{derivation.get('seed_fingerprint')}"
            )
        remaining = len(streams.get("derivations", [])) - 8
        if remaining > 0:
            lines.append(f"  … {remaining} more derivation(s)")
        sections.append("\n".join(lines))

    return "\n\n".join(sections)
