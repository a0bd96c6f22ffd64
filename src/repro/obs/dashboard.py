"""Self-contained static HTML dashboard for a run manifest + history.

``python -m repro dashboard run_manifest.json --history
benchmarks/history -o dashboard.html`` renders one HTML file with **no
external assets** — inline CSS, inline SVG sparklines — so the file
can be archived as a CI artifact and opened anywhere, including
air-gapped machines, years later.

Sections (each skipped when its manifest section is absent):

- run header (command, environment, input digest, config),
- health verdicts (overall badge, per-monitor table, event log) from
  the :mod:`~repro.obs.monitors` snapshot,
- per-(policy x estimator) results with reliability verdicts,
- span waterfall (depth-indented bars scaled to total wall time),
- profiler flame table (:mod:`~repro.obs.profiler`),
- metric tables (counters/gauges and histogram summaries),
- cross-run bench-trend sparklines and recent-run lane from
  :mod:`~repro.obs.history` records.

Rendering is pure formatting over plain dicts: the module never
imports ``repro.core`` and works on any schema-1 manifest.
"""

from __future__ import annotations

import html
import json
from datetime import datetime, timezone
from typing import Iterable, Mapping, Optional, Sequence

__all__ = ["render_dashboard"]

_esc = html.escape

#: Badge colors per health level (WCAG-friendly on white).
_LEVEL_COLORS = {
    "OK": "#15803d",
    "WARN": "#b45309",
    "CRITICAL": "#b91c1c",
}

#: Verdict colors reuse the health palette.
_VERDICT_LEVELS = {"OK": "OK", "WARN": "WARN", "UNRELIABLE": "CRITICAL"}

_CSS = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 0; color: #1f2937;
       background: #f8fafc; }
main { max-width: 1100px; margin: 0 auto; padding: 24px; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 28px 0 8px; border-bottom: 1px solid #e2e8f0;
     padding-bottom: 4px; }
table { border-collapse: collapse; width: 100%; background: #fff; }
th, td { text-align: left; padding: 4px 10px; border-bottom:
         1px solid #e2e8f0; vertical-align: top; }
th { background: #f1f5f9; font-weight: 600; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
code, td.mono { font-family: ui-monospace, monospace; font-size: 12px; }
.meta { color: #64748b; font-size: 12px; margin-bottom: 16px; }
.badge { display: inline-block; padding: 1px 8px; border-radius: 9px;
         color: #fff; font-size: 12px; font-weight: 600; }
.bar-row { display: flex; align-items: center; gap: 8px;
           font-size: 12px; padding: 1px 0; }
.bar-label { flex: 0 0 340px; white-space: nowrap; overflow: hidden;
             text-overflow: ellipsis; font-family: ui-monospace, monospace; }
.bar-track { flex: 1; background: #e2e8f0; border-radius: 2px; height: 14px;
             position: relative; }
.bar-fill { background: #3b82f6; height: 100%; border-radius: 2px;
            min-width: 1px; }
.bar-fill.err { background: #b91c1c; }
.bar-time { flex: 0 0 150px; text-align: right; color: #475569;
            font-variant-numeric: tabular-nums; }
.spark { vertical-align: middle; }
.delta-up { color: #15803d; }
.delta-down { color: #b91c1c; }
.events { font-size: 12px; }
footer { color: #94a3b8; font-size: 11px; margin-top: 32px; }
"""


def _fmt_num(value, digits: int = 4) -> str:
    if value is None:
        return "—"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    try:
        return f"{float(value):.{digits}g}"
    except (TypeError, ValueError):
        return _esc(str(value))


def _fmt_time(unix) -> str:
    if not unix:
        return "—"
    stamp = datetime.fromtimestamp(float(unix), tz=timezone.utc)
    return stamp.strftime("%Y-%m-%d %H:%M:%S UTC")


def _badge(level: Optional[str]) -> str:
    level = level or "—"
    color = _LEVEL_COLORS.get(level, "#64748b")
    return (
        f'<span class="badge" style="background:{color}">'
        f"{_esc(level)}</span>"
    )


def _section(title: str, body: str) -> str:
    return f"<h2>{_esc(title)}</h2>\n{body}\n"


def _table(headers: Sequence[tuple], rows: Iterable[Sequence[str]]) -> str:
    """``headers`` are ``(label, css_class)`` pairs; cells are raw HTML."""
    head = "".join(
        f'<th class="{cls}">{_esc(label)}</th>' if cls else
        f"<th>{_esc(label)}</th>"
        for label, cls in headers
    )
    body = []
    for row in rows:
        cells = "".join(
            f'<td class="{cls}">{cell}</td>' if cls else f"<td>{cell}</td>"
            for cell, (_, cls) in zip(row, headers)
        )
        body.append(f"<tr>{cells}</tr>")
    if not body:
        return "<p class='meta'>none</p>"
    return (
        f"<table><thead><tr>{head}</tr></thead>"
        f"<tbody>{''.join(body)}</tbody></table>"
    )


# -- header ----------------------------------------------------------------


def _header(manifest: Mapping, title: Optional[str]) -> str:
    command = manifest.get("command", "run")
    env = manifest.get("environment", {})
    bits = [
        f"created {_esc(_fmt_time(manifest.get('created_unix')))}",
        f"repro {_esc(str(env.get('repro_version', '?')))}",
        f"python {_esc(str(env.get('python', '?')))}",
    ]
    input_section = manifest.get("input")
    if input_section:
        digest = str(input_section.get("sha256", ""))[:16]
        bits.append(
            f"input <code>{_esc(str(input_section.get('path', '?')))}</code>"
            + (f" (sha256 {_esc(digest)}…)" if digest else "")
        )
    config = manifest.get("config") or {}
    config_line = ""
    if config:
        pairs = ", ".join(
            f"{_esc(str(k))}={_esc(str(v))}" for k, v in sorted(config.items())
        )
        config_line = f"<div class='meta'>config: {pairs}</div>"
    return (
        f"<h1>{_esc(title or f'repro run — {command}')}</h1>"
        f"<div class='meta'>{' · '.join(bits)}</div>{config_line}"
    )


# -- health ----------------------------------------------------------------


def _health_section(manifest: Mapping) -> str:
    health = manifest.get("health")
    if not health:
        return ""
    rows = []
    for name, entry in sorted(health.get("monitors", {}).items()):
        rows.append(
            (
                f"<code>{_esc(name)}</code>",
                _badge(entry.get("level")),
                _fmt_num(entry.get("value")),
                _fmt_num(entry.get("threshold")),
                _esc(str(entry.get("message", ""))),
            )
        )
    body = (
        f"<p>overall: {_badge(health.get('overall'))} "
        f"<span class='meta'>({_fmt_num(health.get('rows'))} rows "
        f"observed)</span></p>"
    )
    body += _table(
        [("monitor", ""), ("level", ""), ("value", "num"),
         ("threshold", "num"), ("message", "")],
        rows,
    )
    events = health.get("events") or []
    if events:
        items = "".join(
            f"<li>{_badge(e.get('level'))} <code>{_esc(str(e.get('monitor')))}"
            f"</code> at row {_fmt_num(e.get('rows'))}: "
            f"{_esc(str(e.get('message', '')))}</li>"
            for e in events
        )
        body += f"<ul class='events'>{items}</ul>"
    return _section("Health", body)


# -- results ---------------------------------------------------------------


def _results_section(manifest: Mapping) -> str:
    results = manifest.get("results") or []
    intervals = manifest.get("bootstrap") or {}
    if not results and not intervals:
        return ""
    rows = []
    for entry in results:
        verdict = entry.get("verdict")
        level = _VERDICT_LEVELS.get(verdict or "", None)
        rows.append(
            (
                _esc(str(entry.get("policy", "?"))),
                _esc(str(entry.get("estimator", "?"))),
                _fmt_num(entry.get("value"), 6),
                _fmt_num(entry.get("std_error")),
                _fmt_num(entry.get("n")),
                _fmt_num(entry.get("effective_n")),
                _badge(level) if level else "—",
            )
        )
    body = _table(
        [("policy", ""), ("estimator", ""), ("value", "num"),
         ("std err", "num"), ("n", "num"), ("effective n", "num"),
         ("verdict", "")],
        rows,
    )
    if intervals:
        # The printed ``[low, high]`` of each policy's IPS terms.
        body += "<p class='meta'>bootstrap intervals (ips terms)</p>" + _table(
            [("policy", ""), ("interval", "num"), ("confidence", "num"),
             ("n_boot", "num"), ("seed", "num")],
            (
                (
                    _esc(str(policy)),
                    f"[{entry['low']:.4f}, {entry['high']:.4f}]",
                    _fmt_num(entry.get("confidence")),
                    _fmt_num(entry.get("n_boot")),
                    _fmt_num(entry.get("seed")),
                )
                for policy, entry in intervals.items()
            ),
        )
    return _section("Results", body)


# -- span waterfall --------------------------------------------------------


def _span_rows(span: Mapping, depth: int, total: float, out: list) -> None:
    wall = span.get("wall_s") or 0.0
    cpu = span.get("cpu_s")
    width = 100.0 * wall / total if total > 0 else 0.0
    error = span.get("error")
    label = _esc(str(span.get("name", "?")))
    if error:
        label += f" ⚠ {_esc(str(error))}"
    time_text = f"{wall:.4f}s"
    if cpu is not None:
        time_text += f" / {cpu:.4f}s cpu"
    out.append(
        "<div class='bar-row'>"
        f"<div class='bar-label' style='padding-left:{depth * 14}px'>"
        f"{label}</div>"
        "<div class='bar-track'>"
        f"<div class='bar-fill{' err' if error else ''}' "
        f"style='width:{max(width, 0.4):.2f}%'></div></div>"
        f"<div class='bar-time'>{time_text}</div>"
        "</div>"
    )
    for child in span.get("children", ()):
        _span_rows(child, depth + 1, total, out)


def _spans_section(manifest: Mapping, max_rows: int = 400) -> str:
    spans = manifest.get("spans") or []
    if not spans:
        return ""
    total = sum(s.get("wall_s") or 0.0 for s in spans)
    rows: list = []
    for span in spans:
        _span_rows(span, 0, total, rows)
    clipped = ""
    if len(rows) > max_rows:
        clipped = (
            f"<p class='meta'>…{len(rows) - max_rows} more spans "
            f"omitted</p>"
        )
        rows = rows[:max_rows]
    return _section(
        f"Span waterfall ({total:.3f}s total)", "".join(rows) + clipped
    )


# -- profiler --------------------------------------------------------------


def _profile_section(manifest: Mapping, top: int = 20) -> str:
    profile = manifest.get("profile")
    if not profile or not profile.get("spans"):
        return ""
    interval = float(profile.get("interval_s") or 0.0)
    flat = [
        (span, site, int(count))
        for span, table in profile["spans"].items()
        for site, count in table.items()
    ]
    flat.sort(key=lambda row: (-row[2], row[0], row[1]))
    total = sum(count for _, _, count in flat) or 1
    rows = [
        (
            f"<code>{_esc(span)}</code>",
            f"<code>{_esc(site)}</code>",
            _fmt_num(count),
            f"{100.0 * count / total:.1f}%",
            _fmt_num(count * interval) if interval else "—",
        )
        for span, site, count in flat[:top]
    ]
    body = (
        f"<p class='meta'>{_fmt_num(profile.get('samples'))} samples at "
        f"{interval * 1000:.1f} ms — top {min(top, len(flat))} of "
        f"{len(flat)} sites</p>"
    )
    body += _table(
        [("span", ""), ("code site", ""), ("samples", "num"),
         ("share", "num"), ("≈ self-time s", "num")],
        rows,
    )
    return _section("Profiler flame table", body)


# -- metrics ---------------------------------------------------------------


def _labels_text(labels: Mapping) -> str:
    if not labels:
        return ""
    return ", ".join(f"{k}={v}" for k, v in sorted(labels.items()))


def _metrics_section(manifest: Mapping) -> str:
    metrics = manifest.get("metrics") or {}
    if not metrics:
        return ""
    scalar_rows = []
    histogram_rows = []
    for name in sorted(metrics):
        entry = metrics[name]
        kind = entry.get("kind")
        for series in entry.get("series", ()):
            labels = _esc(_labels_text(series.get("labels", {})))
            if kind == "histogram":
                hist = series.get("histogram", {})
                histogram_rows.append(
                    (
                        f"<code>{_esc(name)}</code>", labels,
                        _fmt_num(hist.get("count")),
                        _fmt_num(hist.get("sum")),
                        _fmt_num(hist.get("min")),
                        _fmt_num(hist.get("max")),
                    )
                )
            else:
                scalar_rows.append(
                    (
                        f"<code>{_esc(name)}</code>",
                        _esc(str(kind)),
                        labels,
                        _fmt_num(series.get("value")),
                    )
                )
    body = ""
    if scalar_rows:
        body += _table(
            [("metric", ""), ("kind", ""), ("labels", ""), ("value", "num")],
            scalar_rows,
        )
    if histogram_rows:
        body += _table(
            [("histogram", ""), ("labels", ""), ("count", "num"),
             ("sum", "num"), ("min", "num"), ("max", "num")],
            histogram_rows,
        )
    return _section("Metrics", body) if body else ""


# -- history ---------------------------------------------------------------


def _sparkline(values: Sequence[float], width: int = 140,
               height: int = 28) -> str:
    if len(values) < 2:
        return ""
    low, high = min(values), max(values)
    spread = (high - low) or 1.0
    pad = 2.0
    step = (width - 2 * pad) / (len(values) - 1)
    points = " ".join(
        f"{pad + i * step:.1f},"
        f"{height - pad - (v - low) / spread * (height - 2 * pad):.1f}"
        for i, v in enumerate(values)
    )
    last_x = pad + (len(values) - 1) * step
    last_y = height - pad - (values[-1] - low) / spread * (height - 2 * pad)
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="trend of {len(values)} runs">'
        f'<polyline points="{points}" fill="none" stroke="#3b82f6" '
        f'stroke-width="1.5"/>'
        f'<circle cx="{last_x:.1f}" cy="{last_y:.1f}" r="2" '
        f'fill="#1d4ed8"/></svg>'
    )


#: Substrings marking bench metrics worth a trend lane by default.
_TREND_HINTS = ("relative_throughput", "speedup", "rows_per_s", "overhead")


def _trend_metrics(records: Sequence[Mapping]) -> list[str]:
    counts: dict[str, int] = {}
    for record in records:
        for metric in record.get("metrics", {}):
            counts[metric] = counts.get(metric, 0) + 1
    repeated = [m for m, n in counts.items() if n >= 2]
    preferred = [
        m for m in repeated if any(hint in m for hint in _TREND_HINTS)
    ]
    chosen = preferred or repeated
    return sorted(chosen)[:12]


def _history_section(history: Sequence[Mapping]) -> str:
    if not history:
        return ""
    bench = [r for r in history if r.get("kind") == "bench"]
    manifests = [r for r in history if r.get("kind") == "manifest"]
    body = ""
    if bench:
        # Trend lanes only make sense within one cpu_count (ROADMAP:
        # single-core ratios are not comparable to multi-core ones).
        latest_cpu = bench[-1].get("cpu_count")
        lane = [b for b in bench if b.get("cpu_count") == latest_cpu]
        rows = []
        for metric in _trend_metrics(lane):
            values = [
                r["metrics"][metric] for r in lane
                if metric in r.get("metrics", {})
            ]
            if len(values) < 2:
                continue
            delta = values[-1] - values[0]
            cls = "delta-up" if delta >= 0 else "delta-down"
            rows.append(
                (
                    f"<code>{_esc(metric)}</code>",
                    _sparkline(values),
                    _fmt_num(values[-1]),
                    f"<span class='{cls}'>{delta:+.3g}</span>",
                    _fmt_num(len(values)),
                )
            )
        if rows:
            body += (
                f"<p class='meta'>bench trends at cpu_count="
                f"{_fmt_num(latest_cpu)}</p>"
            )
            body += _table(
                [("metric", ""), ("trend", ""), ("latest", "num"),
                 ("Δ first→last", "num"), ("runs", "num")],
                rows,
            )
    if manifests:
        rows = [
            (
                _esc(_fmt_time(r.get("timestamp"))),
                f"<code>{_esc(str(r.get('git_sha', '?'))[:12])}</code>",
                _esc(str(r.get("command", "?"))),
                _badge(r.get("health", {}).get("overall")),
                _fmt_num(r.get("wall_s")),
            )
            for r in manifests[-10:]
        ]
        body += _table(
            [("when", ""), ("git", ""), ("command", ""), ("health", ""),
             ("wall s", "num")],
            rows,
        )
    return _section("Cross-run history", body) if body else ""


# -- quarantine / ledger ---------------------------------------------------


def _provenance_section(manifest: Mapping) -> str:
    bits = []
    quarantine = manifest.get("quarantine")
    if quarantine:
        bits.append(
            "<p>quarantine: "
            f"<code>{_esc(json.dumps(quarantine, sort_keys=True))}</code></p>"
        )
    ledger = manifest.get("ledger")
    if ledger:
        head = str(ledger.get("head", ""))
        bits.append(
            f"<p>ledger head <code>{_esc(head[:24])}…</code> over "
            f"{_fmt_num(ledger.get('rows'))} rows</p>"
        )
    if not bits:
        return ""
    return _section("Provenance", "".join(bits))


# -- entry point -----------------------------------------------------------


def render_dashboard(
    manifest: Mapping,
    history: Optional[Sequence[Mapping]] = None,
    title: Optional[str] = None,
) -> str:
    """Render one manifest (plus optional history records) to HTML.

    ``manifest`` is a loaded ``run_manifest.json`` dict; ``history``
    is a list of :class:`~repro.obs.history.RunHistory` records.  The
    returned document is fully self-contained (no external assets).
    """
    sections = [
        _header(manifest, title),
        _health_section(manifest),
        _results_section(manifest),
        _spans_section(manifest),
        _profile_section(manifest),
        _metrics_section(manifest),
        _history_section(history or []),
        _provenance_section(manifest),
    ]
    body = "\n".join(s for s in sections if s)
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width, '
        'initial-scale=1">\n'
        f"<title>{_esc(title or 'repro dashboard')}</title>\n"
        f"<style>{_CSS}</style>\n</head>\n<body>\n<main>\n"
        f"{body}\n"
        "<footer>rendered by repro.obs.dashboard — self-contained, "
        "no external assets</footer>\n"
        "</main>\n</body>\n</html>\n"
    )
