"""``repro.obs`` — instrumentation for the harvesting pipeline.

A dependency-free observability layer threaded through harvest →
validation → estimator folds → bootstrap → reporting:

- :mod:`repro.obs.tracing` — nested wall/CPU spans with cross-process
  merge (``with get_tracer().span("evaluate.chunk", rows=n): ...``);
- :mod:`repro.obs.metrics` — counters/gauges/histograms with
  Prometheus-text and JSON exporters;
- :mod:`repro.obs.monitors` — streaming health monitors (windowed
  ESS, propensity floor, weight tails, quarantine/ledger-break rates,
  serving latency and errors) emitting OK/WARN/CRITICAL
  :class:`~repro.obs.monitors.HealthEvent` records while the run is
  in flight;
- :mod:`repro.obs.profiler` — a stdlib signal-sampling profiler that
  attributes self-time to the active span, merged across the worker
  pool like span trees;
- :mod:`repro.obs.manifest` — provenance manifests
  (``run_manifest.json``) binding input digest, config, metrics,
  span tree, health verdicts, and results into one reproducible
  record;
- :mod:`repro.obs.history` — append-only cross-run ``runs.jsonl``
  store keyed by git SHA + ``cpu_count``, with the monotone-trend
  check the perf gate runs;
- :mod:`repro.obs.dashboard` — a self-contained static HTML dashboard
  rendered from any manifest + history pair (the ``python -m repro
  dashboard`` subcommand);
- :mod:`repro.obs.report` — render a saved manifest back into tables
  (the ``python -m repro report`` subcommand).

The tracer, registry, monitor suite, and profiler all default to
shared no-op implementations, so the instrumented hot paths cost
nothing until a run opts in (:func:`use_tracer` / :func:`use_metrics`
/ :func:`use_monitors` / :func:`use_profiler`, or the CLI's
``--trace`` / ``--metrics-out`` / ``--manifest`` / ``--monitors`` /
``--profile`` flags).
"""

from repro.obs.dashboard import render_dashboard
from repro.obs.history import (
    RunHistory,
    bench_record,
    git_sha,
    manifest_record,
    monotone_regressions,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    file_digest,
    result_entry,
)
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    get_metrics,
    set_metrics,
    use_metrics,
)
from repro.obs.monitors import (
    LEVEL_CRITICAL,
    LEVEL_OK,
    LEVEL_WARN,
    NULL_MONITORS,
    HealthEvent,
    HealthMonitor,
    MonitorSuite,
    NullMonitors,
    default_monitors,
    get_monitors,
    serving_monitors,
    set_monitors,
    use_monitors,
)
from repro.obs.profiler import (
    NULL_PROFILER,
    NullProfiler,
    SpanProfiler,
    get_profiler,
    set_profiler,
    use_profiler,
)
from repro.obs.report import (
    aggregate_spans,
    flatten_spans,
    manifest_summary_text,
    metric_totals,
    verdict_tally,
)
from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    # tracing
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "get_metrics",
    "set_metrics",
    "use_metrics",
    # monitors
    "LEVEL_OK",
    "LEVEL_WARN",
    "LEVEL_CRITICAL",
    "HealthEvent",
    "HealthMonitor",
    "MonitorSuite",
    "NullMonitors",
    "NULL_MONITORS",
    "default_monitors",
    "serving_monitors",
    "get_monitors",
    "set_monitors",
    "use_monitors",
    # profiler
    "SpanProfiler",
    "NullProfiler",
    "NULL_PROFILER",
    "get_profiler",
    "set_profiler",
    "use_profiler",
    # manifest
    "MANIFEST_SCHEMA_VERSION",
    "RunManifest",
    "file_digest",
    "result_entry",
    # history
    "RunHistory",
    "git_sha",
    "bench_record",
    "manifest_record",
    "monotone_regressions",
    # dashboard
    "render_dashboard",
    # report
    "flatten_spans",
    "aggregate_spans",
    "verdict_tally",
    "metric_totals",
    "manifest_summary_text",
]
