"""``repro.obs`` — instrumentation for the harvesting pipeline.

A dependency-free observability layer threaded through harvest →
validation → estimator folds → bootstrap → reporting:

- :mod:`repro.obs.tracing` — nested wall/CPU spans
  (``with get_tracer().span("evaluate.chunk", rows=n): ...``);
- :mod:`repro.obs.metrics` — counters/gauges/histograms with
  Prometheus-text and JSON exporters;
- :mod:`repro.obs.monitors` — streaming health monitors (windowed
  ESS, propensity floor, weight tails, quarantine/ledger-break rates,
  serving latency and errors) emitting OK/WARN/CRITICAL
  :class:`~repro.obs.monitors.HealthEvent` records while the run is
  in flight;
- :mod:`repro.obs.profiler` — a stdlib signal-sampling profiler that
  attributes self-time to the active span;
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

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.lazy_exports(__name__, {
    "repro.obs.dashboard": ("render_dashboard",),
    "repro.obs.history": (
        "RunHistory", "bench_record", "git_sha", "manifest_record",
        "monotone_regressions",
    ),
    "repro.obs.manifest": (
        "MANIFEST_SCHEMA_VERSION", "RunManifest", "file_digest",
        "result_entry",
    ),
    "repro.obs.metrics": (
        "NULL_METRICS", "Counter", "Gauge", "Histogram", "MetricsRegistry",
        "NullMetrics", "get_metrics", "set_metrics", "use_metrics",
    ),
    "repro.obs.monitors": (
        "LEVEL_CRITICAL", "LEVEL_OK", "LEVEL_WARN", "NULL_MONITORS",
        "HealthEvent", "HealthMonitor", "MonitorSuite", "NullMonitors",
        "default_monitors", "get_monitors", "serving_monitors", "set_monitors",
        "use_monitors",
    ),
    "repro.obs.profiler": (
        "NULL_PROFILER", "NullProfiler", "SpanProfiler", "get_profiler",
        "set_profiler", "use_profiler",
    ),
    "repro.obs.report": (
        "aggregate_spans", "flatten_spans", "manifest_summary_text",
        "metric_totals", "verdict_tally",
    ),
    "repro.obs.tracing": (
        "NULL_TRACER", "NullTracer", "Span", "Tracer", "get_tracer",
        "set_tracer", "use_tracer",
    ),
})
