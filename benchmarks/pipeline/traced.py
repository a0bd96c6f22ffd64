"""Run one ``python -m repro`` stage with timing wrappers around its layers.

Usage::

    python benchmarks/pipeline/traced.py SPANS.json -- <repro CLI args>

The wrappers are installed from outside the program: each target in
:data:`TARGETS` is replaced, in its defining module and in every loaded
module that bound the same object, by a wrapper that records
``(name, start, end, parent, attrs)`` in memory.  Modules imported later
are patched the moment they finish executing (an import hook), so a
stage pays only for the modules it actually loads.  Only batch- or
chunk-level calls are wrapped, never per-row ones.  The stage itself
runs as ``repro.__main__.main(argv)`` under a ``stage`` root span, and
the spans are written to ``SPANS.json`` when it returns.

The span arithmetic (self time, coverage, per-layer totals) lives here
too, so the benchmark and its tests share one definition.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import importlib.abc
import inspect
import json
import os
import sys
import time

#: ``(span name, "module:attribute path")`` of every wrapped boundary.
#: ``estimators.*`` spans are named after the estimator instance.
TARGETS = (
    ("scenario.build", "repro.core.coordinator:build_inputs"),
    ("scenario.build", "repro.machinehealth.dataset:build_full_feedback_dataset"),
    ("scenario.build", "repro.loadbalance.harvest:synthetic_decision_snapshots"),
    ("coordinator.run", "repro.core.coordinator:HarvestCoordinator.run"),
    ("harvest.sample", "repro.core.harvest:harvest_columns"),
    # Sealing is deferred: extend_batch only queues rows, and the chain
    # hashes are computed when the ledger drains its queue.
    ("audit.seal", "repro.audit.ledger:DecisionLedger._drain"),
    ("audit.seal", "repro.audit.ledger:DecisionLedger.extend_digests"),
    ("audit.seal", "repro.audit.shards:splice_payloads"),
    ("audit.annotate", "repro.audit.ledger:DecisionLedger.annotate"),
    ("audit.verify", "repro.audit.ledger:verify_jsonl"),
    ("audit.verify", "repro.audit.shards:verify_sharded_jsonl"),
    ("audit.stream_flush", "repro.audit.ledger:StreamingLedgerWriter.flush"),
    ("io.write", "repro.core.types:Dataset.save_jsonl"),
    ("ingest.load", "repro.core.types:Dataset.load_jsonl"),
    ("columns.build", "repro.core.columns:DatasetColumns.from_dataset"),
    ("columns.build", "repro.core.columns:DatasetColumns.from_arrays"),
    ("columns.to_dataset", "repro.core.columns:DatasetColumns.to_dataset"),
    ("features.hashed_matrix", "repro.core.features:Featurizer.matrix"),
    ("estimators.*", "repro.core.estimators.base:OffPolicyEstimator.estimate"),
    ("bootstrap.resample", "repro.core.bootstrap:bootstrap_interval_from_terms"),
    ("serve.decide", "repro.serve.service:DecisionService.decide"),
    ("serve.flush", "repro.serve.service:DecisionService.flush"),
    ("serve.gate_start", "repro.serve.service:DecisionService.start_gate"),
    ("serve.encode", "repro.serve.service:DecisionSlice.to_dicts"),
    ("serve.ask", "repro.serve.batcher:RequestBatcher.ask"),
)

#: Estimator instance name → the metric's short name.
ESTIMATOR_NAMES = {"doubly-robust": "dr"}


def _attrs_coordinator(args, kwargs, result):
    return {"shards": len(result.plan), "retries": int(result.retries)}


def _attrs_write(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _attrs_load(args, kwargs, result):
    quarantine = result.quarantine
    return {"quarantined": quarantine.n_rejected if quarantine else 0}


def _attrs_decide(args, kwargs, result):
    return {"n": int(result.n)}


#: Counts recorded at the same boundaries as the spans.
ATTRS = {
    "coordinator.run": _attrs_coordinator,
    "io.write": _attrs_write,
    "ingest.load": _attrs_load,
    "serve.decide": _attrs_decide,
}


class Recorder:
    """In-memory span store: one ``[name, start, end, parent, attrs]`` each."""

    def __init__(self) -> None:
        self.spans: list = []
        self._current = contextvars.ContextVar("pipeline_span", default=-1)

    def _open(self, name: str) -> tuple:
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, self._current.get(), None]
        self.spans.append(record)
        return record, self._current.set(index)

    def _close(self, record, token) -> None:
        self._current.reset(token)
        record[2] = time.perf_counter()

    def wrap(self, name: str, fn):
        """A wrapper of ``fn`` recording one span per call."""
        attrs_fn = ATTRS.get(name)
        named = name.endswith(".*")
        prefix = name[:-1]

        def span_name(args) -> str:
            if not named:
                return name
            short = getattr(args[0], "name", "unknown")
            return prefix + ESTIMATOR_NAMES.get(short, short)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                record, token = self._open(span_name(args))
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._close(record, token)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record, token = self._open(span_name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record, token)
            if attrs_fn is not None:
                record[4] = attrs_fn(args, kwargs, result)
            return result

        return wrapper

    def run_root(self, fn, *args):
        """Call ``fn(*args)`` under the ``stage`` root span."""
        return self.wrap("stage", fn)(*args)


def _patch_target(recorder: Recorder, module, name: str, path: str) -> None:
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if inspect.isclass(owner):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(recorder.wrap(name, raw.__func__)))
        else:
            setattr(owner, attr, recorder.wrap(name, raw))
        return
    original = getattr(owner, attr)
    wrapped = recorder.wrap(name, original)
    for module_name, loaded in list(sys.modules.items()):
        if module_name.partition(".")[0] != "repro":
            continue
        if getattr(loaded, attr, None) is original:
            setattr(loaded, attr, wrapped)


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Patch a module's targets right after the module body executes."""

    def __init__(self, recorder: Recorder, pending: dict) -> None:
        self.recorder = recorder
        self.pending = pending

    def patch(self, module) -> None:
        for name, path in self.pending.pop(module.__name__, ()):
            _patch_target(self.recorder, module, name, path)

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.pending:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            self.patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def install(recorder: Recorder) -> None:
    """Wrap every target now or as soon as its module is imported."""
    pending: dict = {}
    for name, target in TARGETS:
        module_name, _, path = target.partition(":")
        pending.setdefault(module_name, []).append((name, path))
    hook = _PatchOnImport(recorder, pending)
    for module_name in [m for m in pending if m in sys.modules]:
        hook.patch(sys.modules[module_name])
    sys.meta_path.insert(0, hook)


# -- span arithmetic ----------------------------------------------------------


def merge(span_lists) -> list:
    """Concatenate the spans of several stages, re-basing parent indices."""
    merged: list = []
    for spans in span_lists:
        offset = len(merged)
        merged.extend(
            [name, start, end, parent + offset if parent >= 0 else -1, attrs]
            for name, start, end, parent, attrs in spans
        )
    return merged


def _union(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cover_start = cover_end = None
    for start, end in sorted(intervals):
        if cover_end is None or start > cover_end:
            if cover_end is not None:
                total += cover_end - cover_start
            cover_start, cover_end = start, end
        else:
            cover_end = max(cover_end, end)
    if cover_end is not None:
        total += cover_end - cover_start
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part its direct children cover."""
    children: dict = {}
    for span in spans:
        children.setdefault(span[3], []).append(span)
    out = []
    for index, (name, start, end, _parent, _attrs) in enumerate(spans):
        covered = _union(
            (max(c[1], start), min(c[2], end))
            for c in children.get(index, ())
            if c[2] > start and c[1] < end
        )
        out.append(end - start - covered)
    return out


def coverage(spans) -> tuple:
    """``(covered_s, root_s)`` summed over the ``stage`` root spans."""
    covered = root = 0.0
    for span, own in zip(spans, self_times(spans)):
        if span[0] == "stage":
            root += span[2] - span[1]
            covered += span[2] - span[1] - own
    return covered, root


def queue_wait(spans) -> float:
    """Seconds asks waited before the decide that served them began.

    The batcher serves asks FIFO, so an ask is answered by the first
    decide that starts at or after the ask was queued.
    """
    decides = sorted(s[1] for s in spans if s[0] == "serve.decide")
    total = 0.0
    for span in spans:
        if span[0] != "serve.ask":
            continue
        at = bisect.bisect_left(decides, span[1])
        if at < len(decides) and decides[at] <= span[2]:
            total += decides[at] - span[1]
    return total


def layer_totals(spans) -> dict:
    """Per-layer metrics of one or more stages' spans, keyed by metric name."""
    own = self_times(spans)
    seconds: dict = {}
    counts: dict = {}
    attrs: dict = {}
    for span, self_s in zip(spans, own):
        seconds[span[0]] = seconds.get(span[0], 0.0) + self_s
        counts[span[0]] = counts.get(span[0], 0) + 1
        for key, value in (span[4] or {}).items():
            attrs[(span[0], key)] = attrs.get((span[0], key), 0) + value
    decisions = attrs.get(("serve.decide", "n"), 0)
    decide_calls = counts.get("serve.decide", 0)
    covered, root = coverage(spans)
    out = {f"{name}_s": s for name, s in seconds.items() if name != "stage"}
    out.update(
        {
            "coordinator.shards": attrs.get(("coordinator.run", "shards"), 0),
            "coordinator.retries": attrs.get(("coordinator.run", "retries"), 0),
            "io.write_mb": attrs.get(("io.write", "bytes"), 0) / 1e6,
            "ingest.quarantined": attrs.get(("ingest.load", "quarantined"), 0),
            "features.hashed_matrix_calls": counts.get(
                "features.hashed_matrix", 0
            ),
            "serve.decide_calls": decide_calls,
            "serve.decisions_per_decide": (
                decisions / decide_calls if decide_calls else 0.0
            ),
            "serve.queue_wait_s": queue_wait(spans),
            "trace.coverage": covered / root if root > 0 else 0.0,
            "trace.unattributed_s": root - covered,
        }
    )
    return out


def main(argv: list) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(
            "usage: traced.py SPANS.json -- <repro CLI args>", file=sys.stderr
        )
        return 2
    spans_path, repro_argv = argv[0], argv[2:]
    recorder = Recorder()
    install(recorder)
    pid = os.getpid()
    import repro.__main__ as cli

    try:
        return recorder.run_root(cli.main, repro_argv)
    finally:
        # Forked children (gate, pool workers) inherit the wrappers but
        # never reach this line; the check keeps that true for any path.
        if os.getpid() == pid:
            with open(spans_path, "w", encoding="utf-8") as handle:
                json.dump(recorder.spans, handle)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
