"""Provenance manifests: every reported number, reproducible.

A decision meeting trusts an offline estimate only as far as it can
answer "where did this number come from?".  A :class:`RunManifest`
captures one ``evaluate``/``compare`` run end to end:

- **input** — path, byte size, and SHA-256 digest of the evaluated log
  (two manifests with the same digest evaluated the same bytes);
- **config** — chunk size, seed, bootstrap replicates, validation
  mode, policy and estimator specs: everything needed to re-issue the
  run;
- **environment** — package version, Python version, platform;
- **results** — per (policy × estimator) value, standard error, n, and
  the reliability verdict;
- **bootstrap** (``evaluate --bootstrap``) — every printed
  percentile-bootstrap interval, keyed by policy, with its confidence,
  replicate count and seed (an ``ips`` result also carries its
  policy's interval);
- **metrics** — the run's :class:`~repro.obs.metrics.MetricsRegistry`
  snapshot (quarantine counts, downgrades, fold latencies, …);
- **spans** — the run's :class:`~repro.obs.tracing.Tracer` tree;
- **ledger** / **streams** (harvest runs) — the decision chain's head
  hash and the RNG stream-derivation log (:mod:`repro.audit`), so the
  produced log's integrity and randomness provenance are provable
  end to end.

``python -m repro evaluate … --manifest run_manifest.json`` writes
one; ``python -m repro report run_manifest.json`` renders it back as a
human-readable summary (:mod:`repro.obs.report`).
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import time
from typing import Mapping, Optional, Sequence

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "RunManifest",
    "file_digest",
    "result_entry",
]

#: Bump when the manifest layout changes incompatibly.
MANIFEST_SCHEMA_VERSION = 1

_DIGEST_CHUNK = 1 << 20


def file_digest(path: str, algorithm: str = "sha256") -> str:
    """Streaming content digest of ``path`` (constant memory)."""
    digest = hashlib.new(algorithm)
    with open(path, "rb") as handle:
        while True:
            block = handle.read(_DIGEST_CHUNK)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def result_entry(policy_name: str, result) -> dict:
    """Build one manifest result row from an estimator result.

    Accepts any object with the
    :class:`~repro.core.estimators.base.EstimatorResult` attributes.
    """
    entry = {
        "policy": policy_name,
        "estimator": result.estimator,
        "value": result.value,
        "std_error": result.std_error,
        "n": result.n,
        "effective_n": result.effective_n,
        "verdict": (
            result.diagnostics.verdict
            if result.diagnostics is not None
            else None
        ),
        "reliable": result.reliable,
    }
    if result.details.get("degraded"):
        entry["degraded"] = True
        entry["fallback"] = result.details.get("fallback")
    return entry


class RunManifest:
    """Builder/parser for ``run_manifest.json``."""

    def __init__(self, data: dict) -> None:
        self.data = data

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        *,
        command: str,
        input_path: Optional[str] = None,
        config: Optional[Mapping] = None,
        results: Sequence[dict] = (),
        metrics=None,
        tracer=None,
        quarantine=None,
        ledger=None,
        streams=None,
        monitors=None,
        profiler=None,
        extra: Optional[Mapping] = None,
    ) -> "RunManifest":
        """Assemble a manifest from a finished run's artifacts.

        ``metrics``/``tracer`` accept the run's registry and tracer
        (their snapshots are embedded); ``quarantine`` a
        :class:`~repro.core.validation.Quarantine`.  ``ledger`` (a
        :class:`~repro.audit.ledger.DecisionLedger`) embeds the decision
        chain's head hash — the truncation-proof anchor that
        ``python -m repro verify-ledger --manifest`` checks logs
        against; ``streams`` (a
        :class:`~repro.audit.streams.StreamRegistry`) embeds the
        derivation log (master-seed fingerprint plus every stream key
        consumed), proving which randomness the run drew without
        revealing the seed itself.  ``monitors`` (a
        :class:`~repro.obs.monitors.MonitorSuite`) embeds the streaming
        health verdicts as the ``health`` section; ``profiler`` (a
        :class:`~repro.obs.profiler.SpanProfiler`) embeds the per-span
        flame tables as ``profile``.  All are optional — an
        un-instrumented run still gets input digest, config,
        environment, and results.
        """
        import repro

        data: dict = {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "created_unix": time.time(),
            "command": command,
            "environment": {
                "repro_version": repro.__version__,
                "python": sys.version.split()[0],
                "platform": platform.platform(),
            },
            "config": dict(config or {}),
            "results": list(results),
        }
        if input_path is not None:
            try:
                import os

                data["input"] = {
                    "path": input_path,
                    "sha256": file_digest(input_path),
                    "bytes": os.path.getsize(input_path),
                }
            except OSError:
                data["input"] = {"path": input_path}
        if quarantine is not None:
            data["quarantine"] = quarantine.report()
        if ledger is not None:
            data["ledger"] = ledger.manifest_entry()
        if streams is not None:
            data["streams"] = streams.manifest_entry()
        if metrics is not None:
            data["metrics"] = metrics.snapshot()
        if tracer is not None:
            data["spans"] = tracer.span_tree()
        if monitors is not None:
            health = monitors.snapshot()
            if health:
                data["health"] = health
        if profiler is not None:
            profile = profiler.to_dict()
            if profile:
                data["profile"] = profile
        if extra:
            data.update(dict(extra))
        return cls(data)

    # -- IO ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """The raw manifest payload (not a copy)."""
        return self.data

    def to_json(self, indent: int = 2) -> str:
        """The payload serialized as JSON (non-JSON values via ``str``)."""
        return json.dumps(self.data, indent=indent, default=str)

    def save(self, path: str) -> None:
        """Write the manifest to ``path`` as newline-terminated JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        """Read a manifest back, checking the schema version."""
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: manifest root must be an object")
        version = data.get("schema_version")
        if version != MANIFEST_SCHEMA_VERSION:
            raise ValueError(
                f"{path}: unsupported manifest schema version {version!r} "
                f"(this build reads {MANIFEST_SCHEMA_VERSION})"
            )
        return cls(data)

    # -- accessors -----------------------------------------------------------

    @property
    def results(self) -> list[dict]:
        """The per-(policy, estimator) result rows."""
        return list(self.data.get("results", ()))

    @property
    def spans(self) -> list[dict]:
        """The captured span tree (empty when tracing was off)."""
        return list(self.data.get("spans", ()))

    @property
    def metrics(self) -> dict:
        """The metrics snapshot (empty when metrics were off)."""
        return dict(self.data.get("metrics", {}))

    def __repr__(self) -> str:
        return (
            f"RunManifest(command={self.data.get('command')!r}, "
            f"results={len(self.results)})"
        )
