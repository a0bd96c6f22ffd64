"""Sampling profiler that attributes self-time to the active span.

Span trees (PR 4) say *which stage* is slow; this module says *which
code inside the stage*.  :class:`SpanProfiler` arms a periodic
``SIGALRM`` via ``signal.setitimer`` and, on every tick, records the
currently executing code site under the innermost open span of the
active tracer (:meth:`Tracer.active_span_name`).  The result is a
per-span *flame table* — ``{span: {code site: samples}}`` — cheap
enough to leave on for whole runs (one dict update per tick, nothing
in the hot path itself).

Everything is stdlib: no C extensions, no third-party profilers.  On
platforms or threads where ``setitimer`` is unavailable the profiler
degrades to manual :meth:`~SpanProfiler.sample` calls (the tests use
these for determinism) and reports ``supported=False``.

**Off by default.**  The process-wide default is
:data:`NULL_PROFILER`; install a real profiler per run with
:func:`use_profiler` (the CLI's ``--profile`` flag does).  Sampling
never touches any RNG stream, so harvests and evaluations are
bit-identical with the profiler on or off.
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from typing import Iterator, Optional, Union

from repro.obs.tracing import get_tracer

__all__ = [
    "SpanProfiler",
    "NullProfiler",
    "NULL_PROFILER",
    "get_profiler",
    "set_profiler",
    "use_profiler",
]

#: Default sampling period, seconds.  200 Hz is coarse enough to stay
#: invisible in wall time yet resolves batches that take milliseconds.
DEFAULT_INTERVAL = 0.005

#: Bucket for samples that land outside every span.
UNSPANNED = "<no-span>"


def _code_site(frame) -> str:
    """``file.py:function:firstlineno`` for a frame (stable across runs)."""
    code = frame.f_code
    return (
        f"{os.path.basename(code.co_filename)}:"
        f"{code.co_name}:{code.co_firstlineno}"
    )


class SpanProfiler:
    """Signal-sampling profiler keyed by the active span.

    Use :meth:`start`/:meth:`stop` (or :func:`use_profiler`, which
    does both) around the run; ``tables`` accumulates
    ``{span name: {code site: sample count}}``.
    """

    enabled = True

    def __init__(self, interval: float = DEFAULT_INTERVAL) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.interval = float(interval)
        self.tables: dict[str, dict[str, int]] = {}
        self.samples = 0
        self.supported = hasattr(signal, "setitimer")
        self._armed = False
        self._previous_handler = None

    # -- sampling ----------------------------------------------------------

    def sample(self, frame=None, span: Optional[str] = None) -> None:
        """Record one sample (the signal handler calls this per tick).

        ``frame``/``span`` default to the interrupted frame's site and
        the active tracer's innermost span; tests pass them explicitly
        for determinism.
        """
        if span is None:
            span = get_tracer().active_span_name() or UNSPANNED
        site = _code_site(frame) if frame is not None else "<manual>"
        table = self.tables.setdefault(span, {})
        table[site] = table.get(site, 0) + 1
        self.samples += 1

    def _handler(self, signum, frame) -> None:
        self.sample(frame)

    def start(self) -> bool:
        """Arm the sampling timer; ``False`` if sampling is unavailable.

        Only the main thread of a process may arm ``SIGALRM``.
        """
        if self._armed or not self.supported:
            return self._armed
        try:
            self._previous_handler = signal.signal(
                signal.SIGALRM, self._handler
            )
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        except ValueError:  # not the main thread
            self.supported = False
            return False
        self._armed = True
        return True

    def stop(self) -> None:
        """Disarm the timer and restore the previous SIGALRM handler."""
        if not self._armed:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None
        self._armed = False

    # -- export --------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable form (the manifest's ``profile`` section)."""
        return {
            "interval_s": self.interval,
            "samples": self.samples,
            "supported": self.supported,
            "spans": {
                span: dict(table) for span, table in self.tables.items()
            },
        }

    def flame_table(self, top: Optional[int] = None) -> list[dict]:
        """Flat rows sorted by sample count (heaviest first).

        Each row carries ``span``, ``site``, ``samples``, and
        ``seconds`` (samples x interval — approximate self-time).
        """
        rows = [
            {
                "span": span,
                "site": site,
                "samples": count,
                "seconds": count * self.interval,
            }
            for span, table in self.tables.items()
            for site, count in table.items()
        ]
        rows.sort(key=lambda row: (-row["samples"], row["span"], row["site"]))
        return rows[:top] if top is not None else rows

    def __repr__(self) -> str:
        return (
            f"SpanProfiler(interval={self.interval}, "
            f"samples={self.samples}, spans={len(self.tables)})"
        )


class NullProfiler:
    """The default profiler: accepts every call, records nothing."""

    enabled = False
    supported = False
    samples = 0
    interval = 0.0

    def sample(self, frame=None, span: Optional[str] = None) -> None:
        """No-op (profiling is off)."""

    def start(self) -> bool:
        """Always ``False`` — nothing is armed."""
        return False

    def stop(self) -> None:
        """No-op (profiling is off)."""

    def to_dict(self) -> dict:
        """Always empty — nothing accumulates."""
        return {}

    def flame_table(self, top: Optional[int] = None) -> list[dict]:
        """Always empty — nothing was recorded."""
        return []

    def __repr__(self) -> str:
        return "NullProfiler()"


NULL_PROFILER = NullProfiler()

_profiler: Union[SpanProfiler, NullProfiler] = NULL_PROFILER


def get_profiler() -> Union[SpanProfiler, NullProfiler]:
    """The process-wide active profiler (the no-op one by default)."""
    return _profiler


def set_profiler(
    profiler: Optional[Union[SpanProfiler, NullProfiler]],
) -> None:
    """Install a profiler process-wide; ``None`` restores the no-op."""
    global _profiler
    _profiler = profiler if profiler is not None else NULL_PROFILER


@contextmanager
def use_profiler(
    profiler: Optional[SpanProfiler] = None,
    arm: bool = True,
) -> Iterator[Union[SpanProfiler, NullProfiler]]:
    """Scope a profiler to a ``with`` block (armed unless ``arm=False``).

    A fresh :class:`SpanProfiler` is installed when ``profiler`` is
    omitted; the timer is disarmed and the previous profiler restored
    on exit.
    """
    global _profiler
    previous = _profiler
    active = profiler if profiler is not None else SpanProfiler()
    _profiler = active
    if arm:
        active.start()
    try:
        yield active
    finally:
        active.stop()
        _profiler = previous
