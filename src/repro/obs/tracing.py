"""Span-based run tracing for the harvesting pipeline.

Off-policy evaluation is a pipeline — harvest, validate, fold chunks,
resample bootstrap shards, report — and when a production run is slow
or wrong the first question is *which stage*.  This module answers it
with nested spans::

    with trace.span("evaluate.chunk", index=3, rows=8192):
        fold(...)

Each :class:`Span` records wall time (``time.perf_counter``), CPU time
(``time.process_time``), arbitrary attributes, and its children; the
whole run renders as a tree.  Spans are exception-safe: a span closed
by an unwinding exception still records its duration and tags itself
with the error, so a crashed run's trace shows exactly how far it got.

Finished spans serialize with :meth:`Span.to_dict`, the node format
of a run manifest's span tree.

**Zero overhead when off.**  The process-wide default tracer is
:data:`NULL_TRACER`, whose ``span()`` returns one shared no-op context
manager — no allocation, no clock reads, no stack bookkeeping.  The
instrumented code paths therefore stay hot until someone installs a
real tracer (:func:`use_tracer`, or the CLI's ``--trace`` /
``--manifest`` flags).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Optional, Union

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]


class Span:
    """One timed pipeline stage, with attributes and child spans.

    Used as a context manager by :meth:`Tracer.span`; ``wall_s`` and
    ``cpu_s`` are populated on exit (and are ``None`` while the span is
    still open).  ``set(key=value, ...)`` adds attributes mid-span.
    """

    __slots__ = (
        "name", "attributes", "children", "wall_s", "cpu_s", "error",
        "_tracer", "_wall0", "_cpu0",
    )

    def __init__(self, name: str, tracer: Optional["Tracer"] = None,
                 **attributes) -> None:
        self.name = name
        self.attributes = dict(attributes)
        self.children: list[Span] = []
        self.wall_s: Optional[float] = None
        self.cpu_s: Optional[float] = None
        self.error: Optional[str] = None
        self._tracer = tracer
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def set(self, **attributes) -> None:
        """Attach attributes to the span while it is open (or after)."""
        self.attributes.update(attributes)

    # -- context manager -----------------------------------------------------

    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer._push(self)
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_s = time.perf_counter() - self._wall0
        self.cpu_s = time.process_time() - self._cpu0
        if exc is not None:
            self.error = f"{exc_type.__name__}: {exc}"
        if self._tracer is not None:
            self._tracer._pop(self)
        return False  # never swallow the exception

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable form (the manifest's span-tree node)."""
        node: dict = {
            "name": self.name,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
        }
        if self.attributes:
            node["attributes"] = dict(self.attributes)
        if self.error is not None:
            node["error"] = self.error
        if self.children:
            node["children"] = [child.to_dict() for child in self.children]
        return node

    def __repr__(self) -> str:
        timing = f"{self.wall_s:.4f}s" if self.wall_s is not None else "open"
        return f"Span({self.name!r}, {timing}, children={len(self.children)})"


class Tracer:
    """Collects a tree of :class:`Span` objects for one run.

    ``span(name, **attrs)`` opens a child of the innermost open span
    (or a new root); nesting follows ``with`` blocks.  The tracer is
    process-local.
    """

    enabled = True

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, **attributes) -> Span:
        """Open a new span as a context manager."""
        return Span(name, tracer=self, **attributes)

    def span_tree(self) -> list[dict]:
        """Every finished root span as a JSON-serializable tree."""
        return [span.to_dict() for span in self.roots]

    def active_span_name(self) -> Optional[str]:
        """Name of the innermost open span, or ``None`` outside any.

        Safe to call from a signal handler: it is a single list read,
        and the sampling profiler uses it to attribute self-time.
        """
        stack = self._stack
        return stack[-1].name if stack else None

    # -- stack bookkeeping (driven by Span.__enter__/__exit__) ---------------

    def _push(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # Tolerate out-of-order exits (generators collected late): pop
        # back to the span if present instead of corrupting the stack.
        if span in self._stack:
            while self._stack and self._stack.pop() is not span:
                pass

    def __repr__(self) -> str:
        return f"Tracer(roots={len(self.roots)}, open={len(self._stack)})"


class _NullSpan:
    """Shared do-nothing span: the cost of tracing when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attributes) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The default tracer: accepts every call, records nothing."""

    enabled = False

    def span(self, name: str, **attributes) -> _NullSpan:
        """The shared no-op span (nothing is timed)."""
        return _NULL_SPAN

    def span_tree(self) -> list[dict]:
        """Always empty — nothing was recorded."""
        return []

    def active_span_name(self) -> Optional[str]:
        """Always ``None`` — no spans are tracked."""
        return None

    def __repr__(self) -> str:
        return "NullTracer()"


NULL_TRACER = NullTracer()

_tracer: Union[Tracer, NullTracer] = NULL_TRACER


def get_tracer() -> Union[Tracer, NullTracer]:
    """The process-wide active tracer (the no-op tracer by default)."""
    return _tracer


def set_tracer(tracer: Optional[Union[Tracer, NullTracer]]) -> None:
    """Install a tracer process-wide; ``None`` restores the no-op."""
    global _tracer
    _tracer = tracer if tracer is not None else NULL_TRACER


@contextmanager
def use_tracer(
    tracer: Optional[Tracer] = None,
) -> Iterator[Union[Tracer, NullTracer]]:
    """Scope a tracer to a ``with`` block.

    A fresh :class:`Tracer` is installed when ``tracer`` is omitted;
    the previous tracer is restored on exit.
    """
    global _tracer
    previous = _tracer
    _tracer = tracer if tracer is not None else Tracer()
    try:
        yield _tracer
    finally:
        _tracer = previous
