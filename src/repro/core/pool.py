"""Persistent worker pool for seeded bootstrap shards.

A fresh ``ProcessPoolExecutor`` per call would pay fork/teardown for
every bootstrap interval.  This module keeps **one** lazily created
executor for the whole process:

- :func:`get_pool` returns the singleton, growing it (by recreating)
  when a caller asks for more workers than it was built with.
- :func:`reset_pool` discards a broken executor (a killed worker
  poisons the whole pool — ``BrokenProcessPool``); callers then fall
  back to bit-identical serial recomputation.
- Discarding a pool, by either route, joins its workers before it
  returns, so no worker of an old pool outlives the call.
- An ``atexit`` hook shuts the pool down so worker processes never
  outlive the parent.

Per-task observability survives pool reuse because workers open a
*fresh* :class:`~repro.obs.tracing.Tracer` per traced task and ship
the span dict home with the result — nothing accumulates in worker
globals between tasks.  Profiled tasks likewise run under a fresh
:class:`~repro.obs.profiler.SpanProfiler` and ship their flame
tables; the parent absorbs them exactly where it grafts spans.  Pool
churn is itself telemetry: ``pool.created`` / ``pool.resets``
counters feed the dashboard.
"""

from __future__ import annotations

import atexit
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Optional

from repro.obs.metrics import get_metrics

__all__ = [
    "BrokenProcessPool",
    "get_pool",
    "pool_size",
    "reset_pool",
    "shutdown_pool",
]

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The persistent executor, sized for at least ``workers`` workers.

    Created lazily on first use; asking for more workers than the
    current pool has recreates it larger (asking for fewer reuses the
    existing, bigger pool).
    """
    global _pool, _pool_workers
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if _pool is not None and _pool_workers < workers:
        _shutdown()
    if _pool is None:
        _pool = ProcessPoolExecutor(max_workers=workers)
        _pool_workers = workers
        get_metrics().counter("pool.created").inc()
    return _pool


def pool_size() -> int:
    """Worker count of the live pool (0 when no pool exists)."""
    return _pool_workers if _pool is not None else 0


def _shutdown() -> None:
    """Discard the pool and join its workers.

    A broken pool's manager thread has already terminated and joined
    its workers, so the wait returns at once; a healthy pool's workers
    are idle between calls and exit on their shutdown sentinel.
    """
    global _pool, _pool_workers
    pool, _pool, _pool_workers = _pool, None, 0
    if pool is not None:
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:  # pragma: no cover - already-broken executors
            pass


def reset_pool() -> None:
    """Discard the pool (after ``BrokenProcessPool``); next use recreates.

    Safe to call when no pool exists.
    """
    _shutdown()
    get_metrics().counter("pool.resets").inc()


def shutdown_pool() -> None:
    """Shut the pool down cleanly (process exit, or tests)."""
    _shutdown()


atexit.register(shutdown_pool)

